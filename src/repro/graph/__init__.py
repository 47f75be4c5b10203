"""Graph substrate: directed weighted graphs with vertex categories.

This package implements Definition 1 of the paper — a graph
``G(V, E, F, W)`` where ``F`` maps vertices to sets of categories and ``W``
assigns non-negative edge weights that need not satisfy the triangle
inequality — plus builders, synthetic dataset generators, category
assignment schemes, and file IO.

The names below import their module on first use (see
:mod:`repro._lazy`): loading a graph file never loads the generators.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.graph.graph": ("Graph",),
    "repro.graph.builders": ("from_edge_list", "grid_graph", "complete_graph",
                             "path_graph", "random_graph"),
    "repro.graph.categories": ("assign_uniform_categories",
                               "assign_zipfian_categories", "zipfian_sizes"),
    "repro.graph.generators": ("DatasetSpec", "road_network",
                               "social_network", "cal", "nyc", "col", "fla",
                               "gplus", "dataset_by_name", "DATASET_NAMES"),
    "repro.graph.io": ("read_dimacs", "write_dimacs", "read_edge_list",
                       "write_edge_list", "graph_to_dict", "graph_from_dict",
                       "save_json", "load_json"),
})
