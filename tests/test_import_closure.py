"""What each entry point imports, checked in a fresh interpreter.

``repro``, ``repro.core``, ``repro.graph`` and ``repro.server`` resolve
their public names on first use, and the CLI, the front door and plan
execution import the figure harness, the generators, the fleet, GSP and
the TCP face only where they run them.  An in-process test cannot see a
regression in that: by the time it runs, the suite has imported every
module.  So each check here runs ``python -c`` with the source tree on
the path and reads ``sys.modules`` at the end.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.core
import repro.graph
import repro.server
from repro import KOSREngine, QueryOptions
from repro.graph.io import save_json
from repro.graph.paper import paper_figure1_graph, vertex

SRC = str(Path(repro.__file__).resolve().parents[1])

#: modules an unsharded ``cli serve`` has no use for
UNUSED_BY_SERVE = ("repro.experiments", "repro.shard", "multiprocessing",
                   "repro.core.gsp", "repro.core.brute", "repro.core.variants",
                   "repro.graph.generators")

#: the Figure 1 query every check answers (s → MA → RE → CI → t)
S, T, CATEGORIES = vertex("s"), vertex("t"), ["MA", "RE", "CI"]


def run_fresh(code: str, cwd) -> tuple:
    """Run ``code`` in a new interpreter; returns its stdout lines and
    the set of modules it had loaded at the end."""
    env = {**os.environ,
           "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    script = (code + "\nimport json as _j, sys as _s\n"
              "print(_j.dumps(sorted(_s.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=50)
    assert proc.returncode == 0, proc.stderr
    *lines, modules = proc.stdout.splitlines()
    return lines, set(json.loads(modules))


def loaded(modules, packages) -> list:
    """The members of ``modules`` that are one of ``packages`` or inside
    one."""
    return sorted(m for m in modules for p in packages
                  if m == p or m.startswith(p + "."))


@pytest.fixture
def fig1_files(tmp_path):
    """The Figure 1 graph file and its saved index file."""
    graph = paper_figure1_graph()
    graph_path = tmp_path / "fig1.json"
    index_path = tmp_path / "fig1.rpli"
    save_json(graph, graph_path)
    KOSREngine.build(graph).save_index(str(index_path))
    return str(graph_path), str(index_path)


class TestEntryPointClosures:
    @pytest.mark.parametrize("attach", [True, False], ids=["mmap", "build"])
    def test_unsharded_serve_loads_only_what_it_serves(
            self, fig1_files, tmp_path, attach):
        """The `serve` start-up path (parse, open the engine, the TCP
        face) and one SK request through the warm service load no
        fleet, no figure harness, no GSP, no brute-force oracle and no
        generators."""
        graph_path, index_path = fig1_files
        argv = ["serve", "--graph", graph_path, "--port", "0"]
        if attach:
            argv += ["--mmap-index", index_path]
        lines, modules = run_fresh(
            "from repro.cli import _open_backend, build_parser\n"
            "from repro.core.query import make_query\n"
            "from repro.service import QueryService\n"
            "import repro.server.tcp\n"
            f"args = build_parser().parse_args({argv!r})\n"
            "engine = _open_backend(args, {args.method})\n"
            f"q = make_query(engine.graph, {S}, {T}, {CATEGORIES!r}, k=2)\n"
            "print(QueryService(engine).run(q).costs)\n", tmp_path)
        assert loaded(modules, UNUSED_BY_SERVE) == []
        expected = KOSREngine.build(paper_figure1_graph()).query(
            S, T, CATEGORIES, k=2).costs
        assert json.loads(lines[-1]) == expected

    def test_sharded_serve_loads_no_figure_harness(self, fig1_files,
                                                   tmp_path):
        graph_path, _ = fig1_files
        argv = ["serve", "--graph", graph_path, "--shards", "2"]
        _, modules = run_fresh(
            "from repro.cli import build_parser\n"
            f"build_parser().parse_args({argv!r})\n"
            "import repro.server.tcp\n"
            "from repro.shard import ShardedQueryService\n", tmp_path)
        assert "repro.shard.service" in modules
        assert loaded(modules, ["repro.experiments"]) == []

    @pytest.mark.parametrize("package", ["repro", "repro.server"])
    def test_in_process_front_door_loads_no_tcp_face(self, tmp_path,
                                                     package):
        _, modules = run_fresh(f"from {package} import AsyncQueryService\n",
                               tmp_path)
        assert "repro.server.async_service" in modules
        assert "repro.server.tcp" not in modules

    def test_batch_async_loads_no_tcp_face(self, fig1_files, tmp_path):
        """`batch --async` drives the asyncio front door in process: it
        answers without loading the TCP face."""
        graph_path, _ = fig1_files
        workload = tmp_path / "workload.json"
        workload.write_text(json.dumps(
            [{"source": S, "target": T, "categories": CATEGORIES, "k": 2}]))
        argv = ["batch", "--graph", graph_path, "--workload", str(workload),
                "--async", "--json"]
        lines, modules = run_fresh(
            "from repro.cli import main\n"
            f"main({argv!r})\n", tmp_path)
        assert "repro.server.async_service" in modules
        assert "repro.server.tcp" not in modules
        expected = KOSREngine.build(paper_figure1_graph()).query(
            S, T, CATEGORIES, k=2).costs
        assert json.loads("\n".join(lines))["queries"][0]["costs"] == expected

    def test_spawned_worker_loads_no_front_door(self, tmp_path):
        """A spawn-started shard worker imports its module afresh: that
        import brings no event loop, TCP face or figure harness."""
        _, modules = run_fresh("import repro.shard.worker\n", tmp_path)
        assert loaded(modules, ["asyncio", "repro.server",
                                "repro.experiments"]) == []

    def test_gsp_and_dijkstra_queries_answer_from_a_fresh_interpreter(
            self, tmp_path):
        """GSP is imported by the plan that runs it, on first use: the
        label-free methods still answer, exactly as in process."""
        graph = paper_figure1_graph()
        engine = KOSREngine(graph)
        gsp = QueryOptions(method="GSP")
        dijkstra = QueryOptions(method="SK", nn_backend="dij-resume")
        expected = [engine.query(S, T, CATEGORIES, k=1, options=gsp).costs,
                    engine.query(S, T, CATEGORIES, k=2,
                                 options=dijkstra).costs]
        lines, modules = run_fresh(
            "from repro.api import QueryOptions\n"
            "from repro.core.engine import KOSREngine\n"
            "from repro.graph.paper import paper_figure1_graph\n"
            "import sys\n"
            "engine = KOSREngine(paper_figure1_graph())\n"
            "print('repro.core.gsp' in sys.modules)\n"
            "gsp = QueryOptions(method='GSP')\n"
            "dij = QueryOptions(method='SK', nn_backend='dij-resume')\n"
            f"print([engine.query({S}, {T}, {CATEGORIES!r}, k=1, "
            "options=gsp).costs,\n"
            f"       engine.query({S}, {T}, {CATEGORIES!r}, k=2, "
            "options=dij).costs])\n", tmp_path)
        assert lines[0] == "False"
        assert "repro.core.gsp" in modules
        assert json.loads(lines[1]) == expected


#: where the public names that carry no ``__module__`` of their own live
CONSTANT_HOMES = {"Cost": "repro.types", "Vertex": "repro.types",
                  "INFINITY": "repro.types", "__version__": "repro",
                  "METHODS": "repro.service.planner",
                  "NN_BACKENDS": "repro.service.planner",
                  "DATASET_NAMES": "repro.graph.generators"}


@pytest.mark.parametrize("package",
                         [repro, repro.core, repro.graph, repro.server],
                         ids=lambda p: p.__name__)
class TestLazyPublicNames:
    def test_every_name_is_its_defining_modules_object(self, package):
        for name in package.__all__:
            value = getattr(package, name)
            home = CONSTANT_HOMES.get(name) or value.__module__
            assert getattr(importlib.import_module(home), name) is value, name

    def test_dir_lists_every_name(self, package):
        assert set(package.__all__) <= set(dir(package))

    def test_star_import_binds_every_name(self, package):
        namespace: dict = {}
        exec(f"from {package.__name__} import *", namespace)
        assert set(package.__all__) <= set(namespace)

    def test_unknown_name_is_an_attribute_error_naming_the_module(
            self, package):
        with pytest.raises(AttributeError, match=package.__name__):
            package.no_such_name
        with pytest.raises(ImportError):
            exec(f"from {package.__name__} import no_such_name", {})


def test_every_public_name_resolves_in_a_fresh_interpreter(tmp_path):
    lines, _ = run_fresh(
        "import repro, repro.core, repro.graph, repro.server\n"
        "missing = [f'{p.__name__}.{n}' for p in (repro, repro.core, "
        "repro.graph, repro.server) for n in p.__all__ "
        "if not hasattr(p, n)]\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "missing += [n for n in repro.__all__ if n not in namespace]\n"
        "print(missing)\n", tmp_path)
    assert lines == ["[]"]
