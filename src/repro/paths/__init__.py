"""Shortest-path substrate: Dijkstra family and k-NN cursors."""

from repro.paths.dijkstra import (
    dijkstra,
    dijkstra_distance,
    dijkstra_path,
    multi_source_dijkstra,
    dijkstra_to_targets,
)
from repro.paths.knn import DijkstraKnnCursor, knn_in_category

__all__ = [
    "dijkstra",
    "dijkstra_distance",
    "dijkstra_path",
    "multi_source_dijkstra",
    "dijkstra_to_targets",
    "DijkstraKnnCursor",
    "knn_in_category",
]
