"""Quality metrics for graphs and experiments."""

from repro.metrics.recall import knn_recall, per_point_recall
from repro.metrics.quality import distance_ratio, edge_overlap
from repro.metrics.clustering import adjusted_rand_index
from repro.metrics.connectivity import (
    connected_components,
    giant_component_fraction,
    min_out_degree,
)
from repro.metrics.records import ExperimentRecord, RecordSet

__all__ = [
    "adjusted_rand_index",
    "knn_recall",
    "per_point_recall",
    "distance_ratio",
    "edge_overlap",
    "connected_components",
    "giant_component_fraction",
    "min_out_degree",
    "ExperimentRecord",
    "RecordSet",
]
