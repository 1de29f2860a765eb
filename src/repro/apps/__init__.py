"""Applications built on the w-KNNG library.

The paper motivates K-NN graph construction with two downstream consumers;
both are implemented here end to end:

* :mod:`repro.apps.tsne` - t-SNE dimensionality reduction whose affinity
  stage consumes a K-NN graph (the dominant cost at scale);
* :mod:`repro.apps.search` - a similarity-search service that routes
  queries through the retained RP forest and refines with greedy graph
  walks over the K-NN graph;
* :mod:`repro.apps.labelprop` - semi-supervised label propagation along
  the graph's edges (a third classic K-NN graph consumer);
* :class:`~repro.neighbors.KNNDBSCAN` - density clustering reduced to
  the k-NN graph (re-exported from :mod:`repro.neighbors`, alongside the
  :func:`~repro.neighbors.knn_graph` / :func:`~repro.neighbors.radius_graph`
  GNN edge-list builders).
"""

from repro.apps.tsne import TSNE, TSNEConfig
from repro.apps.search import GraphSearchIndex, SearchConfig
from repro.apps.labelprop import LabelPropagation, LabelPropConfig
from repro.apps.spectral import SpectralConfig, SpectralEmbedding
from repro.apps.dedup import DedupConfig, Deduplicator

# imported last: repro.neighbors pulls in nothing from repro.apps at
# module level (engine imports are lazy), so no cycle
from repro.neighbors import DBSCANConfig, KNNDBSCAN, knn_graph, radius_graph

__all__ = [
    "TSNE",
    "TSNEConfig",
    "GraphSearchIndex",
    "SearchConfig",
    "LabelPropagation",
    "LabelPropConfig",
    "SpectralConfig",
    "SpectralEmbedding",
    "DedupConfig",
    "Deduplicator",
    "DBSCANConfig",
    "KNNDBSCAN",
    "knn_graph",
    "radius_graph",
]
