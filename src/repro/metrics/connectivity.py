"""Graph-connectivity diagnostics for K-NN graphs.

A K-NN graph that is accurate per-point can still be *globally* broken for
downstream consumers: t-SNE and label propagation need the (undirected)
graph to be connected, and graph-guided search needs every point reachable
from the entry region.  These diagnostics measure that, using the
vectorized union-find of :mod:`repro.neighbors.unionfind` over the
undirected closure (no NetworkX dependency in the hot path).
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import KNNGraph


def connected_components(graph: KNNGraph) -> np.ndarray:
    """Sizes of the undirected connected components, descending.

    A healthy K-NN graph of a connected data distribution has one giant
    component; isolated islands mean the forest/refinement never linked a
    region to the rest.  Components come from the vectorized edge-list
    union-find (:mod:`repro.neighbors.unionfind`) - no per-edge Python
    loop.
    """
    from repro.neighbors.unionfind import connected_components as cc_edges

    edges, _ = graph.to_coo()
    labels = cc_edges(graph.n, edges[0], edges[1])
    _, counts = np.unique(labels, return_counts=True)
    return np.sort(counts)[::-1]


def giant_component_fraction(graph: KNNGraph) -> float:
    """Fraction of points in the largest undirected component (1.0 = connected)."""
    sizes = connected_components(graph)
    return float(sizes[0] / graph.n) if sizes.size else 0.0


def min_out_degree(graph: KNNGraph) -> int:
    """Smallest number of valid neighbours over all points."""
    return int((graph.ids >= 0).sum(axis=1).min())
