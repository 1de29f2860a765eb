"""Tests for graph-connectivity diagnostics."""

import numpy as np

from repro.core.graph import KNNGraph
from repro.metrics.connectivity import (
    connected_components,
    giant_component_fraction,
    min_out_degree,
)


def graph_from_edges(n, edges, k=2):
    ids = np.full((n, k), -1, dtype=np.int32)
    dists = np.full((n, k), np.inf, dtype=np.float32)
    counts = [0] * n
    for a, b in edges:
        ids[a, counts[a]] = b
        dists[a, counts[a]] = 1.0
        counts[a] += 1
    return KNNGraph(ids=ids, dists=dists)


class TestGraphConnectivity:
    def test_connected_chain(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert connected_components(g).tolist() == [4]
        assert giant_component_fraction(g) == 1.0

    def test_two_islands(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        assert connected_components(g).tolist() == [2, 2]
        assert giant_component_fraction(g) == 0.5

    def test_undirected_closure(self):
        # only one direction stored; closure still connects
        g = graph_from_edges(2, [(0, 1)])
        assert giant_component_fraction(g) == 1.0

    def test_isolated_point(self):
        g = graph_from_edges(3, [(0, 1)])
        assert connected_components(g).tolist() == [2, 1]

    def test_min_out_degree(self):
        g = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert min_out_degree(g) == 0  # node 2 has no out edges

    def test_real_build_matches_exact_structure(self, small_clustered):
        """A KNN graph of separated blobs is *correctly* disconnected; the
        approximate graph must reproduce the exact graph's component
        structure (same count, within one), not invent extra islands."""
        from repro import BuildConfig, WKNNGBuilder
        from repro.baselines import exact_knn_graph

        approx = WKNNGBuilder(BuildConfig(k=10, n_trees=4, leaf_size=48,
                                          refine_iters=2, seed=0)).build(small_clustered)
        exact = exact_knn_graph(small_clustered, 10)
        n_approx = connected_components(approx).size
        n_exact = connected_components(exact).size
        assert abs(n_approx - n_exact) <= 1
        assert min_out_degree(approx) == 10

    def test_uniform_data_graph_connected(self, small_uniform):
        """Uniform-cube data forms one component; the built graph must too."""
        from repro import BuildConfig, WKNNGBuilder

        g = WKNNGBuilder(BuildConfig(k=10, n_trees=4, leaf_size=48,
                                     refine_iters=3, seed=0)).build(small_uniform)
        assert giant_component_fraction(g) > 0.99
