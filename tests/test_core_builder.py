"""Tests for the end-to-end w-KNNG builder (vectorised backend)."""

import numpy as np
import pytest

from repro.core.builder import BuildReport, WKNNGBuilder
from repro.core.config import BuildConfig
from repro.errors import ConfigurationError, DataError
from repro.metrics.recall import knn_recall


def cfg(**kw):
    base = dict(k=10, n_trees=4, leaf_size=48, refine_iters=2, seed=0)
    base.update(kw)
    return BuildConfig(**base)


class TestBuild:
    @pytest.mark.parametrize("strategy", ["tiled", "atomic", "baseline"])
    def test_high_recall_on_clustered(self, strategy, small_clustered, clustered_gt):
        graph = WKNNGBuilder(cfg(strategy=strategy)).build(small_clustered)
        assert knn_recall(graph.ids, clustered_gt[0]) > 0.9

    def test_strategies_agree_on_recall(self, small_clustered, clustered_gt):
        recalls = {}
        for s in ("tiled", "atomic", "baseline"):
            graph = WKNNGBuilder(cfg(strategy=s)).build(small_clustered)
            recalls[s] = knn_recall(graph.ids, clustered_gt[0])
        assert max(recalls.values()) - min(recalls.values()) < 0.05

    def test_graph_shape_and_order(self, small_clustered):
        graph = WKNNGBuilder(cfg()).build(small_clustered)
        assert graph.ids.shape == (600, 10)
        assert (np.diff(graph.dists, axis=1) >= 0).all()  # rows sorted

    def test_no_self_loops(self, small_clustered):
        graph = WKNNGBuilder(cfg()).build(small_clustered)
        self_loop = graph.ids == np.arange(600)[:, None]
        assert not self_loop.any()

    def test_no_duplicate_neighbours(self, small_clustered):
        graph = WKNNGBuilder(cfg()).build(small_clustered)
        for i in range(0, 600, 37):
            row = graph.ids[i]
            valid = row[row >= 0]
            assert len(valid) == len(np.unique(valid))

    def test_reproducible(self, small_clustered):
        g1 = WKNNGBuilder(cfg()).build(small_clustered)
        g2 = WKNNGBuilder(cfg()).build(small_clustered)
        assert np.array_equal(g1.ids, g2.ids)

    def test_seeds_change_result(self, small_clustered):
        g1 = WKNNGBuilder(cfg(seed=1)).build(small_clustered)
        g2 = WKNNGBuilder(cfg(seed=2)).build(small_clustered)
        assert not np.array_equal(g1.ids, g2.ids)

    def test_more_trees_no_worse(self, small_uniform):
        from repro.baselines.bruteforce import BruteForceKNN

        gt, _ = BruteForceKNN(small_uniform).search(small_uniform, 10, exclude_self=True)
        r1 = knn_recall(
            WKNNGBuilder(cfg(n_trees=1, refine_iters=0)).build(small_uniform).ids, gt
        )
        r8 = knn_recall(
            WKNNGBuilder(cfg(n_trees=8, refine_iters=0)).build(small_uniform).ids, gt
        )
        assert r8 >= r1

    def test_refinement_improves(self, small_uniform):
        from repro.baselines.bruteforce import BruteForceKNN

        gt, _ = BruteForceKNN(small_uniform).search(small_uniform, 10, exclude_self=True)
        r0 = knn_recall(
            WKNNGBuilder(cfg(n_trees=2, refine_iters=0)).build(small_uniform).ids, gt
        )
        r3 = knn_recall(
            WKNNGBuilder(cfg(n_trees=2, refine_iters=3)).build(small_uniform).ids, gt
        )
        assert r3 > r0

    def test_k_too_large_rejected(self):
        x = np.random.default_rng(0).standard_normal((8, 3)).astype(np.float32)
        with pytest.raises(ConfigurationError):
            WKNNGBuilder(BuildConfig(k=8, leaf_size=9)).build(x)

    def test_nan_input_rejected(self):
        x = np.full((50, 3), np.nan, dtype=np.float32)
        with pytest.raises(DataError):
            WKNNGBuilder(cfg()).build(x)

    def test_kwargs_constructor(self):
        b = WKNNGBuilder(k=5, leaf_size=20, seed=1)
        assert b.config.k == 5

    def test_config_and_kwargs_mutually_exclusive(self):
        with pytest.raises(TypeError):
            WKNNGBuilder(BuildConfig(), k=5)


class TestReport:
    def test_report_phases(self, small_clustered):
        _, rep = WKNNGBuilder(cfg()).build(small_clustered, return_report=True)
        assert isinstance(rep, BuildReport)
        assert set(rep.phase_seconds) == {"forest", "leaf_pairs", "refine", "finalize"}
        assert rep.total_seconds > 0

    def test_report_counters_nonzero(self, small_clustered):
        graph = WKNNGBuilder(cfg()).build(small_clustered)
        assert graph.report.counters["distance_evals"] > 0

    def test_leaf_stats(self, small_clustered):
        graph = WKNNGBuilder(cfg(leaf_size=48)).build(small_clustered)
        stats = graph.report.leaf_stats
        assert stats["max_leaf_size"] <= 48
        assert stats["n_leaves"] >= 600 / 48 * 4

    def test_meta_carries_report(self, small_clustered):
        graph = WKNNGBuilder(cfg()).build(small_clustered)
        assert graph.meta["algorithm"] == "w-knng"
        assert "report" in graph.meta

    def test_forest_retained(self, small_clustered):
        builder = WKNNGBuilder(cfg(n_trees=3))
        builder.build(small_clustered)
        assert builder.last_forest is not None
        assert builder.last_forest.n_trees == 3


class TestSelectArrangement:
    """The graph is a function of the candidate keys, not of how NumPy's
    selection routines arrange the positions they leave unordered."""

    @staticmethod
    def _reversing(select):
        """Wrap ``select`` to reverse the first ``kth + 1`` output positions:
        still a valid top-(kth+1) set, in a different arrangement."""

        def wrapped(a, kth, axis=-1, **kwargs):
            out = select(a, kth, axis=axis, **kwargs)
            if not np.isscalar(kth) or np.ndim(out) == 0:
                return out
            view = np.moveaxis(out, -1 if axis is None else axis, -1)
            view[..., : kth + 1] = view[..., kth::-1].copy()
            return out

        return wrapped

    @pytest.mark.parametrize("strategy", ["tiled", "baseline", "atomic"])
    def test_build_ignores_select_arrangement(self, strategy, monkeypatch):
        x = np.random.default_rng(3).standard_normal((1500, 16)).astype(np.float32)
        config = cfg(k=12, strategy=strategy, refine_iters=3, seed=3)
        plain = WKNNGBuilder(config).build(x)
        monkeypatch.setattr(np, "argpartition", self._reversing(np.argpartition))
        monkeypatch.setattr(np, "partition", self._reversing(np.partition))
        wrapped = WKNNGBuilder(config).build(x)
        assert np.array_equal(plain.ids, wrapped.ids)
        assert np.array_equal(plain.dists.view(np.uint32), wrapped.dists.view(np.uint32))
        assert plain.report.counters == wrapped.report.counters
