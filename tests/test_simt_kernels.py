"""Tests for warp-centric kernels on the simulator: device functions,
leaf kernels, and cross-backend equivalence with the vectorised layer."""

import numpy as np
import pytest

from repro.core.config import BuildConfig
from repro.core.builder import WKNNGBuilder
from repro.errors import ConfigurationError
from repro.metrics.recall import knn_recall
from repro.simt.atomics import pack_dist_id, unpack_dist_id, EMPTY_PACKED
from repro.simt.device import Device
from repro.simt.shared import SharedMemory
from repro.simt.warp import WarpContext
from repro.simt_kernels.device_fns import (
    TiledInserter,
    distance_direct,
    insert_atomic,
    insert_baseline,
    load_point_chunks,
    load_scalar,
)
from repro.simt_kernels.pipeline import simt_leaf_metrics


def make_ctx(dev):
    return WarpContext(dev, SharedMemory(dev.config, dev.metrics), 0, 0, 1, 1)


class TestDeviceFns:
    def test_load_scalar(self):
        dev = Device()
        buf = dev.to_device(np.array([10.0, 20.0, 30.0], dtype=np.float32))
        assert load_scalar(make_ctx(dev), buf, 1) == 20.0

    @pytest.mark.parametrize("dim", [3, 16, 32, 40, 70])
    def test_distance_direct(self, dim):
        rng = np.random.default_rng(dim)
        x = rng.standard_normal((4, dim)).astype(np.float32)
        dev = Device()
        buf = dev.to_device(x.reshape(-1))
        ctx = make_ctx(dev)
        d = distance_direct(ctx, buf, 0, 2, dim)
        ref = float(((x[0].astype(np.float64) - x[2]) ** 2).sum())
        assert d == pytest.approx(ref, rel=1e-5)

    def test_distance_with_cached_chunks(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 50)).astype(np.float32)
        dev = Device()
        buf = dev.to_device(x.reshape(-1))
        ctx = make_ctx(dev)
        xi = load_point_chunks(ctx, buf, 1, 50)
        d = distance_direct(ctx, buf, 1, 2, 50, xi)
        ref = float(((x[1].astype(np.float64) - x[2]) ** 2).sum())
        assert d == pytest.approx(ref, rel=1e-5)

    def test_insert_baseline_replaces_max(self):
        dev = Device()
        k = 4
        dists = dev.to_device(np.array([1.0, 9.0, 3.0, 5.0], dtype=np.float32))
        ids = dev.to_device(np.array([10, 11, 12, 13], dtype=np.int32))
        locks = dev.to_device(np.zeros(1, dtype=np.int32))
        ctx = make_ctx(dev)
        assert insert_baseline(ctx, dists, ids, locks, 0, k, 2.0, 99)
        host_d = dists.to_host()
        assert 9.0 not in host_d and 2.0 in host_d
        assert 99 in ids.to_host()
        assert locks.to_host()[0] == 0  # released

    def test_insert_baseline_rejects_duplicate(self):
        dev = Device()
        dists = dev.to_device(np.array([1.0, 9.0], dtype=np.float32))
        ids = dev.to_device(np.array([5, 6], dtype=np.int32))
        locks = dev.to_device(np.zeros(1, dtype=np.int32))
        assert not insert_baseline(make_ctx(dev), dists, ids, locks, 0, 2, 0.5, 5)
        assert locks.to_host()[0] == 0

    def test_insert_baseline_rejects_worse(self):
        dev = Device()
        dists = dev.to_device(np.array([1.0, 2.0], dtype=np.float32))
        ids = dev.to_device(np.array([5, 6], dtype=np.int32))
        locks = dev.to_device(np.zeros(1, dtype=np.int32))
        assert not insert_baseline(make_ctx(dev), dists, ids, locks, 0, 2, 7.0, 9)

    def test_insert_atomic_semantics(self):
        dev = Device()
        k = 3
        packed = dev.to_device(
            np.full(k, np.uint64(EMPTY_PACKED), dtype=np.uint64)
        )
        ctx = make_ctx(dev)
        for dist, cid in [(5.0, 1), (3.0, 2), (4.0, 3), (1.0, 4), (9.0, 5)]:
            insert_atomic(ctx, packed, 0, k, dist, cid)
        d, i = unpack_dist_id(packed.to_host())
        assert sorted(d.tolist()) == [1.0, 3.0, 4.0]
        assert set(i.tolist()) == {2, 3, 4}

    def test_insert_atomic_rejects_duplicate(self):
        dev = Device()
        packed = dev.to_device(pack_dist_id(
            np.array([1.0, np.inf], dtype=np.float32),
            np.array([7, -1], dtype=np.int32)))
        ctx = make_ctx(dev)
        assert not insert_atomic(ctx, packed, 0, 2, 0.5, 7)

    def test_tiled_inserter_keeps_k_smallest(self):
        dev = Device()
        k = 4
        dists = dev.to_device(np.full(k, np.inf, dtype=np.float32))
        ids = dev.to_device(np.full(k, -1, dtype=np.int32))
        ctx = make_ctx(dev)
        ins = TiledInserter(ctx, dists, ids, 0, k, "t")
        rng = np.random.default_rng(0)
        vals = rng.random(50).astype(np.float32)
        for c, v in enumerate(vals):
            ins.offer(float(v), c)
        ins.flush()
        host = dists.to_host()
        assert np.allclose(np.sort(host), np.sort(vals)[:k])

    def test_tiled_inserter_list_stays_sorted(self):
        dev = Device()
        k = 4
        dists = dev.to_device(np.full(k, np.inf, dtype=np.float32))
        ids = dev.to_device(np.full(k, -1, dtype=np.int32))
        ctx = make_ctx(dev)
        ins = TiledInserter(ctx, dists, ids, 0, k, "t")
        for c, v in enumerate([5.0, 1.0, 3.0]):
            ins.offer(v, c)
        ins.flush()
        host = dists.to_host()
        assert (np.diff(host) >= 0).all()

    def test_tiled_inserter_dedupes_against_list(self):
        dev = Device()
        k = 3
        dists = dev.to_device(np.full(k, np.inf, dtype=np.float32))
        ids = dev.to_device(np.full(k, -1, dtype=np.int32))
        ctx = make_ctx(dev)
        ins = TiledInserter(ctx, dists, ids, 0, k, "t")
        ins.offer(1.0, 7)
        ins.flush()
        ins.offer(1.0, 7)  # duplicate in a later tile
        ins.flush()
        assert (ids.to_host() == 7).sum() == 1


class TestLeafMetrics:
    def test_metrics_nonzero_per_strategy(self, tiny_points):
        leaf = np.arange(16)
        for strat in ("baseline", "atomic", "tiled"):
            m = simt_leaf_metrics(tiny_points, leaf, k=4, strategy=strat)
            assert m.global_load_transactions > 0, strat

    def test_atomic_uses_atomics_tiled_does_not(self, tiny_points):
        leaf = np.arange(16)
        ma = simt_leaf_metrics(tiny_points, leaf, k=4, strategy="atomic")
        mt = simt_leaf_metrics(tiny_points, leaf, k=4, strategy="tiled")
        assert ma.atomic_ops > 0
        assert mt.atomic_ops == 0
        assert mt.shared_accesses > ma.shared_accesses

    def test_baseline_atomics_exceed_atomic_strategy(self, tiny_points):
        # baseline pays lock acquire per candidate; atomic only CASes accepts
        leaf = np.arange(16)
        mb = simt_leaf_metrics(tiny_points, leaf, k=4, strategy="baseline")
        ma = simt_leaf_metrics(tiny_points, leaf, k=4, strategy="atomic")
        assert mb.atomic_ops > ma.atomic_ops

    def test_tiled_fewer_global_transactions_at_high_dim(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((24, 96)).astype(np.float32)
        leaf = np.arange(24)
        md = simt_leaf_metrics(x, leaf, k=4, strategy="atomic")
        mt = simt_leaf_metrics(x, leaf, k=4, strategy="tiled")
        assert mt.global_load_transactions < md.global_load_transactions


class TestSimtPipeline:
    def test_matches_vectorized_recall(self, tiny_points, tiny_gt):
        cfg = dict(k=5, n_trees=2, leaf_size=12, refine_iters=1, seed=3)
        for strategy in ("baseline", "atomic", "tiled"):
            gs = WKNNGBuilder(BuildConfig(backend="simt", strategy=strategy, **cfg)).build(tiny_points)
            gv = WKNNGBuilder(BuildConfig(backend="vectorized", strategy=strategy, **cfg)).build(tiny_points)
            rs = knn_recall(gs.ids, tiny_gt[0])
            rv = knn_recall(gv.ids, tiny_gt[0])
            assert abs(rs - rv) < 0.05, strategy
            # neighbour sets essentially identical across backends
            assert knn_recall(gs.ids, gv.ids) > 0.95, strategy

    def test_meta_has_metrics_and_cycles(self, tiny_points):
        cfg = BuildConfig(k=4, n_trees=1, leaf_size=10, refine_iters=0,
                          seed=0, backend="simt")
        g = WKNNGBuilder(cfg).build(tiny_points)
        assert g.meta["backend"] == "simt"
        assert g.meta["estimated_cycles"] > 0
        assert g.meta["simt_metrics"]["warps_launched"] > 0

    def test_k_exceeding_warp_rejected(self, tiny_points):
        cfg = BuildConfig(k=40, leaf_size=60, backend="simt", n_trees=1)
        with pytest.raises(ConfigurationError, match="warp_size"):
            WKNNGBuilder(cfg).build(tiny_points)

    def test_refinement_runs_on_device(self, tiny_points, tiny_gt):
        base = dict(k=5, n_trees=1, leaf_size=12, seed=1, backend="simt")
        g0 = WKNNGBuilder(BuildConfig(refine_iters=0, **base)).build(tiny_points)
        g2 = WKNNGBuilder(BuildConfig(refine_iters=2, **base)).build(tiny_points)
        assert knn_recall(g2.ids, tiny_gt[0]) >= knn_recall(g0.ids, tiny_gt[0])


class TestSharedBuildDriver:
    """Both backends run one driver: same forest, stop rule and report."""

    @staticmethod
    def _config(backend, **overrides):
        base = dict(k=5, n_trees=2, leaf_size=12, refine_iters=3, seed=0,
                    strategy="atomic", backend=backend)
        return BuildConfig(**{**base, **overrides})

    @pytest.fixture(scope="class")
    def mixture(self):
        from repro.data.synthetic import gaussian_mixture

        return gaussian_mixture(120, 8, n_clusters=4, seed=0)

    def test_simt_counts_refine_insertions(self, mixture):
        from repro.obs import Observability
        from repro.obs.hooks import Events

        obs = Observability()
        hooked = []
        obs.hooks.subscribe(Events.REFINE_ROUND_AFTER,
                            lambda event, payload: hooked.append(payload["inserted"]))
        _, report = WKNNGBuilder(self._config("simt"), obs=obs).build(
            mixture, return_report=True)
        assert report.refine_insertions[0] > 0
        assert hooked == report.refine_insertions
        assert report.metrics["refine/insertions"] == sum(report.refine_insertions)

    def test_backends_build_the_same_spill_forest(self, mixture):
        stats = [
            WKNNGBuilder(self._config(backend, spill=0.3, refine_iters=0)).build(
                mixture, return_report=True)[1].leaf_stats
            for backend in ("vectorized", "simt")
        ]
        assert stats[0] == stats[1]
        assert stats[0]["n_leaves"] > 2 * 120 / 12

    def test_simt_build_keeps_forest_for_search(self, mixture):
        from repro.apps.search import GraphSearchIndex

        index = GraphSearchIndex.build(
            mixture, build_config=self._config("simt", refine_iters=1))
        ids, _ = index.search(mixture[:4], 5)
        assert ids.shape == (4, 5)
        assert (ids[:, 0] == np.arange(4)).all()
