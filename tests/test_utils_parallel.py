"""Tests for process-parallel helpers and the parallel forest build."""

import numpy as np
import pytest

from repro import BuildConfig, WKNNGBuilder
from repro.core.rpforest import build_forest
from repro.data.synthetic import gaussian_mixture
from repro.utils.parallel import (
    fork_available,
    map_forked,
    shard_ranges,
    usable_cpus,
)


class TestShardRanges:
    def test_even_split(self):
        assert shard_ranges(10, 2) == [(0, 5), (5, 10)]

    def test_uneven_split_sizes_differ_by_at_most_one(self):
        ranges = shard_ranges(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1

    def test_total_smaller_than_n_shards(self):
        # never emits empty ranges: shard count collapses to the total
        ranges = shard_ranges(3, 8)
        assert ranges == [(0, 1), (1, 2), (2, 3)]

    def test_zero_total(self):
        assert shard_ranges(0, 4) == []

    def test_single_shard(self):
        assert shard_ranges(7, 1) == [(0, 7)]

    def test_covers_without_gaps_or_overlap(self):
        for total in (1, 2, 5, 17, 100):
            for n_shards in (1, 2, 3, 7, 16):
                ranges = shard_ranges(total, n_shards)
                flat = [i for lo, hi in ranges for i in range(lo, hi)]
                assert flat == list(range(total))

    def test_nonpositive_n_shards_rejected(self):
        with pytest.raises(ValueError):
            shard_ranges(10, 0)
        with pytest.raises(ValueError):
            shard_ranges(10, -2)

    def test_usable_cpus_positive(self):
        assert usable_cpus() >= 1


def _square(shared, i):
    return shared[i] ** 2


def _with_extra(shared, i, offset):
    return shared[i] + offset


class TestMapForked:
    def test_serial_fallback(self):
        out = map_forked(_square, np.array([1, 2, 3]), [(0,), (1,), (2,)], n_jobs=1)
        assert out == [1, 4, 9]

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_parallel_matches_serial(self):
        shared = np.arange(10)
        tasks = [(i,) for i in range(10)]
        assert map_forked(_square, shared, tasks, 4) == \
            map_forked(_square, shared, tasks, 1)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_order_preserved(self):
        shared = np.arange(20)
        out = map_forked(_square, shared, [(i,) for i in range(20)], 3)
        assert out == [i * i for i in range(20)]

    def test_multiple_args(self):
        out = map_forked(_with_extra, np.array([5]), [(0, 10)], 1)
        assert out == [15]

    def test_single_task_runs_inline(self):
        out = map_forked(_square, np.array([3]), [(0,)], n_jobs=8)
        assert out == [9]


class TestParallelForest:
    @pytest.fixture(scope="class")
    def points(self):
        return gaussian_mixture(800, 12, n_clusters=10, seed=3)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_forest_identical_across_n_jobs(self, points):
        f1 = build_forest(points, 4, 40, seed=7, n_jobs=1)
        f2 = build_forest(points, 4, 40, seed=7, n_jobs=3)
        assert f1.n_trees == f2.n_trees
        for t1, t2 in zip(f1.trees, f2.trees):
            assert len(t1.leaves) == len(t2.leaves)
            for a, b in zip(t1.leaves, t2.leaves):
                assert np.array_equal(a, b)
            assert np.allclose(t1.normals, t2.normals)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_generator_seed_identical(self, points):
        f1 = build_forest(points, 3, 40, seed=np.random.default_rng(5), n_jobs=1)
        f2 = build_forest(points, 3, 40, seed=np.random.default_rng(5), n_jobs=2)
        for t1, t2 in zip(f1.trees, f2.trees):
            for a, b in zip(t1.leaves, t2.leaves):
                assert np.array_equal(a, b)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_builder_graph_identical_across_n_jobs(self, points):
        cfg1 = BuildConfig(k=8, n_trees=4, leaf_size=40, refine_iters=1,
                           seed=0, n_jobs=1)
        cfg2 = BuildConfig(k=8, n_trees=4, leaf_size=40, refine_iters=1,
                           seed=0, n_jobs=2)
        g1 = WKNNGBuilder(cfg1).build(points)
        g2 = WKNNGBuilder(cfg2).build(points)
        assert np.array_equal(g1.ids, g2.ids)

    def test_bad_n_jobs_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            BuildConfig(n_jobs=0)


class TestShardedBuildDeterminism:
    """Serial and process-parallel builds must be bitwise identical.

    This is the whole-build contract (see docs/parallel.md): the leaf
    all-pairs phase shards leaf batches across workers and the refinement
    rounds shard point ranges, but merge order is fixed, so the final
    graph - ids *and* float32 distances - matches the serial build
    exactly for any ``n_jobs`` and any insertion strategy.
    """

    @pytest.fixture(scope="class")
    def points(self):
        return gaussian_mixture(2_000, 24, n_clusters=12, seed=11)

    @staticmethod
    def _build(points, strategy, n_jobs, *, return_report=False):
        cfg = BuildConfig(k=8, strategy=strategy, n_trees=4, leaf_size=32,
                          refine_iters=2, seed=0, n_jobs=n_jobs)
        return WKNNGBuilder(cfg).build(points, return_report=return_report)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    @pytest.mark.parametrize("strategy", ["baseline", "atomic", "tiled"])
    def test_bitwise_identical_across_n_jobs(self, points, strategy):
        serial = self._build(points, strategy, n_jobs=1)
        for n_jobs in (2, 4):
            sharded = self._build(points, strategy, n_jobs=n_jobs)
            assert np.array_equal(serial.ids, sharded.ids), (
                f"{strategy}: ids diverged at n_jobs={n_jobs}"
            )
            assert np.array_equal(serial.dists, sharded.dists), (
                f"{strategy}: dists diverged at n_jobs={n_jobs}"
            )

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    @pytest.mark.parametrize("strategy", ["baseline", "atomic", "tiled"])
    @pytest.mark.parametrize("spill", [0.0, 0.3])
    def test_bitwise_identical_across_n_jobs_on_exact_ties(self, strategy, spill):
        """Integer-grid points: every distance is an exact small integer,
        so many candidates tie at each row's k-th place (duplicate points
        tie at 0).  Ties break by id in every merge, so the shard split
        still cannot change which ones are kept."""
        grid = np.random.default_rng(5).integers(0, 4, (700, 3)).astype(np.float32)
        graphs = [
            WKNNGBuilder(BuildConfig(k=8, strategy=strategy, n_trees=4,
                                     leaf_size=40, refine_iters=2, seed=1,
                                     spill=spill, n_jobs=n_jobs)).build(grid)
            for n_jobs in (1, 3)
        ]
        serial, sharded = graphs
        assert np.array_equal(serial.ids, sharded.ids)
        assert np.array_equal(serial.dists.view(np.uint32),
                              sharded.dists.view(np.uint32))

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_report_parallel_section(self, points):
        _, report = self._build(points, "tiled", n_jobs=2,
                                return_report=True)
        par = report.parallel
        assert par["n_jobs"] == 2
        assert par["workers"] == 2
        assert "leaf" in par and par["leaf"]["shards"] == 2
        assert len(par["leaf"]["shard_seconds"]) == 2
        assert "refine" in par and par["refine"]["shard_seconds"]
        assert par["refine"]["merge_seconds"] >= 0.0
        assert report.as_dict()["parallel"]["n_jobs"] == 2

    def test_serial_report_parallel_section(self, points):
        _, report = self._build(points, "tiled", n_jobs=1,
                                return_report=True)
        assert report.parallel == {"n_jobs": 1, "workers": 1}
