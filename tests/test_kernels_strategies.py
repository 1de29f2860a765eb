"""Tests for the three maintenance strategies.

The central invariant: for the same candidate stream, every strategy must
converge to the exact k-smallest neighbour sets - they differ in *how*
(and at what modeled cost), never in *what*.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, RaceError
from repro.kernels import KnnState, available_strategies, get_strategy
from repro.kernels.atomic import AtomicStrategy
from repro.kernels.baseline import BaselineStrategy
from repro.kernels.tiled import TiledStrategy


def exact_sets(x, k):
    d = ((x[:, None, :].astype(np.float64) - x[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d, np.inf)
    return np.argsort(d, axis=1)[:, :k]


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(11)
    return rng.standard_normal((120, 7)).astype(np.float32)


class TestRegistry:
    def test_three_strategies(self):
        assert set(available_strategies()) == {"atomic", "baseline", "tiled"}

    def test_get_strategy_instances(self):
        assert isinstance(get_strategy("atomic"), AtomicStrategy)
        assert isinstance(get_strategy("baseline"), BaselineStrategy)
        assert isinstance(get_strategy("tiled"), TiledStrategy)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown strategy"):
            get_strategy("magic")

    def test_kwargs_forwarded(self):
        s = get_strategy("tiled", tile_size=8)
        assert s.tile_size == 8

    def test_bad_tile_size(self):
        with pytest.raises(ConfigurationError):
            TiledStrategy(tile_size=0)

    def test_bad_concurrency(self):
        with pytest.raises(ValueError):
            AtomicStrategy(concurrency=0)

    def test_pair_modes(self):
        assert get_strategy("tiled").pair_mode == "directed"
        assert get_strategy("atomic").pair_mode == "unordered"
        assert get_strategy("baseline").pair_mode == "unordered"


class TestExactness:
    """Offering all pairs must yield the exact KNN sets for every strategy."""

    @pytest.mark.parametrize("name", ["atomic", "baseline", "tiled"])
    def test_all_pairs_exact(self, name, cloud):
        n, k = cloud.shape[0], 8
        state = KnnState(n, k)
        strat = get_strategy(name)
        rows = np.repeat(np.arange(n), n)
        cols = np.tile(np.arange(n), n)
        strat.update_pairs(state, cloud, rows, cols)
        ids, _ = state.sorted_arrays()
        expected = exact_sets(cloud, k)
        for i in range(n):
            assert set(ids[i].tolist()) == set(expected[i].tolist()), f"row {i}"

    @pytest.mark.parametrize("name", ["atomic", "baseline", "tiled"])
    def test_leaf_update_exact_within_leaf(self, name, cloud):
        leaf = np.arange(20)
        k = 5
        state = KnnState(cloud.shape[0], k)
        strat = get_strategy(name)
        strat.update_leaf(state, cloud, leaf)
        ids, _ = state.sorted_arrays()
        sub = cloud[:20]
        expected = exact_sets(sub, k)
        for i in range(20):
            assert set(ids[i].tolist()) == set(expected[i].tolist())

    @pytest.mark.parametrize("name", ["atomic", "baseline", "tiled"])
    def test_incremental_batches_match_single_batch(self, name, cloud):
        """Feeding candidates in many small batches == one big batch."""
        n, k = cloud.shape[0], 6
        rng = np.random.default_rng(3)
        rows = rng.integers(0, n, 3000)
        cols = rng.integers(0, n, 3000)

        s1 = KnnState(n, k)
        strat1 = get_strategy(name)
        strat1.update_pairs(s1, cloud, rows, cols)

        s2 = KnnState(n, k)
        strat2 = get_strategy(name)
        for start in range(0, 3000, 250):
            strat2.update_pairs(s2, cloud, rows[start:start + 250], cols[start:start + 250])

        d1 = np.sort(s1.dists, axis=1)
        d2 = np.sort(s2.dists, axis=1)
        assert np.allclose(d1, d2)

    @pytest.mark.parametrize("name", ["atomic", "baseline", "tiled"])
    def test_duplicate_offers_no_duplicate_entries(self, name, cloud):
        n, k = cloud.shape[0], 4
        state = KnnState(n, k)
        strat = get_strategy(name)
        rows = np.zeros(10, dtype=np.int64)
        cols = np.full(10, 5, dtype=np.int64)
        strat.update_pairs(state, cloud, rows, cols)
        row_ids = state.ids[0]
        assert (row_ids == 5).sum() == 1

    @pytest.mark.parametrize("name", ["atomic", "baseline", "tiled"])
    def test_self_pairs_dropped(self, name, cloud):
        state = KnnState(cloud.shape[0], 3)
        strat = get_strategy(name)
        rows = np.arange(10, dtype=np.int64)
        strat.update_pairs(state, cloud, rows, rows.copy())
        assert state.filled_counts().sum() == 0


class TestLeafBatch:
    @pytest.mark.parametrize("name", ["atomic", "baseline", "tiled"])
    def test_batch_equals_sequential_leaves(self, name, cloud):
        k = 5
        leaves = [np.arange(0, 25), np.arange(25, 55), np.arange(55, 70)]
        s1 = KnnState(cloud.shape[0], k)
        strat1 = get_strategy(name)
        for leaf in leaves:
            strat1.update_leaf(s1, cloud, leaf)

        s2 = KnnState(cloud.shape[0], k)
        strat2 = get_strategy(name)
        width = max(len(l) for l in leaves)
        mat = np.zeros((3, width), dtype=np.int64)
        lengths = np.array([len(l) for l in leaves])
        for i, leaf in enumerate(leaves):
            mat[i, : len(leaf)] = leaf
        strat2.update_leaf_batch(s2, cloud, mat, lengths)

        assert np.allclose(np.sort(s1.dists, axis=1), np.sort(s2.dists, axis=1))

    @pytest.mark.parametrize("name", ["atomic", "baseline", "tiled"])
    def test_singleton_leaf_noop(self, name, cloud):
        state = KnnState(cloud.shape[0], 3)
        assert get_strategy(name).update_leaf(state, cloud, np.array([4])) == 0

    def test_distance_evals_halved_for_unordered(self, cloud):
        leaf = np.arange(30)
        for name, expected in [("atomic", 30 * 29 // 2), ("tiled", 30 * 29)]:
            strat = get_strategy(name)
            strat.update_leaf(KnnState(cloud.shape[0], 4), cloud, leaf)
            assert strat.counters.distance_evals == expected


class TestSanitizedBatchCheck:
    """The ``WKNN_SANITIZE`` duplicate-pair check on one insert batch."""

    @pytest.mark.parametrize("name", ["atomic", "baseline", "tiled"])
    def test_duplicate_pair_raises(self, name, monkeypatch):
        monkeypatch.setenv("WKNN_SANITIZE", "1")
        rows = np.array([0, 3, 0], dtype=np.int64)
        cols = np.array([5, 5, 5], dtype=np.int64)
        with pytest.raises(RaceError, match=r"\(0, 5\)"):
            get_strategy(name).insert(KnnState(10, 4), rows, cols,
                                      np.ones(3, dtype=np.float32))

    @pytest.mark.parametrize("name", ["atomic", "baseline", "tiled"])
    def test_row_slice_with_global_cols_passes(self, name, monkeypatch):
        # a refine shard inserts into a 4-row slice with global column ids:
        # (0, 5) and (1, 1) must not alias as 0 * 4 + 5 == 1 * 4 + 1
        monkeypatch.setenv("WKNN_SANITIZE", "1")
        rows = np.array([0, 1], dtype=np.int64)
        cols = np.array([5, 1], dtype=np.int64)
        inserted = get_strategy(name).insert(KnnState(4, 2), rows, cols,
                                             np.ones(2, dtype=np.float32))
        assert inserted == 2


class TestCounters:
    def test_atomic_attempts_accounting(self, cloud):
        n, k = cloud.shape[0], 4
        state = KnnState(n, k)
        strat = get_strategy("atomic")
        rows = np.repeat(np.arange(20), 19)
        cols = np.concatenate([np.delete(np.arange(20), i) for i in range(20)])
        strat.update_pairs(state, cloud, rows, cols)
        c = strat.counters
        # one CAS per acceptance; acceptances == insertions
        assert c.atomic_attempts == c.candidates_inserted
        assert c.atomic_attempts >= 20 * k  # every list filled at least once

    def test_baseline_lock_per_row_group(self, cloud):
        state = KnnState(cloud.shape[0], 4)
        strat = get_strategy("baseline")
        strat.update_leaf(state, cloud, np.arange(10))
        assert strat.counters.lock_acquisitions >= 10

    def test_tiled_merge_rounds(self, cloud):
        state = KnnState(cloud.shape[0], 4)
        strat = get_strategy("tiled", tile_size=8)
        strat.update_leaf(state, cloud, np.arange(40))
        assert strat.counters.merge_rounds >= 1
        assert strat.counters.merge_slots > 0

    def test_candidates_seen_vs_offered(self, cloud):
        state = KnnState(cloud.shape[0], 4)
        strat = get_strategy("tiled")
        strat.update_leaf(state, cloud, np.arange(25))
        c = strat.counters
        assert c.candidates_seen >= c.candidates_offered
        assert c.candidates_offered >= c.candidates_inserted

    def test_reset_counters(self, cloud):
        strat = get_strategy("tiled")
        strat.update_leaf(KnnState(cloud.shape[0], 4), cloud, np.arange(10))
        old = strat.reset_counters()
        assert old.distance_evals > 0
        assert strat.counters.distance_evals == 0
