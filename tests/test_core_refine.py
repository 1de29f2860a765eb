"""Tests for the NN-descent local-join refinement."""

import numpy as np
import pytest

from repro.core.refine import (
    RefineState,
    _new_flags,
    _reverse_lists,
    join_candidates,
    pair_directions,
    refine_round,
    sample_columns_with_keys,
)
from repro.kernels.distance import sq_l2_pairs
from repro.kernels.knn_state import EMPTY_ID, KnnState
from repro.kernels.strategy import get_strategy
from repro.utils.parallel import fork_available, shard_ranges


def joined_pairs(state, refine_state, rng, sample, n_jobs=1):
    """``join_candidates``' pairs in both directions."""
    pairs, _ = join_candidates(state, refine_state, rng, sample, n_jobs=n_jobs)
    return pair_directions(pairs, state.n)


def make_state(ids):
    """A state holding ``ids`` at distance 1.0 (rows then sort by id)."""
    ids = np.asarray(ids, dtype=np.int32)
    return KnnState.from_lists(ids, np.where(ids == EMPTY_ID, np.inf, 1.0))


class TestNewFlags:
    def test_everything_new_without_prev(self):
        state = make_state([[1, 2], [0, EMPTY_ID]])
        flags = _new_flags(state, None)
        assert flags.tolist() == [[True, True], [True, False]]

    def test_unchanged_entries_old(self):
        state = make_state([[1, 2], [0, 3]])
        prev = np.array([[2, 1], [3, 9]], dtype=np.int32)
        flags = _new_flags(state, prev)
        assert flags.tolist() == [[False, False], [True, False]]

    def test_empty_slots_never_new(self):
        state = make_state([[5, EMPTY_ID]])
        flags = _new_flags(state, np.array([[9, 9]], dtype=np.int32))
        assert flags.tolist() == [[True, False]]


class TestSampleColumns:
    def test_samples_only_eligible(self):
        rng = np.random.default_rng(0)
        ids = np.array([[10, 20, 30, 40]], dtype=np.int32)
        eligible = np.array([[True, False, True, False]])
        out, ok = sample_columns_with_keys(ids, eligible, 4, rng.random(ids.shape))
        got = set(out[ok].tolist())
        assert got <= {10, 30}

    def test_sample_cap(self):
        rng = np.random.default_rng(0)
        ids = np.tile(np.arange(10, dtype=np.int32), (3, 1))
        eligible = np.ones((3, 10), dtype=bool)
        out, ok = sample_columns_with_keys(ids, eligible, 4, rng.random(ids.shape))
        assert out.shape == (3, 4)
        assert ok.all()

    def test_invalid_marked(self):
        rng = np.random.default_rng(0)
        ids = np.array([[5, 6]], dtype=np.int32)
        eligible = np.array([[False, False]])
        out, ok = sample_columns_with_keys(ids, eligible, 2, rng.random(ids.shape))
        assert (out == EMPTY_ID).all() and not ok.any()


class TestReverseLists:
    def test_reverse_edges_found(self):
        state = make_state([[1, 2], [2, EMPTY_ID], [EMPTY_ID, EMPTY_ID]])
        flags = state.ids != EMPTY_ID  # everything new
        rev_new, rev_old = _reverse_lists(state, flags, 4, np.random.default_rng(0))
        assert 0 in rev_new[1].tolist()  # 0 lists 1
        assert set(rev_new[2][rev_new[2] != EMPTY_ID].tolist()) == {0, 1}
        assert (rev_old == EMPTY_ID).all()

    def test_old_edges_go_to_old_list(self):
        state = make_state([[1, EMPTY_ID]])
        flags = np.zeros((1, 2), dtype=bool)  # nothing new
        rev_new, rev_old = _reverse_lists(state, flags, 2, np.random.default_rng(0))
        assert (rev_new == EMPTY_ID).all()
        assert 0 in rev_old[1].tolist() if state.n > 1 else True

    def test_sample_bound(self):
        # many rows all pointing at node 0
        n = 20
        ids = np.full((n, 2), EMPTY_ID, dtype=np.int32)
        ids[1:, 0] = 0
        state = make_state(ids)
        flags = state.ids != EMPTY_ID
        rev_new, _ = _reverse_lists(state, flags, 3, np.random.default_rng(0))
        assert (rev_new[0] != EMPTY_ID).sum() == 3


class TestLocalJoin:
    def test_pairs_are_deduplicated(self):
        state = make_state([[1, 2], [0, 2], [0, 1]])
        rows, cols = joined_pairs(state, RefineState(), np.random.default_rng(0), 4)
        keys = rows * 3 + cols
        assert len(np.unique(keys)) == len(keys)

    def test_no_self_pairs(self):
        state = make_state([[1, 2], [0, 2], [0, 1]])
        rows, cols = joined_pairs(state, RefineState(), np.random.default_rng(0), 4)
        assert (rows != cols).all()

    def test_join_proposes_shared_neighbour_pair(self):
        # 1 and 2 both appear in 0's list -> the join must propose (1, 2)
        state = make_state([[1, 2], [0, EMPTY_ID], [0, EMPTY_ID]])
        rows, cols = joined_pairs(state, RefineState(), np.random.default_rng(0), 4)
        pairs = set(zip(rows.tolist(), cols.tolist()))
        assert (1, 2) in pairs and (2, 1) in pairs

    def test_converged_state_generates_nothing(self):
        state = make_state([[1, 2], [0, 2], [0, 1]])
        rs = RefineState(prev_ids=state.ids.copy())
        rows, cols = joined_pairs(state, rs, np.random.default_rng(0), 4)
        assert rows.size == 0


class TestRefineRound:
    def test_improves_random_graph(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((200, 8)).astype(np.float32)
        strat = get_strategy("tiled")
        # seed with random neighbours
        ids = np.empty((200, 6), dtype=np.int64)
        dists = np.empty((200, 6), dtype=np.float32)
        for i in range(200):
            ids[i] = rng.choice(np.delete(np.arange(200), i), 6, replace=False)
            dists[i] = ((x[i] - x[ids[i]]) ** 2).sum(1)
        state = KnnState.from_lists(ids, dists)
        before = state.dists.sum()
        rs = RefineState()
        inserted = refine_round(state, x, strat, rng, 6, rs)
        assert inserted > 0
        assert state.dists.sum() < before

    def test_rounds_converge_to_zero(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((150, 4)).astype(np.float32)
        state = KnnState(150, 5)
        strat = get_strategy("tiled")
        strat.update_leaf(state, x, np.arange(150))  # exact already
        rs = RefineState()
        for _ in range(3):
            inserted = refine_round(state, x, strat, rng, 5, rs)
        assert inserted == 0

    def test_refine_state_tracks_rounds(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 4)).astype(np.float32)
        state = KnnState(50, 4)
        strat = get_strategy("tiled")
        strat.update_leaf(state, x, np.arange(25))
        rs = RefineState()
        refine_round(state, x, strat, rng, 4, rs)
        refine_round(state, x, strat, rng, 4, rs)
        assert rs.rounds_run == 2
        assert len(rs.insertions) == 2


class TestRoundAcrossJobs:
    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    @pytest.mark.parametrize("strategy", ["baseline", "atomic", "tiled"])
    def test_repair_round_bitwise_identical_across_n_jobs(self, strategy):
        # a MutableIndex-style repair: a refined graph grown by new rows,
        # with prev_ids marking only the grown rows and their adopters new
        rng = np.random.default_rng(4)
        x = rng.standard_normal((300, 8)).astype(np.float32)
        n_old, k = 260, 6
        base = KnnState(300, k)
        strat = get_strategy(strategy)
        for lo in range(0, n_old, 40):
            strat.update_leaf(base, x, np.arange(lo, min(lo + 40, n_old)))
        refine_round(base, x, strat, np.random.default_rng(5), 6)
        prev_ids = base.ids.copy()
        new = np.arange(n_old, 300)
        strat.update_pairs(base, x, np.repeat(new, 3),
                           rng.integers(0, n_old, new.size * 3))
        results = []
        for n_jobs in (1, 3):
            state = base.copy()
            rs = RefineState(prev_ids=prev_ids.copy())
            inserted = refine_round(state, x, get_strategy(strategy),
                                    np.random.default_rng(6), 6, rs,
                                    n_jobs=n_jobs)
            results.append((inserted, state.ids.copy(), state.dists.copy()))
        (ins1, ids1, d1), (ins3, ids3, d3) = results
        assert ins1 == ins3 > 0
        assert np.array_equal(ids1, ids3)
        assert np.array_equal(d1.view(np.uint32), d3.view(np.uint32))


def oracle_round(state, x, strategy, rng, sample, rs, n_jobs):
    """The round as it was before the single sorted dedupe, shards in turn.

    It dedupes the pair keys three times with ``np.unique``: per candidate
    shard, in the global union, and per insert shard with
    ``return_inverse``.  It draws the same RNG stream in the same order.
    """
    ids = state.ids
    n, k = ids.shape
    shards = shard_ranges(n, n_jobs)
    flags = _new_flags(state, rs.prev_ids)
    keys_new = rng.random((n, k))
    keys_old = rng.random((n, k))
    rev_new, rev_old = _reverse_lists(state, flags, sample, rng)
    parts = []
    for lo, hi in shards:
        ids_s, flags_s = ids[lo:hi], flags[lo:hi]
        fwd_new, _ = sample_columns_with_keys(ids_s, flags_s, sample, keys_new[lo:hi])
        fwd_old, _ = sample_columns_with_keys(
            ids_s, (ids_s != EMPTY_ID) & ~flags_s, sample, keys_old[lo:hi]
        )
        b_new = np.concatenate([fwd_new, rev_new[lo:hi]], axis=1)
        b_all = np.concatenate([fwd_new, rev_new[lo:hi], fwd_old, rev_old[lo:hi]], axis=1)
        shape = (hi - lo, b_new.shape[1], b_all.shape[1])
        a = np.broadcast_to(b_new[:, :, None], shape).reshape(-1)
        b = np.broadcast_to(b_all[:, None, :], shape).reshape(-1)
        ok = (a != EMPTY_ID) & (b != EMPTY_ID) & (a != b)
        a, b = a[ok], b[ok]
        parts.append(np.unique(np.minimum(a, b) * np.int64(n) + np.maximum(a, b)))
    rs.prev_ids = ids
    uniq = np.unique(np.concatenate(parts))
    rows = np.concatenate([uniq // n, uniq % n])
    cols = np.concatenate([uniq % n, uniq // n])
    inserted = 0
    for lo, hi in shards if rows.size else []:
        mask = (rows >= lo) & (rows < hi)
        r, c = rows[mask], cols[mask]
        sub = KnnState.from_keys(state.keys[lo:hi])
        pair_keys = np.minimum(r, c) * np.int64(n) + np.maximum(r, c)
        u, inverse = np.unique(pair_keys, return_inverse=True)
        d = sq_l2_pairs(x, u // n, u % n)[inverse]
        strategy.counters.distance_evals += int(u.size)
        inserted += strategy.insert(sub, r - lo, c, d)
        state.keys[lo:hi] = sub.keys
    rs.record(int(rows.size), inserted)
    return inserted


def leaf_seeded_state(strategy, n=300, k=6):
    """Points and a forest-phase-like state: two trees of 40-point leaves."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((n, 8)).astype(np.float32)
    state = KnnState(n, k)
    for tree in (np.arange(n), rng.permutation(n)):
        for lo in range(0, n, 40):
            strategy.update_leaf(state, x, tree[lo:lo + 40])
    return x, state


class TestSortedDedupeMatchesOracle:
    @pytest.mark.parametrize("n_jobs", [1, 3])
    @pytest.mark.parametrize("strategy", ["baseline", "atomic", "tiled"])
    def test_two_rounds_identical_to_three_unique_round(self, strategy, n_jobs):
        runs = []
        for round_fn in (oracle_round, None):
            strat = get_strategy(strategy)
            x, state = leaf_seeded_state(strat)
            strat.reset_counters()
            rng = np.random.default_rng(8)
            rs = RefineState()
            inserted = []
            for _ in range(2):
                if round_fn is None:
                    inserted.append(refine_round(state, x, strat, rng, 6, rs,
                                                 n_jobs=n_jobs))
                else:
                    inserted.append(round_fn(state, x, strat, rng, 6, rs, n_jobs))
            runs.append((state.keys.copy(), inserted, rs.candidates,
                         rs.insertions, strat.counters.as_dict()))
        (keys0, ins0, cand0, insn0, ctr0), (keys1, ins1, cand1, insn1, ctr1) = runs
        assert ins0[0] > 0
        assert np.array_equal(keys0, keys1)
        assert ins0 == ins1 and cand0 == cand1 and insn0 == insn1
        assert ctr0 == ctr1

    def test_sharded_join_offers_each_pair_once_per_direction(self):
        strat = get_strategy("tiled")
        x, state = leaf_seeded_state(strat)
        rows, cols = joined_pairs(state, RefineState(), np.random.default_rng(9), 6,
                                  n_jobs=3)
        n = state.n
        assert rows.size > 0 and (rows != cols).all()
        directed = rows * n + cols
        assert np.unique(directed).size == directed.size
        assert np.array_equal(np.sort(directed), np.sort(cols * n + rows))
        serial = joined_pairs(state, RefineState(), np.random.default_rng(9), 6)
        assert np.array_equal(rows, serial[0]) and np.array_equal(cols, serial[1])
