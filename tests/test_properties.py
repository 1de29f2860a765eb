"""Property-based tests (Hypothesis) for the core data structures and
invariants: packed encoding, top-k selection, bitonic networks, strategy
equivalence and recall bounds."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.kernels import KnnState, get_strategy
from repro.kernels.distance import pairwise_sq_l2_direct, pairwise_sq_l2_gemm
from repro.kernels.knn_state import EMPTY_KEY, ID_MASK, INF_KEY, pack_keys
from repro.metrics.recall import knn_recall, per_point_recall
from repro.simt.atomics import pack_dist_id, unpack_dist_id
from repro.simt.config import DeviceConfig
from repro.simt.device import Device
from repro.simt.intrinsics import warp_bitonic_sort, warp_sorted_merge_max
from repro.simt.shared import SharedMemory
from repro.simt.warp import WarpContext
from repro.utils.arrays import dedupe_per_row, row_topk, segment_lengths

# allow_subnormal=False: this interpreter flushes subnormals to zero
# (compiled with FTZ), which Hypothesis refuses to generate silently
finite_f32 = st.floats(
    min_value=0.0,
    max_value=float(__import__('numpy').float32(1e30)),
    allow_nan=False,
    allow_infinity=False,
    allow_subnormal=False,
    width=32,
)


def make_ctx():
    dev = Device(DeviceConfig())
    return WarpContext(dev, SharedMemory(dev.config, dev.metrics), 0, 0, 1, 1)


class TestPackedEncoding:
    @given(
        hnp.arrays(np.float32, 20, elements=finite_f32),
        hnp.arrays(np.int32, 20, elements=st.integers(-1, 2**31 - 1)),
    )
    def test_round_trip(self, dists, ids):
        d, i = unpack_dist_id(pack_dist_id(dists, ids))
        assert np.array_equal(d, dists)
        assert np.array_equal(i, ids)

    @given(
        hnp.arrays(np.float32, 30, elements=finite_f32),
        hnp.arrays(np.float32, 30, elements=finite_f32),
    )
    def test_order_homomorphism(self, a, b):
        """packed(a) < packed(b) whenever dist(a) < dist(b), any ids."""
        ids = np.zeros(30, dtype=np.int32)
        pa = pack_dist_id(a, ids)
        pb = pack_dist_id(b, ids)
        lt = a < b
        assert (pa[lt] < pb[lt]).all()


class TestRowTopk:
    @given(
        hnp.arrays(
            np.float32,
            st.tuples(st.integers(1, 8), st.integers(1, 24)),
            elements=finite_f32,
        ),
        st.data(),
    )
    def test_matches_sort(self, dists, data):
        m = dists.shape[1]
        k = data.draw(st.integers(1, m))
        ids = np.broadcast_to(np.arange(m, dtype=np.int32), dists.shape).copy()
        td, ti = row_topk(dists, ids, k)
        ref = np.sort(dists, axis=1)[:, :k]
        assert np.array_equal(td, ref)
        assert (np.diff(td, axis=1) >= 0).all()

    @given(
        hnp.arrays(np.float32, st.tuples(st.integers(1, 5), st.integers(1, 12)),
                   elements=finite_f32)
    )
    def test_returned_ids_consistent(self, dists):
        m = dists.shape[1]
        ids = np.broadcast_to(np.arange(m, dtype=np.int32), dists.shape).copy()
        td, ti = row_topk(dists, ids, min(3, m))
        gathered = np.take_along_axis(dists, ti.astype(np.int64), axis=1)
        assert np.array_equal(gathered, td)


class TestSegments:
    @given(st.lists(st.integers(0, 10), min_size=0, max_size=50))
    def test_reconstruction(self, values):
        keys = np.sort(np.array(values, dtype=np.int64))
        u, s, c = segment_lengths(keys)
        assert c.sum() == keys.size
        rebuilt = np.concatenate([np.full(ci, ui) for ui, ci in zip(u, c)]) \
            if u.size else np.empty(0, dtype=np.int64)
        assert np.array_equal(rebuilt, keys)


class TestDedupe:
    @given(hnp.arrays(np.int64, st.tuples(st.integers(1, 6), st.integers(1, 15)),
                      elements=st.integers(0, 9)))
    def test_idempotent_and_set_preserving(self, ids):
        out = dedupe_per_row(ids.copy())
        for orig, row in zip(ids, out):
            kept = row[row != -1]
            assert set(kept.tolist()) == set(orig.tolist())
            assert len(kept) == len(set(kept.tolist()))


class TestDistanceSchedules:
    @given(
        hnp.arrays(np.float32, st.tuples(st.integers(1, 10), st.integers(1, 40)),
                   elements=st.floats(-128.0, 128.0, allow_nan=False,
                                      allow_subnormal=False, width=32))
    )
    @settings(max_examples=30)
    def test_schedules_agree(self, pts):
        g = pairwise_sq_l2_gemm(pts, pts)
        d = pairwise_sq_l2_direct(pts, pts)
        # the GEMM decomposition's absolute error scales with the squared
        # norms it cancels (classic float32 catastrophic cancellation)
        scale = float((pts.astype(np.float64) ** 2).sum(axis=1).max())
        atol = 1e-5 * scale + 1e-3
        assert np.allclose(g, d, rtol=1e-2, atol=atol)
        assert (g >= 0).all() and (d >= 0).all()


class TestWarpNetworks:
    @given(hnp.arrays(np.float32, 32, elements=finite_f32))
    @settings(max_examples=30)
    def test_bitonic_is_sort(self, keys):
        ctx = make_ctx()
        sk, sv = warp_bitonic_sort(ctx, keys, np.arange(32))
        assert np.array_equal(sk, np.sort(keys))
        assert sorted(sv.tolist()) == list(range(32))  # a permutation

    @given(
        hnp.arrays(np.float32, 32, elements=finite_f32),
        hnp.arrays(np.float32, 32, elements=finite_f32),
    )
    @settings(max_examples=30)
    def test_merge_keeps_smallest(self, a, b):
        ctx = make_ctx()
        a = np.sort(a)
        b = np.sort(b)
        mk, _ = warp_sorted_merge_max(ctx, a, np.arange(32), b, np.arange(32))
        assert np.array_equal(mk, np.sort(np.concatenate([a, b]))[:32])


class TestStrategyEquivalence:
    """All strategies converge to the same neighbour sets for the same
    candidate stream - the library's central invariant."""

    @given(st.integers(0, 10_000), st.integers(2, 8), st.integers(20, 60))
    @settings(max_examples=15, deadline=None)
    def test_same_final_distances(self, seed, k, n):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 5)).astype(np.float32)
        rows = rng.integers(0, n, 400)
        cols = rng.integers(0, n, 400)
        results = {}
        for name in ("atomic", "baseline", "tiled"):
            state = KnnState(n, k)
            get_strategy(name).update_pairs(state, x, rows, cols)
            results[name] = np.sort(state.dists, axis=1)
        # unordered strategies see both pair directions, directed only the
        # given ones -> compare on the symmetrised candidate stream
        both_rows = np.concatenate([rows, cols])
        both_cols = np.concatenate([cols, rows])
        state = KnnState(n, k)
        get_strategy("tiled").update_pairs(state, x, both_rows, both_cols)
        results["tiled_sym"] = np.sort(state.dists, axis=1)
        assert np.allclose(results["atomic"], results["baseline"], equal_nan=True)
        assert np.allclose(results["atomic"], results["tiled_sym"], equal_nan=True)


class TestStrategyListInvariants:
    """After every kernel call, each strategy's lists are exactly the model:
    per row, the k smallest packed keys over all distinct-id offers so far,
    sorted, with distinct ids.  Integer-grid points make every distance
    an exact small integer in every schedule (GEMM or direct, leaf or
    pair), so each (row, id) has one key and ties are everywhere."""

    @staticmethod
    def _check(state, offers, k):
        keys = state.keys
        assert np.array_equal(keys, np.sort(keys, axis=1))
        for row in range(state.n):
            real = keys[row][keys[row] < INF_KEY]
            ids = real & ID_MASK
            assert np.unique(ids).size == ids.size
            model = np.full(k, EMPTY_KEY, dtype=np.int64)
            best = np.sort(np.fromiter(offers[row].values(), np.int64,
                                       len(offers[row])))[:k]
            model[: best.size] = best
            assert np.array_equal(keys[row], model), f"row {row}"

    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(12, 40))
    @settings(max_examples=15, deadline=None)
    def test_rows_are_sorted_model_top_k(self, seed, k, n):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 3, (n, 2)).astype(np.float32)
        sq = lambda r, c: float(((x[r] - x[c]) ** 2).sum())  # noqa: E731
        ops = []
        for _ in range(4):
            ops.append(("leaf", rng.choice(n, size=min(n, 9), replace=False)))
            ops.append(("pairs", rng.integers(0, n, 30), rng.integers(0, n, 30)))
        for name in ("atomic", "baseline", "tiled"):
            strat = get_strategy(name)
            state = KnnState(n, k)
            offers = [dict() for _ in range(n)]
            for op in ops:
                if op[0] == "leaf":
                    strat.update_leaf(state, x, op[1])
                    pairs = [(r, c) for r in op[1] for c in op[1] if r != c]
                else:
                    strat.update_pairs(state, x, op[1], op[2])
                    pairs = [(r, c) for r, c in zip(op[1], op[2]) if r != c]
                    if strat.pair_mode == "unordered":
                        pairs += [(c, r) for r, c in pairs]
                for r, c in pairs:
                    offers[r][int(c)] = int(pack_keys([c], [sq(r, c)])[0])
                self._check(state, offers, k)


class TestRecallProperties:
    @given(hnp.arrays(np.int32, st.tuples(st.integers(1, 10), st.integers(1, 8)),
                      elements=st.integers(0, 50)))
    def test_self_recall_is_one(self, ids):
        # rows may contain duplicates; dedupe them to form a valid id matrix
        clean = np.sort(ids, axis=1)
        ok = np.ones(len(clean), dtype=bool)
        for r, row in enumerate(clean):
            ok[r] = len(np.unique(row)) == row.size
        clean = clean[ok]
        if clean.size:
            assert knn_recall(clean, clean) == 1.0

    @given(st.integers(0, 1000))
    def test_recall_bounds(self, seed):
        rng = np.random.default_rng(seed)
        a = np.array([rng.permutation(100)[:6] for _ in range(8)])
        b = np.array([rng.permutation(100)[:6] for _ in range(8)])
        r = per_point_recall(a, b)
        assert ((0 <= r) & (r <= 1)).all()
