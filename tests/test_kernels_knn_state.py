"""Tests for the global-memory k-NN list structure and its key codec."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.kernels import get_strategy
from repro.kernels.knn_state import (
    EMPTY_ID,
    EMPTY_KEY,
    ID_CAPACITY,
    ID_MASK,
    KnnState,
    pack_keys,
    unpack_keys,
)

STRATEGIES = ("atomic", "baseline", "tiled")


def keys_of(ids, dists):
    return pack_keys(np.asarray(ids), np.asarray(dists, dtype=np.float32))


class TestConstruction:
    def test_initial_state(self):
        s = KnnState(4, 3)
        assert (s.ids == EMPTY_ID).all()
        assert np.isinf(s.dists).all()
        assert (s.keys == EMPTY_KEY).all()

    def test_invalid_sizes(self):
        with pytest.raises(ConfigurationError):
            KnnState(0, 3)
        with pytest.raises(ConfigurationError):
            KnnState(3, 0)

    def test_id_capacity_fails_before_allocating(self):
        # (1 << 31) x 1 int64 keys would be 16 GB: the check must come first
        with pytest.raises(ConfigurationError, match="at most"):
            KnnState(1 << 31, 1)
        assert ID_CAPACITY == 1 << 31

    def test_dtypes(self):
        s = KnnState(2, 2)
        assert s.ids.dtype == np.int32 and s.dists.dtype == np.float32
        assert s.keys.dtype == np.int64

    def test_decoded_views_are_read_only(self):
        s = KnnState.from_lists([[3, 1]], [[2.0, 1.0]])
        with pytest.raises(ValueError):
            s.ids[0, 0] = 9
        with pytest.raises(ValueError):
            s.dists[0, 0] = 0.0

    def test_from_lists_sorts_rows(self):
        s = KnnState.from_lists([[5, 6, EMPTY_ID, 7]], [[3.0, 1.0, np.inf, 1.0]])
        assert s.ids[0].tolist() == [6, 7, 5, EMPTY_ID]
        assert np.array_equal(s.keys, np.sort(s.keys, axis=1))


class TestCodec:
    def test_round_trip(self):
        ids = np.array([[0, 7, EMPTY_ID]])
        dists = np.array([[0.0, 2.5, np.inf]], dtype=np.float32)
        got_i, got_d = unpack_keys(pack_keys(ids, dists))
        assert got_i.tolist() == [[0, 7, EMPTY_ID]]
        assert got_d.tolist() == [[0.0, 2.5, np.inf]]

    def test_keeps_input_shape(self):
        assert pack_keys(3, 1.0).shape == ()
        strided = np.arange(8, dtype=np.float32)[::2]
        assert np.array_equal(unpack_keys(pack_keys(np.arange(4), strided))[1], strided)

    def test_orders_by_dist_then_id(self):
        keys = keys_of([9, 2, 4, EMPTY_ID], [1.0, 1.0, 0.5, 0.0])
        assert np.argsort(keys).tolist() == [2, 1, 0, 3]

    def test_empty_key_never_reads_as_id_zero(self):
        assert (EMPTY_KEY & ID_MASK) != 0
        assert (EMPTY_KEY & ID_MASK) == ID_CAPACITY - 1


class TestQueries:
    def test_filled_counts(self):
        s = KnnState.from_lists([[4, EMPTY_ID, EMPTY_ID], [EMPTY_ID] * 3],
                                [[1.0, np.inf, np.inf], [np.inf] * 3])
        assert s.filled_counts().tolist() == [1, 0]

    def test_sorted_arrays(self):
        s = KnnState.from_lists([[5, 6, 7]], [[3.0, 1.0, 2.0]])
        ids, dists = s.sorted_arrays()
        assert ids[0].tolist() == [6, 7, 5]
        assert dists[0].tolist() == [1.0, 2.0, 3.0]


class TestInsertFilter:
    """The filter every strategy shares, exercised through Strategy.insert."""

    @staticmethod
    def offer(name, state, row, cols, dists):
        rows = np.full(len(cols), row, dtype=np.int64)
        return get_strategy(name).insert(
            state, rows, np.asarray(cols, dtype=np.int64),
            np.asarray(dists, dtype=np.float32),
        )

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_membership(self, name):
        s = KnnState.from_lists([[7, 8, EMPTY_ID]], [[1.0, 2.0, np.inf]])
        # 8 is present: a better distance for it is still a re-offer
        assert self.offer(name, s, 0, [8], [0.5]) == 0
        assert self.offer(name, s, 0, [9], [0.5]) == 1
        assert s.ids[0].tolist() == [9, 7, 8]

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_strict_reject_at_worst_key(self, name):
        s = KnnState.from_lists([[3, 5]], [[1.0, 2.0]])
        before = s.keys.copy()
        # equal distance, larger id: the key equals neither and is larger
        assert self.offer(name, s, 0, [6], [2.0]) == 0
        assert self.offer(name, s, 0, [4], [2.5]) == 0
        assert np.array_equal(s.keys, before)

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_equal_distance_breaks_by_id(self, name):
        s = KnnState.from_lists([[3, 5]], [[1.0, 2.0]])
        assert self.offer(name, s, 0, [4], [2.0]) == 1
        assert s.ids[0].tolist() == [3, 4]
        assert self.offer(name, s, 0, [9], [2.0]) == 0
        assert s.ids[0].tolist() == [3, 4]

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_empty_slot_is_not_id_zero(self, name):
        s = KnnState(2, 3)
        assert self.offer(name, s, 1, [0], [4.0]) == 1
        assert s.ids[1].tolist() == [0, EMPTY_ID, EMPTY_ID]
        # and a real id 0 is found by the membership check
        assert self.offer(name, s, 1, [0], [1.0]) == 0


class TestMergeRows:
    def test_insert_into_empty(self):
        s = KnnState(2, 2)
        n = s.merge_rows(np.array([0]), keys_of([[3, 4]], [[2.0, 1.0]]))
        assert n == 2
        ids, dists = s.sorted_arrays()
        assert ids[0].tolist() == [4, 3]

    def test_keeps_k_smallest(self):
        s = KnnState.from_lists([[1, 2]], [[1.0, 2.0]])
        n = s.merge_rows(np.array([0]), keys_of([[3, 4]], [[0.5, 9.0]]))
        assert n == 1
        ids, dists = s.sorted_arrays()
        assert ids[0].tolist() == [3, 1]
        assert dists[0].tolist() == [0.5, 1.0]

    def test_inf_candidates_not_counted(self):
        s = KnnState(1, 2)
        n = s.merge_rows(np.array([0]), keys_of([[5, EMPTY_ID]], [[1.0, np.inf]]))
        assert n == 1

    def test_empty_rows_noop(self):
        s = KnnState(2, 2)
        assert s.merge_rows(np.empty(0, dtype=np.int64),
                            np.empty((0, 1), dtype=np.int64)) == 0

    def test_multiple_rows(self):
        s = KnnState(3, 2)
        rows = np.array([0, 2])
        s.merge_rows(rows, keys_of([[1, 2], [0, 1]], [[1.0, 2.0], [3.0, 4.0]]))
        assert s.filled_counts().tolist() == [2, 0, 2]

    def test_copy_independent(self):
        s = KnnState(1, 1)
        c = s.copy()
        s.merge_rows(np.array([0]), keys_of([[9]], [[1.0]]))
        assert c.ids[0, 0] == EMPTY_ID
