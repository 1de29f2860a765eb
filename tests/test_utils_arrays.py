"""Tests for repro.utils.arrays."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils.arrays import (
    blockwise_ranges,
    dedupe_per_row,
    first_occurrences,
    pad_to_length,
    row_topk,
    segment_lengths,
    sort_unique,
)

# int64 keys with frequent repeats and the packed-key extremes
int64_keys = hnp.arrays(
    np.int64,
    st.integers(0, 64),
    elements=st.sampled_from([-(2**62), -1, 0, 1, 2**62]) | st.integers(-(2**62), 2**62),
)


class TestBlockwiseRanges:
    def test_exact_multiple(self):
        assert list(blockwise_ranges(6, 2)) == [(0, 2), (2, 4), (4, 6)]

    def test_ragged_tail(self):
        assert list(blockwise_ranges(5, 2)) == [(0, 2), (2, 4), (4, 5)]

    def test_single_block(self):
        assert list(blockwise_ranges(3, 10)) == [(0, 3)]

    def test_empty(self):
        assert list(blockwise_ranges(0, 4)) == []

    def test_bad_block(self):
        with pytest.raises(ValueError):
            list(blockwise_ranges(5, 0))

    def test_covers_everything_once(self):
        seen = np.zeros(17, dtype=int)
        for s, e in blockwise_ranges(17, 5):
            seen[s:e] += 1
        assert (seen == 1).all()


class TestPadToLength:
    def test_pads(self):
        out = pad_to_length(np.array([1, 2]), 4, -1)
        assert out.tolist() == [1, 2, -1, -1]

    def test_noop_when_long_enough(self):
        arr = np.array([1, 2, 3])
        assert pad_to_length(arr, 3, 0) is arr

    def test_dtype_preserved(self):
        out = pad_to_length(np.array([1.5], dtype=np.float32), 2, np.inf)
        assert out.dtype == np.float32


class TestRowTopk:
    def test_selects_smallest_sorted(self):
        d = np.array([[3.0, 1.0, 2.0, 0.5]], dtype=np.float32)
        i = np.array([[30, 10, 20, 5]], dtype=np.int32)
        td, ti = row_topk(d, i, 2)
        assert td.tolist() == [[0.5, 1.0]]
        assert ti.tolist() == [[5, 10]]

    def test_k_equals_m(self):
        d = np.array([[2.0, 1.0]], dtype=np.float32)
        i = np.array([[2, 1]], dtype=np.int32)
        td, ti = row_topk(d, i, 2)
        assert td.tolist() == [[1.0, 2.0]] and ti.tolist() == [[1, 2]]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            row_topk(np.zeros((1, 2)), np.zeros((1, 2), dtype=int), 3)

    def test_inf_sorts_last(self):
        d = np.array([[np.inf, 1.0, np.inf]], dtype=np.float32)
        i = np.array([[0, 1, 2]], dtype=np.int32)
        td, ti = row_topk(d, i, 2)
        assert ti[0, 0] == 1

    def test_matches_full_sort_random(self):
        rng = np.random.default_rng(0)
        d = rng.random((20, 15)).astype(np.float32)
        i = np.broadcast_to(np.arange(15, dtype=np.int32), d.shape).copy()
        td, ti = row_topk(d, i, 6)
        ref = np.sort(d, axis=1)[:, :6]
        assert np.allclose(td, ref)


class TestSegmentLengths:
    def test_basic(self):
        keys = np.array([0, 0, 2, 2, 2, 5])
        u, s, c = segment_lengths(keys)
        assert u.tolist() == [0, 2, 5]
        assert s.tolist() == [0, 2, 5]
        assert c.tolist() == [2, 3, 1]

    def test_single_segment(self):
        u, s, c = segment_lengths(np.array([7, 7, 7]))
        assert u.tolist() == [7] and s.tolist() == [0] and c.tolist() == [3]

    def test_empty(self):
        u, s, c = segment_lengths(np.array([], dtype=np.int64))
        assert u.size == 0 and s.size == 0 and c.size == 0

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            segment_lengths(np.zeros((2, 2)))

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(1)
        keys = np.sort(rng.integers(0, 10, 100))
        _, _, c = segment_lengths(keys)
        assert c.sum() == 100


class TestSortUnique:
    """The sort-based dedupe must be ``np.unique``, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(int64_keys)
    @example(np.array([], dtype=np.int64))
    @example(np.array([2**62], dtype=np.int64))
    @example(np.full(7, -(2**62), dtype=np.int64))
    @example(np.array([2**62, -(2**62), 2**62, -(2**62)], dtype=np.int64))
    def test_matches_np_unique(self, keys):
        uniq, first = np.unique(keys, return_index=True)
        got = sort_unique(keys)
        assert got.dtype == uniq.dtype and np.array_equal(got, uniq)
        idx = first_occurrences(keys)
        assert np.array_equal(idx, first)
        assert np.array_equal(segment_lengths(np.sort(keys))[0], uniq)


class TestDedupePerRow:
    def test_keeps_first_occurrence(self):
        ids = np.array([[3, 1, 3, 2]])
        out = dedupe_per_row(ids)
        assert out.tolist() == [[3, 1, -1, 2]]

    def test_no_duplicates_unchanged(self):
        ids = np.array([[1, 2, 3], [4, 5, 6]])
        assert np.array_equal(dedupe_per_row(ids), ids)

    def test_rows_independent(self):
        ids = np.array([[1, 1], [1, 2]])
        out = dedupe_per_row(ids)
        assert out.tolist() == [[1, -1], [1, 2]]

    def test_custom_invalid_marker(self):
        ids = np.array([[5, 5]])
        out = dedupe_per_row(ids, invalid=-9)
        assert out.tolist() == [[5, -9]]

    def test_each_value_appears_once(self):
        rng = np.random.default_rng(2)
        ids = rng.integers(0, 8, (30, 20))
        out = dedupe_per_row(ids)
        for row in out:
            vals = row[row != -1]
            assert len(vals) == len(np.unique(vals))
