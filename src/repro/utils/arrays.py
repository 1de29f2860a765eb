"""Small array utilities used across kernels, baselines and the harness.

Everything here is NumPy-vectorised; these helpers exist so hot loops in the
kernels stay readable without re-deriving the same index gymnastics.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


def blockwise_ranges(total: int, block: int) -> Iterator[tuple[int, int]]:
    """Yield ``(start, stop)`` ranges covering ``[0, total)`` in ``block`` steps.

    The final range may be shorter.  ``block`` must be positive.
    """
    if block <= 0:
        raise ValueError(f"block must be positive, got {block}")
    for start in range(0, total, block):
        yield start, min(start + block, total)


def pad_to_length(values: np.ndarray, length: int, fill) -> np.ndarray:
    """Right-pad a 1-D array to ``length`` with ``fill`` (no-op if long enough)."""
    if values.shape[0] >= length:
        return values
    out = np.full(length, fill, dtype=values.dtype)
    out[: values.shape[0]] = values
    return out


def row_topk(dists: np.ndarray, ids: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Select the ``k`` smallest entries of each row, sorted ascending.

    Parameters
    ----------
    dists, ids:
        ``(n_rows, m)`` matrices of candidate distances and their ids.
        Invalid candidates should carry ``+inf`` distance (they sort last).
    k:
        Number of entries to keep per row; must satisfy ``k <= m``.

    Returns
    -------
    (top_dists, top_ids):
        ``(n_rows, k)`` arrays, each row sorted by ascending distance.

    Notes
    -----
    Uses :func:`numpy.argpartition` (linear-time selection) followed by a
    sort of only ``k`` elements per row - the same two-phase select-then-sort
    the warp-centric kernels perform with bitonic networks.
    """
    m = dists.shape[1]
    if k > m:
        raise ValueError(f"k={k} exceeds the number of candidates m={m}")
    if k == m:
        part = np.argsort(dists, axis=1, kind="stable")
        rows = np.arange(dists.shape[0])[:, None]
        return dists[rows, part], ids[rows, part]
    part = np.argpartition(dists, k - 1, axis=1)[:, :k]
    rows = np.arange(dists.shape[0])[:, None]
    pd = dists[rows, part]
    pi = ids[rows, part]
    order = np.argsort(pd, axis=1, kind="stable")
    return (
        np.take_along_axis(pd, order, axis=1),
        np.take_along_axis(pi, order, axis=1),
    )


def run_heads(sorted_keys: np.ndarray) -> np.ndarray:
    """Neighbour mask of a *sorted* 1-D array: True at the first key of each run."""
    head = np.empty(sorted_keys.shape[0], dtype=bool)
    head[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
    return head


def segment_lengths(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run-length encode a *sorted* key array.

    Returns ``(unique_keys, starts, counts)`` such that segment ``i`` spans
    ``sorted_keys[starts[i] : starts[i] + counts[i]]`` and contains only
    ``unique_keys[i]``.
    """
    if sorted_keys.ndim != 1:
        raise ValueError("segment_lengths expects a 1-D key array")
    starts = np.flatnonzero(run_heads(sorted_keys))
    counts = np.diff(starts, append=sorted_keys.shape[0])
    return sorted_keys[starts], starts, counts


def sort_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` of a 1-D array, by a sort and a neighbour mask.

    The build path dedupes with this, not ``np.unique``: NumPy >= 2.3
    answers a plain integer ``np.unique`` from a hash table, which on the
    refine round's pair keys is over ten times slower than sorting.
    """
    s = np.sort(keys)
    return s[run_heads(s)]


def first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Index of each distinct key's first occurrence, in ascending key order.

    Equal to ``np.unique(keys, return_index=True)[1]``.
    """
    order = np.argsort(keys, kind="stable")
    return order[run_heads(keys[order])]


def dedupe_per_row(ids: np.ndarray, invalid: int = -1) -> np.ndarray:
    """Mask duplicate ids within each row, replacing repeats with ``invalid``.

    Keeps the first occurrence (in the row's left-to-right order).  Used to
    avoid wasting distance computations on candidates proposed by several
    trees.  Rows are processed fully vectorised via a sort/compare/unsort
    round trip.
    """
    n, m = ids.shape
    order = np.argsort(ids, axis=1, kind="stable")
    sorted_ids = np.take_along_axis(ids, order, axis=1)
    dup = np.zeros_like(sorted_ids, dtype=bool)
    dup[:, 1:] = sorted_ids[:, 1:] == sorted_ids[:, :-1]
    # Scatter the duplicate flags back to the original column positions.
    flat_rows = np.repeat(np.arange(n), m)
    out = ids.copy()
    out_flat_mask = np.zeros((n, m), dtype=bool)
    out_flat_mask[flat_rows, order.ravel()] = dup.ravel()
    out[out_flat_mask] = invalid
    return out
