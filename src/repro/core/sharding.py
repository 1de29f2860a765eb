"""Process-parallel (sharded) execution of the leaf phase, and the
contiguous partition the serving cluster shards by.

The fork-shard recipe of the query path
(:func:`repro.utils.parallel.map_forked`), applied to the leaf all-pairs
build phase: the serially-enumerated list of padded leaf batches (all
trees, tree order) is split into contiguous shards; each forked worker
replays its shard through the caller's strategy kernel (inherited
through fork, with fresh counters) into a private empty
:class:`~repro.kernels.knn_state.KnnState`, then the per-worker lists
are combined row-range-parallel in **fixed shard order**: concatenate
their sorted key rows, drop repeated ids, sort, keep ``k``.  When one
neighbour id is offered by several shards, the earliest shard's distance
survives, exactly like the serial "first offer wins" membership filter.

The vectorised build runs its leaf phase through it at every ``n_jobs``:
with one shard the worker runs inline and its lists are the result, so
there is no merge.  Either way the phase is reported as one
``leaf_allpairs`` kernel dispatch.  The refine rounds are row-sharded by
:func:`repro.core.refine.refine_round`, which every caller shares.  See
``docs/parallel.md`` for why any ``n_jobs`` gives the same bytes.
"""

from __future__ import annotations

import copy
import time
from typing import Any

import numpy as np

from repro.kernels.counters import OpCounters
from repro.kernels.knn_state import EMPTY_KEY, ID_MASK, INF_KEY, KnnState
from repro.kernels.strategy import Strategy
from repro.utils.parallel import map_forked, shard_ranges

__all__ = ["run_leaf_phase_sharded", "shard_partition"]


def shard_partition(n: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous near-even ``[lo, hi)`` point ranges for index shards.

    The serving cluster's partition discipline (see
    :mod:`repro.serve.cluster`): shard ``s`` indexes rows ``[lo_s, hi_s)``
    of the dataset.  Contiguity is load-bearing - it makes shard ``s``'s
    local->global id map the monotone ``global = local + lo_s``, so each
    shard's packed ``(dist, local_id)`` result ordering is already the
    global ``(dist, global_id)`` ordering restricted to that shard, and
    the router's packed-key merge reproduces the flat index's results
    bitwise.  Requires at least one point per shard.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n < n_shards:
        raise ValueError(
            f"cannot partition {n} points into {n_shards} non-empty shards"
        )
    return shard_ranges(n, n_shards)


# -- leaf phase -----------------------------------------------------------------


def _leaf_build_worker(shared: tuple, lo: int, hi: int) -> tuple:
    """Replay leaf batches ``[lo, hi)`` into a private empty state."""
    x, batches, strategy, n, k, dedupe = shared
    t0 = time.perf_counter()
    # the parent reports the dispatch and owns the counters
    strat = copy.copy(strategy)
    strat.reset_counters()
    strat.obs = None
    local = KnnState(n, k)
    for mat, lengths in batches[lo:hi]:
        strat.update_leaf_batch(local, x, mat, lengths, dedupe=dedupe)
    return local.keys, strat.counters.as_dict(), time.perf_counter() - t0


def _leaf_merge_worker(shared: tuple, lo: int, hi: int) -> tuple:
    """Combine the per-worker lists for rows ``[lo, hi)`` (sort, keep k).

    A neighbour id may appear in several workers' lists for the same row
    (trees overlap); only the **earliest shard's** occurrence is kept -
    the serial build's membership filter drops every later re-offer of an
    id already present, so first-offer-wins is what matches it.
    """
    keys_list, k = shared
    t0 = time.perf_counter()
    cand = np.concatenate([w[lo:hi] for w in keys_list], axis=1)
    # stable sort by id: among equal ids the earliest shard sorts first
    # (empty keys share one id pattern; dropping their repeats is harmless)
    cand_ids = cand & ID_MASK
    order = np.argsort(cand_ids, axis=1, kind="stable")
    sorted_i = np.take_along_axis(cand_ids, order, axis=1)
    dup_sorted = np.zeros_like(sorted_i, dtype=bool)
    dup_sorted[:, 1:] = sorted_i[:, 1:] == sorted_i[:, :-1]
    dup = np.zeros_like(dup_sorted)
    np.put_along_axis(dup, order, dup_sorted, axis=1)
    cand[dup] = EMPTY_KEY
    merged = np.sort(cand, axis=1)[:, :k]
    inserted = int((merged < INF_KEY).sum())
    return merged, inserted, time.perf_counter() - t0


def run_leaf_phase_sharded(
    state: KnnState,
    x: np.ndarray,
    batches: list,
    strategy: Strategy,
    n_jobs: int,
    *,
    dedupe: bool = False,
) -> dict[str, Any]:
    """Run the leaf all-pairs phase sharded across forked workers.

    ``batches`` is the full serial-order list of padded ``(mat, lengths)``
    leaf batches (all trees).  Mutates ``state`` to the merged result,
    accumulates worker counters into ``strategy.counters``, and returns a
    summary dict (shard count, per-shard wall seconds, merge seconds).
    """
    n, k = state.n, state.k
    shards = shard_ranges(len(batches), n_jobs)
    kernel = f"leaf_allpairs/{strategy.name}"
    t0 = strategy._dispatch_begin(kernel, shards=len(shards), batches=len(batches))
    results = map_forked(
        _leaf_build_worker,
        (x, batches, strategy, n, k, dedupe),
        shards,
        n_jobs,
    )
    for result in results:
        strategy.counters.add(OpCounters(**result[1]))
    shard_seconds = [float(result[2]) for result in results]
    m0 = time.perf_counter()
    if len(results) == 1:
        state.keys[...] = results[0][0]
        inserted = int(state.filled_counts().sum())
    else:
        keys_list = [result[0] for result in results]
        inserted = 0
        row_shards = shard_ranges(n, n_jobs)
        merged = map_forked(_leaf_merge_worker, (keys_list, k), row_shards, n_jobs)
        for (lo, hi), (mkeys, ins, _sec) in zip(row_shards, merged):
            state.keys[lo:hi] = mkeys
            inserted += int(ins)
    merge_seconds = time.perf_counter() - m0
    strategy._dispatch_end(t0, kernel, inserted, shards=len(shards))
    return {
        "shards": len(shards),
        "shard_seconds": shard_seconds,
        "merge_seconds": float(merge_seconds),
        "inserted": int(inserted),
    }
