"""Neighbour-of-neighbour refinement: the NN-descent local join.

After the forest phase each point's list is good but imperfect: true
neighbour pairs that never co-located in any leaf are missing.  Refinement
exploits the transitivity of proximity with the **local join** of
NN-descent (Dong et al., WWW'11): for every point ``i``, the members of its
*general neighbourhood* ``B[i]`` (forward neighbours plus reverse
neighbours - points listing ``i``) are proposed **to each other** as
candidates.  Two points that share any common neighbour therefore meet,
which is a much stronger generator than forward-only two-hop walks.

Two standard optimisations keep rounds cheap:

* **new/old flags** - a pair is only joined if at least one endpoint
  entered its list since the previous round (``new x new`` and
  ``new x old`` pairs); converged regions stop generating work, which is
  what makes the iteration terminate;
* **sampling** - at most ``sample`` new and ``sample`` old entries per
  list (forward and reverse separately) participate per round, bounding
  the join to O(sample^2) pairs per point.

One round, :func:`refine_round`, serves every caller: the builder, the
:class:`~repro.core.mutable.MutableIndex` repair and the NN-descent
baseline.  The simt backend shares its candidate stage and inserts on
the device.  The round runs in two row-sharded stages over ``n_jobs``
forked workers, inline as one shard when ``n_jobs=1``:

* :func:`join_candidates` - the global inputs (new/old flags, sampling
  keys, reverse neighbourhoods) are drawn once in the parent, after which
  the join is row-local: each shard joins its row range into sorted,
  unique canonical pair keys ``lo * n + hi``, and the parent unites the
  shards with one more sort (none for a single shard);
* :func:`insert_candidates` - each shard takes those unique keys,
  computes one distance per pair with an endpoint in its rows and offers
  it to both endpoints.  All three maintenance disciplines are
  row-independent, so splitting the insert by row ranges is exact: any
  ``n_jobs`` gives the bitwise-identical lists.

The round therefore dedupes its pair keys once, by sorting
(:func:`repro.utils.arrays.sort_unique` says why not ``np.unique``).

Workers inherit the caller's :class:`~repro.kernels.strategy.Strategy`
through fork and count into fresh counters, which the parent accumulates.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from repro.kernels.counters import OpCounters
from repro.kernels.distance import sq_l2_pairs
from repro.kernels.knn_state import EMPTY_ID, KnnState
from repro.kernels.strategy import Strategy
from repro.utils.arrays import sort_unique
from repro.utils.parallel import map_forked, shard_ranges


@dataclass
class RefineState:
    """Cross-round bookkeeping for the local join.

    ``prev_ids`` snapshots the lists at the end of the previous round so the
    next round can derive the *new* flags (entries not present before).
    ``None`` means "everything is new" (the first round after the forest
    phase joins every entry).  ``candidates`` and ``insertions`` hold each
    round's joined pairs and list insertions.  ``shard_seconds`` collects,
    per round and row shard, the worker wall time of both stages.
    """

    prev_ids: np.ndarray | None = None
    rounds_run: int = 0
    candidates: list[int] = field(default_factory=list)
    insertions: list[int] = field(default_factory=list)
    shard_seconds: list[float] = field(default_factory=list)

    def record(self, candidates: int, inserted: int) -> None:
        """Close one round that joined ``candidates`` pairs."""
        self.rounds_run += 1
        self.candidates.append(candidates)
        self.insertions.append(inserted)


def _new_flags(state: KnnState, prev_ids: np.ndarray | None) -> np.ndarray:
    """Boolean (n, k): True where the entry was not in the row last round."""
    ids = state.ids
    valid = ids != EMPTY_ID
    if prev_ids is None:
        return valid
    # row-wise membership of ids in prev_ids via offset-encoded searchsorted
    n, k = ids.shape
    span = np.int64(2) ** 34
    offs = (np.arange(n, dtype=np.int64) * span)[:, None]
    prev_sorted = np.sort(prev_ids.astype(np.int64) + offs, axis=1).reshape(-1)
    flat = (ids.astype(np.int64) + offs).reshape(-1)
    pos = np.clip(np.searchsorted(prev_sorted, flat), 0, prev_sorted.size - 1)
    present = prev_sorted[pos] == flat
    return valid & ~present.reshape(n, k)


def sample_columns_with_keys(
    ids: np.ndarray,
    eligible: np.ndarray,
    sample: int,
    keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row sample of up to ``sample`` eligible entries (vectorised).

    Returns a padded ``(n, sample)`` id matrix and its validity mask.
    Sampling is by the given random ``keys`` (same shape as ``ids``):
    ineligible entries get pushed past the horizon, then the ``sample``
    smallest keys per row are kept.  Row-local, so the round can pre-draw
    the keys once and slice them per row shard.
    """
    n, k = ids.shape
    s = min(sample, k)
    keys = keys.copy()
    keys[~eligible] = 2.0  # beyond any real key
    take = np.argsort(keys, axis=1)[:, :s]
    out = np.take_along_axis(ids, take, axis=1).astype(np.int64)
    ok = np.take_along_axis(eligible, take, axis=1)
    out[~ok] = EMPTY_ID
    return out, ok


def _reverse_lists(
    state: KnnState,
    flags_new: np.ndarray,
    sample: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled reverse neighbourhoods, split by the forward entry's flag.

    Returns two padded ``(n, sample)`` matrices: reverse-new and
    reverse-old (``EMPTY_ID`` padding).  An edge ``i -> j`` contributes
    ``i`` to ``j``'s reverse list, carrying the *forward* entry's new/old
    flag, as in the reference NN-descent.
    """
    ids = state.ids
    n, k = ids.shape
    valid = ids != EMPTY_ID
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = ids.reshape(-1).astype(np.int64)
    is_new = flags_new.reshape(-1)
    keep = valid.reshape(-1)
    src, dst, is_new = src[keep], dst[keep], is_new[keep]

    out = []
    for select in (is_new, ~is_new):
        s_src, s_dst = src[select], dst[select]
        # random order within each destination group, then take first `sample`
        order = np.lexsort((rng.random(s_dst.shape[0]), s_dst))
        s_src, s_dst = s_src[order], s_dst[order]
        first = np.searchsorted(s_dst, np.arange(n))
        last = np.searchsorted(s_dst, np.arange(n), side="right")
        counts = np.minimum(last - first, sample)
        mat = np.full((n, sample), EMPTY_ID, dtype=np.int64)
        rows_with = np.flatnonzero(counts > 0)
        if rows_with.size:
            pos = first[rows_with, None] + np.arange(sample)[None, :]
            ok = np.arange(sample)[None, :] < counts[rows_with, None]
            pos = np.where(ok, pos, 0)
            mat[rows_with] = np.where(ok, s_src[pos], EMPTY_ID)
        out.append(mat)
    return out[0], out[1]


def _candidates_worker(shared: tuple, lo: int, hi: int) -> tuple:
    """Local join for rows ``[lo, hi)``: sorted unique canonical pair keys."""
    ids, flags, keys_new, keys_old, rev_new, rev_old, sample, n = shared
    t0 = time.perf_counter()
    ids_s = ids[lo:hi]
    flags_s = flags[lo:hi]
    valid = ids_s != EMPTY_ID
    fwd_new, _ = sample_columns_with_keys(ids_s, flags_s, sample, keys_new[lo:hi])
    fwd_old, _ = sample_columns_with_keys(
        ids_s, valid & ~flags_s, sample, keys_old[lo:hi]
    )
    # join: every new member meets every member (both directions), as
    # canonical (lo, hi) keys - an unordered pair is one key until the
    # insert stage offers it to both endpoints
    b_new = np.concatenate([fwd_new, rev_new[lo:hi]], axis=1)
    b_all = np.concatenate(
        [fwd_new, rev_new[lo:hi], fwd_old, rev_old[lo:hi]], axis=1
    )
    shape = (hi - lo, b_new.shape[1], b_all.shape[1])
    a = np.broadcast_to(b_new[:, :, None], shape).reshape(-1)
    b = np.broadcast_to(b_all[:, None, :], shape).reshape(-1)
    ok = (a != EMPTY_ID) & (b != EMPTY_ID) & (a != b)
    a, b = a[ok], b[ok]
    keys = np.minimum(a, b) * np.int64(n) + np.maximum(a, b)
    return sort_unique(keys), time.perf_counter() - t0


def join_candidates(
    state: KnnState,
    refine_state: RefineState,
    rng: np.random.Generator,
    sample: int,
    *,
    n_jobs: int = 1,
) -> tuple[np.ndarray, list[float]]:
    """Candidate stage: one round's deduplicated local-join pairs.

    Consumes the round RNG in a fixed order (forward-new keys, forward-old
    keys, then the two reverse-list draws) and snapshots the joined lists
    into ``refine_state.prev_ids`` for the next round's new flags.
    Returns ``(pairs, shard_seconds)``: every unordered pair once, as the
    sorted canonical keys ``lo * n + hi`` with ``lo < hi`` (expand them
    with :func:`pair_directions`), plus each row shard's wall time.
    """
    ids = state.ids
    n, k = ids.shape
    flags = _new_flags(state, refine_state.prev_ids)
    keys_new = rng.random((n, k))
    keys_old = rng.random((n, k))
    rev_new, rev_old = _reverse_lists(state, flags, sample, rng)
    parts = map_forked(
        _candidates_worker,
        (ids, flags, keys_new, keys_old, rev_new, rev_old, sample, n),
        shard_ranges(n, max(1, n_jobs)),
        n_jobs,
    )
    refine_state.prev_ids = ids
    # each shard's keys are already sorted and unique
    keys = [part[0] for part in parts]
    pairs = keys[0] if len(keys) == 1 else sort_unique(np.concatenate(keys))
    return pairs, [float(part[1]) for part in parts]


def pair_directions(pairs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)``: the canonical pair keys in both directions.

    ``rows = [lo, hi]`` and ``cols = [hi, lo]``, the order in which the
    insert stage offers them.
    """
    lo, hi = np.divmod(pairs, n)
    return np.concatenate([lo, hi]), np.concatenate([hi, lo])


def _insert_worker(shared: tuple, lo: int, hi: int) -> tuple:
    """Distances + insertion for the candidates targeting rows ``[lo, hi)``.

    Running the row-independent maintenance discipline on a row slice with
    the row's full (order-preserved) candidate sequence is exactly the
    one-shard computation for those rows.  Each pair with an endpoint in
    the shard gets one distance, offered to both endpoints
    (``(a-b)**2 == (b-a)**2`` holds bitwise in IEEE arithmetic).
    """
    keys, x, a, b, strategy = shared
    t0 = time.perf_counter()
    a_in = (a >= lo) & (a < hi)
    b_in = (b >= lo) & (b < hi)
    touch = a_in | b_in
    a, b, a_in, b_in = a[touch], b[touch], a_in[touch], b_in[touch]
    d = sq_l2_pairs(x, a, b)
    sub = KnnState.from_keys(keys[lo:hi])
    strat = copy.copy(strategy)
    strat.reset_counters()
    strat.counters.distance_evals += int(a.size)
    inserted = strat.insert(
        sub,
        np.concatenate([a[a_in], b[b_in]]) - lo,
        np.concatenate([b[a_in], a[b_in]]),
        np.concatenate([d[a_in], d[b_in]]),
    )
    return (
        sub.keys,
        inserted,
        strat.counters.as_dict(),
        time.perf_counter() - t0,
    )


def insert_candidates(
    state: KnnState,
    x: np.ndarray,
    strategy: Strategy,
    pairs: np.ndarray,
    *,
    n_jobs: int = 1,
) -> tuple[int, list[float]]:
    """Insert stage: offer :func:`join_candidates`' ``pairs`` through
    ``strategy`` in both directions, row-sharded.

    Worker counters are accumulated into ``strategy.counters``.  Returns
    ``(inserted, shard_seconds)``.
    """
    if pairs.size == 0:
        return 0, []
    n = state.n
    shards = shard_ranges(n, max(1, n_jobs))
    kernel = f"refine_pairs/{strategy.name}"
    t0 = strategy._dispatch_begin(kernel, pairs=2 * int(pairs.size))
    a, b = np.divmod(pairs, n)
    parts = map_forked(
        _insert_worker,
        (state.keys, x, a, b, strategy),
        shards,
        n_jobs,
    )
    inserted = 0
    for (lo, hi), part in zip(shards, parts):
        state.keys[lo:hi] = part[0]
        inserted += int(part[1])
        strategy.counters.add(OpCounters(**part[2]))
    strategy._dispatch_end(t0, kernel, inserted, pairs=2 * int(pairs.size))
    return inserted, [float(part[3]) for part in parts]


def refine_round(
    state: KnnState,
    x: np.ndarray,
    strategy: Strategy,
    rng: np.random.Generator,
    sample: int,
    refine_state: RefineState | None = None,
    *,
    n_jobs: int = 1,
) -> int:
    """Run one local-join round; returns the number of list insertions.

    Passing the same :class:`RefineState` across rounds enables the
    new/old-flag optimisation; without it every round joins everything
    (correct, just more work).  A return of 0 means the round converged.
    ``n_jobs`` row-shards both stages across forked workers; the result
    does not depend on it.
    """
    rs = refine_state if refine_state is not None else RefineState()
    pairs, gen_seconds = join_candidates(state, rs, rng, sample, n_jobs=n_jobs)
    inserted, insert_seconds = insert_candidates(
        state, x, strategy, pairs, n_jobs=n_jobs
    )
    rs.shard_seconds.extend(
        g + i for g, i in zip(gen_seconds, insert_seconds or [0.0] * len(gen_seconds))
    )
    rs.record(2 * int(pairs.size), inserted)
    return inserted
