"""w-KNNG **atomic** strategy: lock-free packed compare-and-swap insertion.

The paper's *w-KNNG atomic* variant maintains each point's list with 64-bit
words packing ``(float32 distance << 32) | id`` (see
:func:`repro.simt.atomics.pack_dist_id`).  To insert a candidate the warp

1. scans the ``k`` packed words and finds the maximum (warp reduction),
2. quick-rejects if the candidate does not beat it,
3. attempts an ``atomicCAS`` on the maximum slot;
4. on contention (another warp replaced the slot first) the attempt
   replays from step 1.

No lock is held, so insertion latency is one CAS in the uncontended case -
which is why the strategy wins when distance computation is cheap (low
dimensionality) and insertion dominates.  Contention grows with K and with
candidate pressure, which is what degrades it.

The vectorised analogue performs synchronous *passes* over the whole
candidate batch on the same packed keys (:func:`repro.kernels.knn_state.pack_keys`,
whose order is the ``(dist, id)`` order of the device word): every
still-pending candidate re-checks the row maximum ("one CAS attempt",
counted in ``atomic_attempts``); exactly one candidate per row wins each
pass, the rest replay (counted in ``atomic_retries``).  A CAS replaces a
slot in place, so the touched rows are re-sorted when the window drains,
keeping :class:`~repro.kernels.knn_state.KnnState` rows canonical.  The
final lists are identical to the k smallest of the offered union, as on
hardware.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.knn_state import KnnState
from repro.kernels.strategy import Strategy, register_strategy
from repro.utils.arrays import run_heads, segment_lengths


#: candidates modelled as concurrently in flight (resident warps on the
#: device); contention retries only arise within a window of this size
DEFAULT_CONCURRENCY = 4096


@register_strategy
class AtomicStrategy(Strategy):
    """Lock-free CAS-based maintenance (see module docstring).

    Parameters
    ----------
    concurrency:
        How many candidates are treated as simultaneously in flight when
        emulating contention.  A real device has a bounded number of
        resident warps, so a candidate only races with its contemporaries;
        processing the batch in windows of this size keeps the retry
        accounting realistic instead of worst-case.
    """

    name = "atomic"
    distance_method = "direct"
    pair_mode = "unordered"

    def __init__(self, concurrency: int = DEFAULT_CONCURRENCY) -> None:
        super().__init__()
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        self.concurrency = int(concurrency)

    def obs_attrs(self) -> dict:
        """Dispatch payload: CAS discipline plus the contention window."""
        return {**super().obs_attrs(), "discipline": "cas",
                "concurrency": self.concurrency}

    def _insert(self, state: KnnState, rows: np.ndarray, keys: np.ndarray) -> int:
        inserted = 0
        for s in range(0, rows.shape[0], self.concurrency):
            e = s + self.concurrency
            inserted += self._insert_window(state, rows[s:e], keys[s:e])
        return inserted

    def _insert_window(self, state: KnnState, rows: np.ndarray, keys: np.ndarray) -> int:
        # row-sort once so per-pass bookkeeping is per *row*, not per candidate
        order = np.argsort(rows, kind="stable")
        srows = rows[order]
        skeys = keys[order]
        urows, _, counts = segment_lengths(srows)
        row_code = np.repeat(np.arange(urows.size), counts)  # candidate -> dense row
        kmat = state.keys[urows]  # the touched rows; CAS passes write here
        inserted = 0
        pending = np.arange(srows.shape[0])
        pcodes = row_code
        while pending.size:
            # every pending candidate re-reads its row's current maximum
            # (one "scan + CAS attempt"); computed once per distinct row
            slot_per_row = kmat.argmax(axis=1)
            rmax_per_row = kmat[np.arange(urows.size), slot_per_row]
            alive = skeys[pending] < rmax_per_row[pcodes]
            pending = pending[alive]
            pcodes = pcodes[alive]
            if pending.size == 0:
                break
            # exactly one winner per row per pass: the first pending
            # occurrence (candidates are row-sorted, so each run's head is
            # the earliest arrival - "lane order")
            first = np.flatnonzero(run_heads(pcodes))
            winners = pending[first]
            wcodes = pcodes[first]
            kmat[wcodes, slot_per_row[wcodes]] = skeys[winners]
            inserted += int(winners.size)
            # one CAS per acceptance: each source warp drives its candidates
            # sequentially, so an accepted candidate CASes exactly once.
            # `atomic_retries` records the *worst-case simultaneity* replay
            # volume (every contemporary in-window candidate racing at once);
            # it is reported as a contention upper bound but NOT charged by
            # the cost model, where cross-warp races are second-order.
            self.counters.atomic_attempts += int(winners.size)
            self.counters.atomic_retries += int(pending.size - winners.size)
            keep = np.ones(pending.size, dtype=bool)
            keep[first] = False
            pending = pending[keep]
            pcodes = pcodes[keep]
        state.keys[urows] = np.sort(kmat, axis=1)
        return inserted
