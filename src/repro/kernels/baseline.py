"""w-KNNG **baseline** strategy: per-point lock + warp scan-and-replace.

The straightforward warp-centric discipline (the paper's unnamed third
variant, which the named ones improve on): to insert a candidate into point
``i``'s global-memory list, the warp

1. acquires a per-point spinlock,
2. scans the ``k`` slots to find the current maximum (a warp-parallel scan
   plus reduction),
3. replaces the maximum if the candidate beats it,
4. releases the lock.

The lock serialises all updates that touch the same point, so the cost is
proportional to the *total number of candidates per point*, with no overlap.
The vectorised analogue merges each row's candidate group one at a time
(a Python-level loop over rows - deliberately serial per point) and counts
one ``lock_acquisition`` per row-group.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.knn_state import KnnState
from repro.kernels.strategy import Strategy, register_strategy
from repro.utils.arrays import segment_lengths


@register_strategy
class BaselineStrategy(Strategy):
    """Lock-based linear-scan maintenance (see module docstring)."""

    name = "baseline"
    distance_method = "direct"
    pair_mode = "unordered"

    def obs_attrs(self) -> dict:
        """Dispatch payload: the baseline discipline is a per-point lock."""
        return {**super().obs_attrs(), "discipline": "lock"}

    def _insert(self, state: KnnState, rows: np.ndarray, keys: np.ndarray) -> int:
        order = np.argsort(rows, kind="stable")
        srows = rows[order]
        skeys = keys[order]
        urows, starts, counts = segment_lengths(srows)
        self.counters.lock_acquisitions += int(urows.size)
        inserted = 0
        for i, (start, count) in enumerate(zip(starts, counts)):
            # -- lock held: serial merge into this point's list ----------
            inserted += state.merge_rows(
                urows[i : i + 1], skeys[None, start : start + count]
            )
        return inserted
