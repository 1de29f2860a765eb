"""Strategy interface + registry for the k-NN maintenance kernels.

A :class:`Strategy` turns batches of candidate point pairs into updates of a
:class:`~repro.kernels.knn_state.KnnState`.  The two entry points mirror the
two kernel launches of the paper's pipeline:

* :meth:`Strategy.update_leaf` - the RP-forest *leaf all-pairs* kernel:
  every pair of points inside one leaf is a candidate edge;
* :meth:`Strategy.update_pairs` - the *refinement* kernel: an explicit list
  of (point, candidate) pairs from neighbour-of-neighbour exploration.

Common pre-filtering (drop self-pairs, drop candidates already present in
the target list or not beating its worst key) lives here; subclasses
implement only ``_insert``, the maintenance discipline that distinguishes
the three strategies.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels.counters import OpCounters
from repro.kernels.distance import batched_self_sq_l2, sq_l2_pairs
from repro.kernels.knn_state import ID_MASK, KnnState, pack_keys
from repro.utils.arrays import first_occurrences, run_heads, sort_unique

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability


def _sanitize_enabled() -> bool:
    """True when ``WKNN_SANITIZE`` asks for sanitized execution."""
    from repro.simt.sanitizer import env_mode

    return env_mode() is not None


class Strategy(ABC):
    """Base class for the three w-KNNG k-NN set maintenance strategies."""

    #: registry key; subclasses set this
    name: str = "?"
    #: distance schedule this strategy uses for leaf all-pairs ("gemm"|"direct")
    distance_method: str = "direct"
    #: pair handling: "unordered" strategies compute each point pair once
    #: and insert into *both* endpoints' lists (safe because their
    #: synchronisation - lock or CAS - permits scattered concurrent writers);
    #: "directed" strategies compute both directions but each warp updates
    #: only its own row (the tiled design, which needs no cross-warp sync)
    pair_mode: str = "unordered"

    def __init__(self) -> None:
        self.counters = OpCounters()
        #: optional observability session; when attached (the builder does
        #: this), every entry-point call is reported as a kernel dispatch
        #: (``kernel_dispatch:before``/``:after`` hooks plus ``dispatch/``
        #: timing metrics)
        self.obs: "Observability | None" = None

    def obs_attrs(self) -> dict:
        """Strategy-specific attributes attached to dispatch hook payloads."""
        return {"pair_mode": self.pair_mode}

    def _dispatch_begin(self, kernel: str, **payload) -> float | None:
        obs = self.obs
        if obs is None:
            return None
        from repro.obs.hooks import Events

        obs.hooks.emit(Events.KERNEL_DISPATCH_BEFORE, kernel=kernel,
                       strategy=self.name, **self.obs_attrs(), **payload)
        return time.perf_counter()

    def _dispatch_end(self, t0: float | None, kernel: str, inserted: int,
                      **payload) -> None:
        obs = self.obs
        if obs is None or t0 is None:
            return
        from repro.obs.hooks import Events

        seconds = time.perf_counter() - t0
        obs.metrics.counter(f"dispatch/{kernel}/launches").inc()
        obs.metrics.histogram(f"dispatch/{kernel}/seconds").observe(seconds)
        obs.hooks.emit(Events.KERNEL_DISPATCH_AFTER, kernel=kernel,
                       strategy=self.name, seconds=seconds, inserted=inserted,
                       **self.obs_attrs(), **payload)

    # -- public entry points -----------------------------------------------

    def update_leaf(self, state: KnnState, x: np.ndarray, leaf_ids: np.ndarray) -> int:
        """Offer every ordered pair within one RP-forest leaf.

        Returns the number of candidates inserted.
        """
        leaf_ids = np.asarray(leaf_ids, dtype=np.int64)
        if leaf_ids.shape[0] < 2:
            return 0
        return self.update_leaf_batch(
            state, x, leaf_ids[None, :], np.array([leaf_ids.shape[0]], dtype=np.int64)
        )

    def update_leaf_batch(
        self,
        state: KnnState,
        x: np.ndarray,
        leaves: np.ndarray,
        lengths: np.ndarray,
        dedupe: bool = False,
    ) -> int:
        """Offer all within-leaf pairs for a *batch* of padded leaves.

        This is how the builder launches the leaf all-pairs kernel: many
        leaves of one tree at a time (a grid of blocks on the GPU; one
        batched distance tensor here).  Leaves in a batch must be mutually
        disjoint (true for leaves of a classic RP tree), so the batch
        contains no duplicate (row, col) pairs; for *spill* trees whose
        leaves overlap, pass ``dedupe=True`` and duplicates are removed
        after the (already spent) distance computation.

        Parameters
        ----------
        leaves:
            ``(b, m)`` int64 matrix of point ids, rows padded to the batch
            width with arbitrary valid ids (masked out by ``lengths``).
        lengths:
            ``(b,)`` true leaf sizes.
        dedupe:
            Remove duplicate (row, col) pairs before insertion (needed
            when leaves may overlap).

        Returns
        -------
        Number of candidates inserted.
        """
        leaves = np.asarray(leaves, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        b, m = leaves.shape
        t0 = self._dispatch_begin(
            f"leaf_allpairs/{self.name}", batch_leaves=int(b), batch_width=int(m)
        )
        pts = x[leaves]
        dmat = batched_self_sq_l2(pts, self.distance_method)
        in_leaf = np.arange(m)[None, :] < lengths[:, None]
        pair_valid = in_leaf[:, :, None] & in_leaf[:, None, :]
        if self.pair_mode == "unordered":
            # each unordered pair computed once, inserted into both rows
            triu = np.triu(np.ones((m, m), dtype=bool), k=1)
            pair_valid &= triu[None, :, :]
            self.counters.distance_evals += int(pair_valid.sum())
            i_side = np.broadcast_to(leaves[:, :, None], (b, m, m))[pair_valid]
            j_side = np.broadcast_to(leaves[:, None, :], (b, m, m))[pair_valid]
            d = dmat[pair_valid]
            rows = np.concatenate([i_side, j_side])
            cols = np.concatenate([j_side, i_side])
            dists = np.concatenate([d, d])
        else:
            diag = np.eye(m, dtype=bool)
            pair_valid &= ~diag[None, :, :]
            self.counters.distance_evals += int(pair_valid.sum())
            rows = np.broadcast_to(leaves[:, :, None], (b, m, m))[pair_valid]
            cols = np.broadcast_to(leaves[:, None, :], (b, m, m))[pair_valid]
            dists = dmat[pair_valid]
        if dedupe and rows.size:
            first = first_occurrences(rows * np.int64(state.n) + cols)
            rows, cols, dists = rows[first], cols[first], dists[first]
        inserted = self.insert(state, rows, cols, dists)
        self._dispatch_end(
            t0, f"leaf_allpairs/{self.name}", inserted,
            batch_leaves=int(b), candidates=int(rows.size),
        )
        return inserted

    def update_pairs(
        self, state: KnnState, x: np.ndarray, rows: np.ndarray, cols: np.ndarray
    ) -> int:
        """Offer an explicit candidate pair list (refinement phase).

        ``rows``/``cols`` must be per-row deduplicated by the caller (the
        builder guarantees this); self-pairs are tolerated and dropped.
        Returns the number of candidates inserted.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        keep = rows != cols
        rows, cols = rows[keep], cols[keep]
        if rows.size == 0:
            return 0
        t0 = self._dispatch_begin(
            f"refine_pairs/{self.name}", pairs=int(rows.size)
        )
        if self.pair_mode == "unordered":
            # canonicalise to unordered pairs: compute once, insert twice
            lo = np.minimum(rows, cols)
            hi = np.maximum(rows, cols)
            lo, hi = np.divmod(sort_unique(lo * np.int64(state.n) + hi), state.n)
            d = sq_l2_pairs(x, lo, hi)
            self.counters.distance_evals += int(lo.size)
            rows = np.concatenate([lo, hi])
            cols = np.concatenate([hi, lo])
            dists = np.concatenate([d, d])
        else:
            # dedupe directed pairs: a duplicated (row, col) in one batch
            # would enter the bulk merge twice and occupy two slots
            rows, cols = np.divmod(sort_unique(rows * np.int64(state.n) + cols), state.n)
            dists = sq_l2_pairs(x, rows, cols)
            self.counters.distance_evals += int(rows.size)
        inserted = self.insert(state, rows, cols, dists)
        self._dispatch_end(
            t0, f"refine_pairs/{self.name}", inserted, pairs=int(rows.size)
        )
        return inserted

    # -- shared filtering + dispatch ------------------------------------------

    def insert(
        self, state: KnnState, rows: np.ndarray, cols: np.ndarray, dists: np.ndarray
    ) -> int:
        """Filter candidates and hand the survivors to the strategy kernel.

        Filtering performs the two O(k) checks every warp variant does
        before attempting an insertion, on packed ``(dist, id)`` keys: the
        quick reject against the row's worst key (its last column, so ties
        break by id) and membership ("is j already in i's list?"), one
        gather of the surviving rows' keys.
        """
        if rows.size == 0:
            return 0
        self.counters.candidates_seen += int(rows.size)
        keys = pack_keys(cols, dists)
        keep = keys < state.keys[rows, -1]
        rows, cols, keys = rows[keep], cols[keep], keys[keep]
        keep = ~((state.keys[rows] & ID_MASK) == cols[:, None]).any(axis=1)
        rows, cols, keys = rows[keep], cols[keep], keys[keep]
        if rows.size == 0:
            return 0
        self.counters.candidates_offered += int(rows.size)
        if _sanitize_enabled():
            self._check_batch_unique(state, rows, cols)
        inserted = self._insert(state, rows, keys)
        self.counters.candidates_inserted += inserted
        return inserted

    @staticmethod
    def _check_batch_unique(state: KnnState, rows: np.ndarray, cols: np.ndarray) -> None:
        """Host-side wksan analogue of the duplicate-scatter detector.

        ``_insert`` implementations use NumPy fancy assignment, which
        silently applies last-write-wins when the same ``(row, col)`` pair
        appears twice in a batch - the vectorised twin of two CUDA lanes
        scattering to one address.  Under ``WKNN_SANITIZE`` a duplicate is
        an error rather than silent double occupancy.
        """
        if rows.size == 0:
            return
        # cols are global ids, not bounded by a row slice's state.n
        key = np.sort((rows.astype(np.int64) << 32) | cols)
        repeat = ~run_heads(key)
        if repeat.any():
            from repro.errors import RaceError

            bad = int(key[repeat][0])
            raise RaceError(
                f"wksan [vectorized insert]: duplicate (row, col) pair "
                f"({bad >> 32}, {bad & ID_MASK}) within one candidate "
                f"batch; fancy assignment would silently keep the last "
                f"occurrence (see Strategy._insert preconditions)"
            )

    @abstractmethod
    def _insert(self, state: KnnState, rows: np.ndarray, keys: np.ndarray) -> int:
        """Apply the strategy's maintenance discipline; returns #inserted.

        ``keys`` are the candidates' packed ``(dist, id)`` keys.
        Preconditions guaranteed by :meth:`insert`: no self pairs, no
        candidate already present in its row, every candidate beats its
        row's current worst key, and (from the builder) no duplicate
        ``(row, col)`` pairs within the batch.  Rows must be left sorted.
        """

    def reset_counters(self) -> OpCounters:
        """Zero the counters, returning the pre-reset values."""
        old = self.counters
        self.counters = OpCounters()
        return old


_REGISTRY: dict[str, Callable[..., Strategy]] = {}


def register_strategy(cls):
    """Class decorator adding a Strategy subclass to the name registry."""
    _REGISTRY[cls.name] = cls
    return cls


def available_strategies() -> tuple[str, ...]:
    """Names accepted by :func:`get_strategy` (and ``BuildConfig.strategy``)."""
    return tuple(sorted(_REGISTRY))


def get_strategy(name: str, **kwargs) -> Strategy:
    """Instantiate a maintenance strategy by registry name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown strategy {name!r}; available: {available_strategies()}"
        ) from None
    return cls(**kwargs)
