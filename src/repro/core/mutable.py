"""Online mutable index: epoch-versioned inserts/deletes under live traffic.

Production corpora churn while queries keep arriving.  This module makes
the graph index *mutable* without ever making a reader see a half-updated
graph, by separating two roles:

* :class:`IndexSnapshot` - an **immutable, epoch-stamped view**: prepared
  points, graph, forest, tombstone mask and the external-id mapping, all
  frozen.  Readers (the :class:`~repro.serve.server.KNNServer`'s batch
  workers, or anyone calling :meth:`MutableIndex.search`) grab the current
  snapshot reference once and run entirely against it; nothing the writer
  does afterwards can change what that reader observes.
* :class:`MutableIndex` - the **writer**: batched inserts, tombstone
  deletes and threshold-triggered compaction, each producing a *new*
  snapshot (copy-on-write: untouched arrays are shared, mutated ones are
  fresh) that is published with one atomic reference flip.  The epoch
  counter increments on every flip, which is what lets the serving layer
  key its result cache by epoch - a cached answer from before a flip can
  never be served after it.

**Inserts** attach new points through graph-guided search, not through
RP-tree leaf mutation: each new point's neighbour candidates are the
result of a :class:`~repro.apps.search.GraphSearchIndex` beam search
over the current snapshot (beam width :attr:`MutableConfig.attach_ef`),
the candidates adopt the new point back through the configured
maintenance strategy, and one NN-descent local-join round repairs the
neighbourhood (per GRNND, local repair around the insertion site is
sufficient - the join's *new* flags concentrate exactly there).  The
forest is left untouched between compactions: new points are reachable
through graph edges from the seeds the forest still routes to.

**Deletes** are tombstones: the point stays in the graph as a waypoint
(searches may traverse it) but is filtered from every result.  Queries
over-fetch proportionally to the tombstone count so filtering does not
shrink result sets.  When the tombstone fraction passes
:attr:`MutableConfig.compact_threshold`, compaction rebuilds graph and
forest over the survivors and re-bases the internal ids - external ids
(the ids callers see and delete by) are stable across compactions.

**Builds**: :meth:`MutableIndex.build` wraps epoch 0 around
:meth:`GraphSearchIndex.build <repro.apps.search.GraphSearchIndex.build>`,
and inserts maintain the graph with the strategy that build resolved
(``graph.meta["strategy"]``).  Compaction runs the builder itself and
publishes the survivors' already-prepared rows unchanged
(``from_parts(prepared=True)``), so kept points keep their bytes.

Usage::

    mut = MutableIndex.build(points, BuildConfig(k=16), SearchConfig(ef=64))
    new_ids = mut.insert(batch)          # epoch flips, readers unaffected
    mut.delete(new_ids[:8])              # tombstoned (or compacted)
    ids, dists = mut.search(queries, 10)  # external ids, tombstones filtered

Architecture notes and serving integration: ``docs/mutable.md``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.apps.search import GraphSearchIndex, SearchConfig
from repro.core.builder import WKNNGBuilder
from repro.core.config import BuildConfig
from repro.core.graph import KNNGraph
from repro.core.metric import prepare_points
from repro.core.refine import RefineState, refine_round
from repro.errors import ConfigurationError, DataError
from repro.kernels.knn_state import KnnState
from repro.kernels.strategy import Strategy, get_strategy
from repro.obs import Events, Observability
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_int

#: registry namespace the mutable index's metrics emit under
INDEX_METRICS_PREFIX = "index/"


@dataclass(frozen=True)
class MutableConfig:
    """Write-path knobs of a :class:`MutableIndex`.

    Attributes
    ----------
    compact_threshold:
        Tombstone fraction (dead / total internal points) above which a
        delete triggers compaction (full rebuild over survivors).  ``1.0``
        disables automatic compaction.
    repair_rounds:
        NN-descent local-join rounds run after each insert batch (``0``
        disables repair; ``1`` is usually enough because the join flags
        concentrate on the fresh entries).
    attach_ef:
        Beam width of the graph-guided search that finds each new point's
        neighbour candidates.  ``None`` means ``max(2 * k, search ef)`` -
        wide enough that attach recall tracks query recall.
    drift_threshold:
        Quantized indexes only: when an insert batch's reconstruction MSE
        exceeds this multiple of the store's training-time baseline
        (``QuantizedStore.train_mse``), the insert compacts immediately -
        rebuild + quantizer retrain over survivors plus the fresh batch,
        still one flip - instead of encoding a badly-fitting batch with
        the frozen codebooks.  ``None`` (default) disables the trigger;
        the ``index/quant_drift`` gauge is exported either way.

        The comparison uses the EWMA-smoothed drift (see
        ``drift_ewma_alpha``), so one outlier batch does not force a
        retrain but sustained drift does.
    drift_ewma_alpha:
        Weight of the newest batch in the exponentially-smoothed drift
        signal ``ewma = alpha * drift + (1 - alpha) * ewma`` that
        ``drift_threshold`` triggers on.  ``1.0`` (default) means no
        smoothing - the threshold sees each batch's raw ratio, the
        pre-smoothing behaviour.  Lower values damp bursts: a single
        out-of-distribution batch moves the signal by only ``alpha`` of
        its excursion, while a sustained shift converges to the raw
        ratio within a few batches.  The smoothed value is exported as
        the ``index/quant_drift_ewma`` gauge and resets whenever a
        compaction retrains the codebooks.
    """

    compact_threshold: float = 0.25
    repair_rounds: int = 1
    attach_ef: int | None = None
    drift_threshold: float | None = None
    drift_ewma_alpha: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.compact_threshold <= 1.0:
            raise ConfigurationError(
                f"compact_threshold must lie in (0, 1], got "
                f"{self.compact_threshold}"
            )
        if self.repair_rounds < 0:
            raise ConfigurationError(
                f"repair_rounds must be >= 0, got {self.repair_rounds}"
            )
        if self.attach_ef is not None:
            object.__setattr__(
                self, "attach_ef",
                check_positive_int(self.attach_ef, "attach_ef"))
        if self.drift_threshold is not None and self.drift_threshold <= 0:
            raise ConfigurationError(
                f"drift_threshold must be > 0, got {self.drift_threshold}"
            )
        if not 0.0 < self.drift_ewma_alpha <= 1.0:
            raise ConfigurationError(
                f"drift_ewma_alpha must lie in (0, 1], got "
                f"{self.drift_ewma_alpha}"
            )


class IndexSnapshot:
    """One immutable, epoch-stamped view of a mutable index.

    Everything a reader needs is frozen here: the wrapped
    :class:`~repro.apps.search.GraphSearchIndex` (prepared points, graph,
    forest), the tombstone mask, and the internal-row -> external-id
    mapping.  :meth:`search` returns **external** ids with tombstoned
    points filtered out, over-fetching internally so filtering does not
    shrink result sets.

    Snapshots satisfy the engine surface the serving layer drives
    (``dim`` / ``search(queries, k, *, ef=None)``) plus ``epoch``, so a
    server worker that pins one snapshot for a micro-batch gets a
    consistent graph *and* the epoch to stamp its results with.
    """

    __slots__ = ("epoch", "index", "ext_ids", "deleted", "n_dead")

    def __init__(
        self,
        epoch: int,
        index: GraphSearchIndex,
        ext_ids: np.ndarray,
        deleted: np.ndarray,
    ) -> None:
        self.epoch = int(epoch)
        self.index = index
        self.ext_ids = ext_ids
        self.deleted = deleted
        self.n_dead = int(deleted.sum())

    # -- read surface ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.index.dim

    @property
    def n_total(self) -> int:
        """Internal points, live and tombstoned."""
        return self.index.n

    @property
    def n_live(self) -> int:
        return self.n_total - self.n_dead

    @property
    def tombstone_fraction(self) -> float:
        return self.n_dead / max(1, self.n_total)

    @property
    def config(self) -> SearchConfig:
        return self.index.config

    @property
    def store(self):
        """The snapshot's compressed tier (``QuantizedStore`` or ``None``).

        Versioned with the snapshot: codes cover exactly this epoch's
        internal rows, tombstones mask codes and vectors alike, and a
        compaction's retrained store becomes visible only through the
        same flip that publishes the rebuilt graph and forest.
        """
        return self.index.store

    def live_ids(self) -> np.ndarray:
        """External ids of all live points (ascending insertion order)."""
        return self.ext_ids[~self.deleted]

    def live_points(self) -> np.ndarray:
        """The live points in prepared (kernel) space, aligned with
        :meth:`live_ids` - what an exact ground-truth computation or an
        external rebuild needs."""
        return self.index.points[~self.deleted]

    def search(
        self, queries: np.ndarray, k: int, *, ef: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate k-NN over the live points, as external ids.

        Tombstoned points are filtered from the results; the internal
        search over-fetches ``k + min(n_dead, max(k, 16))`` so a beam full
        of tombstones still yields ``k`` answers in the usual case.
        Unfilled slots carry ``-1`` / ``+inf``, like every engine.
        """
        k = check_positive_int(k, "k")
        fetch = k
        if self.n_dead:
            fetch = min(self.n_total, k + min(self.n_dead, max(k, 16)))
        ids, dists = self.index.search(queries, fetch, ef=ef)
        keep = ids >= 0
        if self.n_dead:
            keep &= ~self.deleted[np.where(keep, ids, 0)]
        if fetch > k or not keep.all():
            # stable-compact each row: live entries first, order preserved
            order = np.argsort(~keep, axis=1, kind="stable")
            ids = np.take_along_axis(ids, order, axis=1)
            dists = np.take_along_axis(dists, order, axis=1)
            keep = np.take_along_axis(keep, order, axis=1)
            ids = np.where(keep, ids, -1)[:, :k]
            dists = np.where(keep, dists, np.float32(np.inf))[:, :k]
        valid = ids >= 0
        out = np.where(valid, self.ext_ids[np.where(valid, ids, 0)], -1)
        return out.astype(np.int64), dists


class MutableIndex:
    """A serving index that accepts inserts and deletes while being read.

    All mutation goes through one internal writer lock, so concurrent
    writers serialise; readers never take it.  The currently published
    :class:`IndexSnapshot` is available as :attr:`snapshot` - reading it
    is a single reference load, atomic under the interpreter - and every
    mutation publishes a successor and bumps :attr:`epoch`.

    The class satisfies the engine surface
    (``dim``/``config``/``search``/``stats``) so it drops into
    :class:`~repro.serve.server.KNNServer` unchanged; the server
    additionally pins a snapshot per micro-batch and keys its result
    cache by epoch (see ``docs/mutable.md``).
    """

    def __init__(
        self,
        snapshot: IndexSnapshot,
        build_config: BuildConfig,
        config: MutableConfig | None = None,
        *,
        obs: Observability | None = None,
    ) -> None:
        self._snapshot = snapshot
        # maintain the graph with the strategy its build resolved (the
        # builder owns ``strategy="auto"`` resolution)
        build_config = replace(
            build_config, strategy=snapshot.index.graph.meta["strategy"]
        )
        self._build_config = build_config
        self.mutable_config = config or MutableConfig()
        self.obs = obs
        self._write_lock = threading.Lock()
        self._strategy: Strategy = get_strategy(
            build_config.strategy, **build_config.strategy_kwargs
        )
        self._rng = as_generator(build_config.seed).spawn(1)[0]
        self._ext_to_int: dict[int, int] = {
            int(e): i for i, e in enumerate(snapshot.ext_ids)
            if not snapshot.deleted[i]
        }
        self._next_ext = int(snapshot.ext_ids.max()) + 1 \
            if snapshot.ext_ids.size else 0
        self.counters: dict[str, int] = {
            "inserted": 0, "deleted": 0, "compactions": 0, "flips": 0,
        }
        #: drift ratio of the most recent insert batch (None until the
        #: first insert on a quantized index)
        self.last_drift: float | None = None
        #: EWMA-smoothed drift the threshold triggers on; resets whenever
        #: a compaction retrains the codebooks
        self.last_drift_ewma: float | None = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls,
        points: np.ndarray,
        build_config: BuildConfig | None = None,
        search_config: SearchConfig | None = None,
        config: MutableConfig | None = None,
        *,
        obs: Observability | None = None,
    ) -> "MutableIndex":
        """Build the initial graph and wrap it as epoch 0."""
        build_config = build_config or BuildConfig()
        index = GraphSearchIndex.build(
            points, build_config=build_config, search_config=search_config,
            obs=obs,
        )
        n = index.n
        snapshot = IndexSnapshot(
            epoch=0,
            index=index,
            ext_ids=np.arange(n, dtype=np.int64),
            deleted=np.zeros(n, dtype=bool),
        )
        return cls(snapshot, build_config, config, obs=obs)

    # -- read surface ----------------------------------------------------------

    @property
    def snapshot(self) -> IndexSnapshot:
        """The currently published snapshot (atomic reference read)."""
        return self._snapshot

    @property
    def epoch(self) -> int:
        return self._snapshot.epoch

    @property
    def dim(self) -> int:
        return self._snapshot.dim

    @property
    def n(self) -> int:
        """Live points in the current snapshot."""
        return self._snapshot.n_live

    @property
    def config(self) -> SearchConfig:
        """The search configuration (what the serving layer reads ef from)."""
        return self._snapshot.config

    def live_ids(self) -> np.ndarray:
        return self._snapshot.live_ids()

    def search(
        self, queries: np.ndarray, k: int, *, ef: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Search the current snapshot (one atomic reference read)."""
        return self._snapshot.search(queries, k, ef=ef)

    def stats(self) -> dict[str, Any]:
        snap = self._snapshot
        with self._write_lock:
            counters = dict(self.counters)
        return {
            "engine": "mutable-index",
            "epoch": snap.epoch,
            "n_live": snap.n_live,
            "n_total": snap.n_total,
            "tombstone_fraction": snap.tombstone_fraction,
            "quantization": snap.config.quantization,
            "quant_drift": self.last_drift,
            "quant_drift_ewma": self.last_drift_ewma,
            **counters,
        }

    # -- write path ------------------------------------------------------------

    def insert(self, points: np.ndarray) -> np.ndarray:
        """Insert a batch of points; returns their external ids.

        Candidates come from a graph-guided beam search over the current
        snapshot; the configured maintenance strategy inserts the reverse
        edges; ``repair_rounds`` local joins repair the neighbourhood.
        One epoch flip publishes the grown graph.

        On a quantized index the batch is encoded against the current
        store's *frozen* codebooks (existing codes stay bit-identical; no
        retrain on the hot path) and the batch's reconstruction MSE is
        compared to the training-time baseline: the ratio is exported as
        the ``index/quant_drift`` gauge, and when it exceeds
        :attr:`MutableConfig.drift_threshold` the insert compacts instead
        - rebuild + retrain over survivors plus this batch, still one
        flip.
        """
        points = np.asarray(points, dtype=np.float32)
        if points.ndim != 2:
            raise DataError(
                f"points must be a 2-D (n, d) matrix, got ndim={points.ndim}"
            )
        with self._write_lock:
            snap = self._snapshot
            if points.shape[1] != snap.dim:
                raise DataError(
                    f"new points have dim {points.shape[1]}, index has "
                    f"{snap.dim}"
                )
            m = points.shape[0]
            if m == 0:
                return np.empty(0, dtype=np.int64)
            engine = snap.index
            graph = engine.graph
            assert graph is not None and engine.forest is not None
            kg = graph.k
            cfg = self.mutable_config
            attach_ef = cfg.attach_ef or max(2 * kg, engine.config.ef)
            q, _ = prepare_points(points, self._build_config.metric)

            # 0. compressed tier: encode against the *frozen* codebooks
            #    (existing codes stay bit-identical, no retrain on the hot
            #    path) and measure how well they still fit this batch
            store = engine.store
            new_codes = None
            if store is not None:
                new_codes = store.encode(q)
                drift = store.drift_ratio(store.reconstruction_mse(q, new_codes))
                self.last_drift = drift
                smoothed = drift
                if drift is not None:
                    alpha = cfg.drift_ewma_alpha
                    prev = self.last_drift_ewma
                    if prev is not None:
                        smoothed = alpha * drift + (1.0 - alpha) * prev
                    self.last_drift_ewma = smoothed
                if drift is not None and self.obs is not None:
                    im = self.obs.metrics.scoped(INDEX_METRICS_PREFIX)
                    im.gauge("quant_drift").set(drift)
                    im.gauge("quant_drift_ewma").set(smoothed)
                # the threshold reads the smoothed signal: a lone outlier
                # batch moves it by only alpha of its excursion, sustained
                # drift converges to the raw ratio and trips it
                if (smoothed is not None and cfg.drift_threshold is not None
                        and smoothed > cfg.drift_threshold):
                    # the frozen codebooks no longer fit the incoming
                    # distribution: skip the graph attach and compact now,
                    # retraining over survivors plus this batch - the
                    # whole insert is still exactly one flip
                    new_ext = np.arange(
                        self._next_ext, self._next_ext + m, dtype=np.int64
                    )
                    self._next_ext += m
                    self.counters["inserted"] += m
                    live = ~snap.deleted
                    self._rebuild_locked(
                        snap,
                        np.concatenate([engine.points[live], q], axis=0),
                        np.concatenate([snap.ext_ids[live], new_ext]),
                        n_dead=snap.n_dead,
                    )
                    return new_ext

            # 1. attach: graph-guided search finds each new point's
            #    neighbour candidates (internal ids; tombstones allowed -
            #    they are waypoints and get filtered at query time)
            cand_ids, cand_dists = engine.search(points, kg, ef=attach_ef)

            # 2. grow: copy-on-write state over old + new rows
            n_old = graph.n
            x = np.concatenate([engine.points, q], axis=0)
            state = KnnState.from_lists(
                np.concatenate([graph.ids, cand_ids]),
                np.concatenate([graph.dists, cand_dists]),
            )
            new_int = np.arange(n_old, n_old + m, dtype=np.int64)

            # 3. reverse edges: every candidate is offered the new point
            rows_new, cols = np.nonzero(cand_ids >= 0)
            self._strategy.update_pairs(
                state, x,
                cand_ids[rows_new, cols].astype(np.int64),
                new_int[rows_new],
            )

            # 4. local repair with the builder's round: the join's new
            #    flags are exactly what the insertion touched (new rows +
            #    adopters)
            refine_state = RefineState(
                prev_ids=np.concatenate(
                    [graph.ids,
                     np.full((m, kg), -1, dtype=graph.ids.dtype)]
                )
            )
            sample = self._build_config.effective_refine_sample()
            for _ in range(cfg.repair_rounds):
                if refine_round(
                    state, x, self._strategy, self._rng, sample, refine_state
                ) == 0:
                    break

            ids_sorted, dists_sorted = state.sorted_arrays()
            new_graph = KNNGraph(
                ids=ids_sorted, dists=dists_sorted,
                meta={**graph.meta, "algorithm": "w-knng/mutable",
                      "n": n_old + m},
            )
            new_ext = np.arange(
                self._next_ext, self._next_ext + m, dtype=np.int64
            )
            self._next_ext += m
            ext_ids = np.concatenate([snap.ext_ids, new_ext])
            deleted = np.concatenate([snap.deleted, np.zeros(m, dtype=bool)])
            # frozen-codebook append: the grown store shares the trained
            # quantizer (and MSE baseline) by reference, so old codes are
            # the same bytes and only the new rows' codes are fresh
            new_store = None if store is None else store.with_codes(
                np.concatenate([store.codes, new_codes], axis=0)
            )
            index = GraphSearchIndex.from_parts(
                x, new_graph, engine.forest, engine.config,
                prepared=True, store=new_store, obs=self.obs,
            )
            for i, e in zip(new_int, new_ext):
                self._ext_to_int[int(e)] = int(i)
            self.counters["inserted"] += m
            self._flip(IndexSnapshot(snap.epoch + 1, index, ext_ids, deleted),
                       kind="insert", batch=m)
            return new_ext

    def delete(self, ext_ids: np.ndarray) -> int:
        """Tombstone the listed external ids; returns how many died.

        Unknown (never assigned or already deleted) ids raise
        :class:`~repro.errors.DataError`.  Crossing
        :attr:`MutableConfig.compact_threshold` triggers compaction in
        the same call - either way, exactly one epoch flip publishes the
        result.
        """
        ids = np.atleast_1d(np.asarray(ext_ids, dtype=np.int64))
        if ids.ndim != 1:
            raise DataError(f"delete expects ids, got shape {ids.shape}")
        with self._write_lock:
            snap = self._snapshot
            if ids.size == 0:
                return 0
            unknown = [int(e) for e in ids if int(e) not in self._ext_to_int]
            if unknown:
                raise DataError(
                    f"cannot delete unknown or already-deleted id(s) "
                    f"{unknown[:8]}{'...' if len(unknown) > 8 else ''}"
                )
            internal = np.array(
                [self._ext_to_int.pop(int(e)) for e in ids], dtype=np.int64
            )
            deleted = snap.deleted.copy()
            deleted[internal] = True
            self.counters["deleted"] += ids.size
            dead_frac = deleted.sum() / max(1, snap.n_total)
            if dead_frac > self.mutable_config.compact_threshold:
                self._compact_locked(snap, deleted)
            else:
                self._flip(
                    IndexSnapshot(
                        snap.epoch + 1, snap.index, snap.ext_ids, deleted
                    ),
                    kind="delete", batch=int(ids.size),
                )
            return int(ids.size)

    def compact(self) -> None:
        """Force compaction now (rebuild over survivors, one epoch flip)."""
        with self._write_lock:
            snap = self._snapshot
            self._compact_locked(snap, snap.deleted)

    # -- internals -------------------------------------------------------------

    def _compact_locked(self, snap: IndexSnapshot, deleted: np.ndarray) -> None:
        """Rebuild graph + forest over the survivors (write lock held)."""
        live = ~deleted
        self._rebuild_locked(
            snap, snap.index.points[live], snap.ext_ids[live],
            n_dead=int(deleted.sum()),
        )

    def _rebuild_locked(
        self,
        snap: IndexSnapshot,
        x_live: np.ndarray,
        ext_live: np.ndarray,
        *,
        n_dead: int,
    ) -> None:
        """Rebuild graph + forest over ``x_live`` (prepared rows, write
        lock held) and publish the result as one compaction flip.

        No store is threaded through: when the config is quantized,
        ``from_parts`` refits the quantizer (seed 0, deterministic) on
        exactly these rows - compaction is where retrain-and-re-encode
        happens, both for tombstone-triggered and drift-forced paths.
        """
        self._emit(Events.INDEX_COMPACT_BEFORE, epoch=snap.epoch,
                   n_live=int(x_live.shape[0]), n_dead=n_dead)
        builder = WKNNGBuilder(self._build_config, obs=self.obs)
        graph = builder.build(x_live)
        assert builder.last_forest is not None
        # points are already in prepared space; the builder re-prepared a
        # copy internally, but the index must keep serving the same bytes
        index = GraphSearchIndex.from_parts(
            x_live, graph, builder.last_forest, snap.index.config,
            prepared=True, obs=self.obs,
        )
        self._ext_to_int = {int(e): i for i, e in enumerate(ext_live)}
        self.counters["compactions"] += 1
        # fresh codebooks -> the smoothed drift history no longer applies
        self.last_drift_ewma = None
        self._emit(Events.INDEX_COMPACT_AFTER, epoch=snap.epoch + 1,
                   n_live=int(x_live.shape[0]))
        self._flip(
            IndexSnapshot(
                snap.epoch + 1, index, ext_live,
                np.zeros(x_live.shape[0], dtype=bool),
            ),
            kind="compact", batch=n_dead,
        )

    def _flip(self, snapshot: IndexSnapshot, *, kind: str, batch: int) -> None:
        """Publish a successor snapshot (the one atomic write)."""
        self._snapshot = snapshot
        self.counters["flips"] += 1
        if self.obs is not None:
            im = self.obs.metrics.scoped(INDEX_METRICS_PREFIX)
            im.gauge("epoch").set(snapshot.epoch)
            im.gauge("n_live").set(snapshot.n_live)
            im.gauge("n_total").set(snapshot.n_total)
            im.gauge("tombstone_fraction").set(snapshot.tombstone_fraction)
            im.counter(kind if kind != "compact" else "compactions").inc(
                batch if kind != "compact" else 1
            )
        self._emit(Events.INDEX_FLIP, epoch=snapshot.epoch, kind=kind,
                   batch=batch, n_live=snapshot.n_live,
                   n_total=snapshot.n_total)

    def _emit(self, event: str, **payload: Any) -> None:
        if self.obs is not None:
            self.obs.hooks.emit(event, **payload)
