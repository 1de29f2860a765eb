"""Sharded multi-replica serving: scatter, per-shard search, packed-key merge.

The single-process :class:`~repro.serve.server.KNNServer` tops out at one
engine on one index; the ROADMAP's "millions of users" target needs the
dataset *partitioned*.  This module applies the subgraph-division-and-merge
decomposition of the large-scale GPU KNNG literature (and GGNN's multi-GPU
sharding) to the serving path:

* **partition** - points are split into ``S`` contiguous shards by
  :func:`repro.core.sharding.shard_partition`; shard ``s`` builds its own
  :class:`~repro.apps.search.GraphSearchIndex` over rows ``[lo_s, hi_s)``;
* **replicate** - each shard runs ``R`` replica workers (forked processes
  by default, in-process "thread" replicas for tests and fork-less
  platforms).  Replicas of a shard are forked from the *same* built index,
  so every replica computes the identical function of ``(queries, k, ef)``
  - which is why failover can never change an answer, only its latency;
* **route** - a :class:`ShardRouter` scatter-gathers every micro-batch
  across one healthy replica per shard (health = heartbeats + in-band RPC
  failures; routing prefers idle, low-EWMA-latency replicas; dead replicas
  are ejected and readmitted when they answer pings again);
* **merge** - per-shard top-k lists come back with local ids already
  shifted to global (monotone ``global = local + lo_s``), and
  :func:`merge_topk` reduces them by the same packed ``(dist, id)``
  int64 keys the engine's beams use.  Because the shard partition is
  contiguous, the merged ordering *is* the flat index's ordering: with an
  exhaustive beam (``ef >= n``) the cluster's answers are bitwise
  identical to a single flat :class:`~repro.apps.search.GraphSearchIndex`
  (the parity tests assert exactly that).

Two per-shard ``ef`` policies (:attr:`ClusterConfig.shard_ef_policy`):
``"full"`` sends the caller's ``ef`` to every shard - the parity mode -
while ``"scaled"`` sends ``~ef/S`` so total beam work stays roughly
constant as shards are added, which is what makes QPS scale with ``S``
(beam-search cost is ~linear in ``ef`` and only weakly dependent on n).

:class:`ClusterClient` is the same
:class:`~repro.serve.frontend.ServingFrontend` as :class:`KNNServer` -
bounded admission, micro-batching, two-phase deadlines, ``ef``-shedding,
the epoch-keyed result cache - over a :class:`ScatterGatherExecutor`
instead of a local one, and implements the
:class:`~repro.serve.client.SearchClient` protocol, so a cluster drops in
anywhere a single server did.  ``cluster/*`` metrics, ``CLUSTER_*`` /
``REPLICA_*`` hook events and ``cluster_batch -> shard-i -> merge`` trace
spans make a query traceable end to end (worker-side engine counters ride
back on each RPC reply and land as span attributes).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.apps.search import GraphSearchIndex, SearchConfig
from repro.core.sharding import shard_partition
from repro.errors import (
    ClusterError,
    ConfigurationError,
    ReplicaUnavailable,
    ShardUnavailable,
)
from repro.kernels.knn_state import ID_CAPACITY, pack_keys, unpack_keys
from repro.obs import Events, Observability, Tracer
from repro.serve.client import index_ef
from repro.serve.frontend import Executor, FrontendSpec, GroupCall, ServingFrontend
from repro.serve.server import ServeConfig
from repro.utils.parallel import fork_available
from repro.utils.validation import check_positive_int

#: registry namespace the cluster metrics emit under
CLUSTER_METRICS_PREFIX = "cluster/"

#: the tracer of a cluster without an Observability: every span is a no-op
_NO_TRACE = Tracer(enabled=False)


# -- the cross-shard reduction --------------------------------------------------


def merge_topk(
    parts: Sequence[tuple[np.ndarray, np.ndarray]], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce per-shard top-k lists into the global top-k.

    ``parts`` is a sequence of ``(ids, dists)`` pairs, one per shard, each
    ``(m, k_s)`` with *global* ids, ascending distance, ``-1``/``+inf``
    in unfilled slots.  Every pair is packed into ``(dist, id)`` keys
    (:func:`~repro.kernels.knn_state.pack_keys`) and one row-wise sort
    selects the merged top-``k`` - the same lexicographic order a flat
    index's engine emits, so given exhaustive per-shard inputs the merge
    reproduces the flat result bitwise.
    """
    if not parts:
        raise ConfigurationError("merge_topk() needs at least one shard part")
    keys = np.concatenate([pack_keys(i, d) for i, d in parts], axis=1)
    m = keys.shape[0]
    width = min(k, keys.shape[1])
    out_ids = np.full((m, k), -1, dtype=np.int32)
    out_dists = np.full((m, k), np.inf, dtype=np.float32)
    out_ids[:, :width], out_dists[:, :width] = unpack_keys(
        np.sort(keys, axis=1)[:, :width])
    return out_ids, out_dists


# -- configuration --------------------------------------------------------------


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster topology, routing/health knobs and the serving envelope.

    Attributes
    ----------
    n_shards / n_replicas:
        ``S`` index shards, ``R`` replica workers per shard.
    backend:
        ``"process"`` (forked workers; the real isolation), ``"thread"``
        (in-process replicas - deterministic, fork-less, used by tests),
        or ``"auto"`` (process where ``fork`` exists, thread otherwise).
    shard_ef_policy:
        ``"full"`` sends the request ``ef`` to every shard (bitwise
        parity with a flat index under exhaustive search); ``"scaled"``
        sends ``max(shard_ef_floor, k, ceil(ef / S))`` so total beam work
        stays ~constant as shards are added (the throughput mode).
    shard_ef_floor:
        Accuracy floor of the scaled policy.
    rpc_timeout_s:
        How long one shard RPC may take before the replica is declared
        unavailable and the call fails over.  (Deliberately *not* coupled
        to request deadlines: a tight deadline must not eject a healthy
        replica - late results are discarded by the deadline check
        instead.)
    heartbeat_interval_s / heartbeat_timeout_s:
        The health monitor's ping cadence and per-ping patience.
    readmit_after_s:
        Back-off before an ejected replica is pinged for readmission.
    ewma_alpha:
        Smoothing of the per-replica latency EWMA used for routing.
    serve:
        The serving envelope (:class:`~repro.serve.server.ServeConfig`):
        admission, deadlines, shedding, caching, ``default_k``, ``ef``.
    """

    n_shards: int = 2
    n_replicas: int = 1
    backend: str = "auto"
    shard_ef_policy: str = "full"
    shard_ef_floor: int = 8
    rpc_timeout_s: float = 30.0
    heartbeat_interval_s: float = 0.25
    heartbeat_timeout_s: float = 2.0
    readmit_after_s: float = 1.0
    ewma_alpha: float = 0.3
    serve: ServeConfig = field(default_factory=ServeConfig)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "n_shards", check_positive_int(self.n_shards, "n_shards"))
        object.__setattr__(
            self, "n_replicas",
            check_positive_int(self.n_replicas, "n_replicas"))
        object.__setattr__(
            self, "shard_ef_floor",
            check_positive_int(self.shard_ef_floor, "shard_ef_floor"))
        if self.backend not in ("auto", "process", "thread"):
            raise ConfigurationError(
                f"backend must be auto/process/thread, got {self.backend!r}"
            )
        if self.shard_ef_policy not in ("full", "scaled"):
            raise ConfigurationError(
                f"shard_ef_policy must be full/scaled, "
                f"got {self.shard_ef_policy!r}"
            )
        for name in ("rpc_timeout_s", "heartbeat_interval_s",
                     "heartbeat_timeout_s", "readmit_after_s"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(
                    f"{name} must be > 0, got {getattr(self, name)}"
                )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigurationError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )

    def resolved_backend(self) -> str:
        if self.backend != "auto":
            return self.backend
        return "process" if fork_available() else "thread"

    def shard_ef(self, ef: int, k: int) -> int:
        """The per-shard beam width for a request served at ``ef``."""
        if self.shard_ef_policy == "full":
            return ef
        return max(self.shard_ef_floor, k, -(-ef // self.n_shards))

    def as_dict(self) -> dict[str, Any]:
        out = dataclasses.asdict(self)
        out["serve"] = self.serve.as_dict()
        return out

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "ClusterConfig":
        data = dict(mapping)
        if "serve" in data and not isinstance(data["serve"], ServeConfig):
            data["serve"] = ServeConfig.from_dict(data["serve"])
        return cls(**data)


# -- replica workers ------------------------------------------------------------


def _serve_shard_request(
    index: GraphSearchIndex, lo: int, queries: np.ndarray, k: int, ef: int
) -> tuple[np.ndarray, np.ndarray, dict[str, Any]]:
    """Answer one shard RPC: local beam search + monotone id shift.

    Shared by the process worker loop and the thread replica so both
    backends compute byte-identical replies.  The returned info dict
    carries the worker-side engine counters the router attaches to the
    per-shard trace span.
    """
    t0 = time.perf_counter()
    ids, dists = index.search(queries, k, ef=ef)
    seconds = time.perf_counter() - t0
    gids = ids.astype(np.int64)
    gids[gids >= 0] += lo
    info: dict[str, Any] = {"engine_seconds": seconds}
    engine_stats = index.stats()
    for key in ("rounds", "expansions", "distance_evals"):
        if key in engine_stats:
            info[key] = engine_stats[key]
    return gids, dists, info


def _worker_main(conn, index: GraphSearchIndex, lo: int) -> None:
    """Replica worker process body: a blocking RPC loop over one pipe.

    Every request carries a sequence number that is echoed in the reply,
    so a router that timed out on a slow reply can discard the stale
    message instead of mis-pairing it with the next request.  Engine
    errors are reported, not fatal; the loop only exits on ``stop`` or a
    broken pipe.
    """
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        op, seq = msg[0], msg[1]
        try:
            if op == "stop":
                conn.send(("bye", seq))
                break
            elif op == "ping":
                conn.send(("pong", seq, os.getpid()))
            elif op == "query":
                _, _, queries, k, ef = msg
                gids, dists, info = _serve_shard_request(
                    index, lo, queries, k, ef)
                conn.send(("ok", seq, gids, dists, info))
            else:
                conn.send(("error", seq, f"unknown op {op!r}"))
        except Exception as exc:  # noqa: BLE001 - must reach the router
            try:
                conn.send(("error", seq, repr(exc)))
            except (BrokenPipeError, OSError):
                break
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


class ProcessReplica:
    """One forked replica worker and its synchronous pipe RPC channel.

    The index is inherited by fork (copy-on-write), never pickled - the
    same recipe as :func:`repro.utils.parallel.map_forked`.  One RPC is in
    flight per replica at a time (a per-replica lock serialises callers);
    concurrency comes from having many replicas.
    """

    backend = "process"

    def __init__(self, shard_id: int, replica_id: int,
                 index: GraphSearchIndex, lo: int) -> None:
        self.shard_id = int(shard_id)
        self.replica_id = int(replica_id)
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        self._conn = parent_conn
        self._proc = ctx.Process(
            target=_worker_main, args=(child_conn, index, lo),
            daemon=True, name=f"shard{shard_id}-r{replica_id}",
        )
        self._proc.start()
        child_conn.close()
        self._lock = threading.Lock()
        self._seq = 0

    @property
    def name(self) -> str:
        return f"s{self.shard_id}/r{self.replica_id}"

    def _rpc(self, payload: tuple, timeout: float) -> tuple:
        """One send/recv round trip; caller must hold ``self._lock``."""
        self._seq += 1
        seq = self._seq
        try:
            self._conn.send((payload[0], seq, *payload[1:]))
            while True:
                if not self._conn.poll(timeout):
                    raise ReplicaUnavailable(
                        f"replica {self.name} did not answer within "
                        f"{timeout:.1f}s"
                    )
                reply = self._conn.recv()
                if reply[1] == seq:
                    return reply
                # stale reply from a previously timed-out call: discard
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise ReplicaUnavailable(
                f"replica {self.name} connection failed: {exc!r}"
            ) from exc

    def call(self, payload: tuple, timeout: float) -> tuple:
        """Synchronous RPC: ``("query", qmat, k, ef)`` or ``("ping",)``.

        Raises :class:`~repro.errors.ReplicaUnavailable` on crash or
        timeout, :class:`~repro.errors.ClusterError` when the worker
        reports an engine error.
        """
        with self._lock:
            reply = self._rpc(payload, timeout)
        if reply[0] == "error":
            raise ClusterError(f"replica {self.name} failed: {reply[2]}")
        return (reply[0], *reply[2:])

    def try_ping(self, timeout: float) -> bool | None:
        """Heartbeat probe: True=pong, False=dead, None=busy serving.

        Busy means the replica lock is held by an in-flight query - the
        replica is demonstrably alive, so the monitor skips the ping
        rather than queueing behind real work.
        """
        if not self._lock.acquire(blocking=False):
            return None
        try:
            self._rpc(("ping",), timeout)
            return True
        except ReplicaUnavailable:
            return False
        finally:
            self._lock.release()

    def alive(self) -> bool:
        return self._proc.is_alive()

    def kill(self) -> None:
        """Chaos hook: hard-kill the worker (a simulated machine crash)."""
        self._proc.terminate()

    def close(self, timeout: float = 2.0) -> None:
        if self._proc.is_alive():
            try:
                with self._lock:
                    self._rpc(("stop",), timeout)
            except ReplicaUnavailable:
                pass
        self._proc.join(timeout=timeout)
        if self._proc.is_alive():  # pragma: no cover - stuck worker
            self._proc.terminate()
            self._proc.join(timeout=timeout)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass


class ThreadReplica:
    """In-process replica: the same RPC semantics without fork.

    Used on fork-less platforms and by tests that want deterministic,
    debuggable replicas with controllable failure (``kill``/``revive``)
    and latency (``delay_s``).  Answers are byte-identical to a process
    replica's because both run :func:`_serve_shard_request`.
    """

    backend = "thread"

    def __init__(self, shard_id: int, replica_id: int,
                 index: GraphSearchIndex, lo: int) -> None:
        self.shard_id = int(shard_id)
        self.replica_id = int(replica_id)
        self._index = index
        self._lo = int(lo)
        self._dead = False
        #: test hook: artificial per-call latency (seconds)
        self.delay_s = 0.0

    @property
    def name(self) -> str:
        return f"s{self.shard_id}/r{self.replica_id}"

    def call(self, payload: tuple, timeout: float) -> tuple:
        if self._dead:
            raise ReplicaUnavailable(f"replica {self.name} is down")
        if self.delay_s:
            time.sleep(self.delay_s)
        op = payload[0]
        if op == "ping":
            return ("pong", 0)
        if op == "query":
            _, queries, k, ef = payload
            try:
                gids, dists, info = _serve_shard_request(
                    self._index, self._lo, queries, k, ef)
            except ReplicaUnavailable:
                raise
            except Exception as exc:  # noqa: BLE001 - mirror the worker loop
                raise ClusterError(
                    f"replica {self.name} failed: {exc!r}"
                ) from exc
            return ("ok", gids, dists, info)
        raise ClusterError(f"replica {self.name}: unknown op {op!r}")

    def try_ping(self, timeout: float) -> bool | None:
        return not self._dead

    def alive(self) -> bool:
        return not self._dead

    def kill(self) -> None:
        self._dead = True

    def revive(self) -> None:
        self._dead = False

    def close(self, timeout: float = 2.0) -> None:
        self._dead = True


# -- health-aware routing -------------------------------------------------------


class ReplicaGroup:
    """The ``R`` replicas of one shard plus their health bookkeeping.

    Health state is ``"healthy"`` or ``"ejected"``; routing prefers
    healthy replicas with the fewest in-flight calls, breaking ties by
    the per-replica latency EWMA (a consistently slow replica naturally
    sinks to last choice).  Ejected replicas remain *last-resort*
    candidates: if every healthy sibling also fails a call, the router
    still tries them before declaring the shard unavailable.
    """

    def __init__(self, shard_id: int, replicas: Sequence[Any], *,
                 ewma_alpha: float, readmit_after_s: float) -> None:
        self.shard_id = int(shard_id)
        self.replicas = list(replicas)
        self._alpha = float(ewma_alpha)
        self._readmit_after = float(readmit_after_s)
        self._lock = threading.Lock()
        self._state: dict[Any, str] = {r: "healthy" for r in self.replicas}
        self._ewma_ms: dict[Any, float | None] = dict.fromkeys(self.replicas)
        self._inflight: dict[Any, int] = dict.fromkeys(self.replicas, 0)
        self._calls: dict[Any, int] = dict.fromkeys(self.replicas, 0)
        self._failures: dict[Any, int] = dict.fromkeys(self.replicas, 0)
        self._ejected_at: dict[Any, float] = {}
        self.ejections = 0
        self.readmissions = 0

    def pick(self, exclude: Sequence[Any] = ()) -> Any | None:
        """Claim the best replica not in ``exclude`` (None if exhausted)."""
        with self._lock:
            candidates = [r for r in self.replicas if r not in exclude]
            if not candidates:
                return None

            def rank(r: Any) -> tuple:
                penalty = 0 if self._state[r] == "healthy" else 1
                ewma = self._ewma_ms[r]
                return (penalty, self._inflight[r],
                        ewma if ewma is not None else 0.0)

            best = min(candidates, key=rank)
            self._inflight[best] += 1
            return best

    def release(self, replica: Any) -> None:
        with self._lock:
            self._inflight[replica] = max(0, self._inflight[replica] - 1)

    def record_success(self, replica: Any, ms: float) -> bool:
        """Fold one served call in; True if this readmitted the replica."""
        with self._lock:
            self._calls[replica] += 1
            prev = self._ewma_ms[replica]
            self._ewma_ms[replica] = (
                ms if prev is None else
                self._alpha * ms + (1.0 - self._alpha) * prev
            )
            return self._mark_alive_locked(replica)

    def eject(self, replica: Any) -> bool:
        """Mark a replica dead; True on the healthy->ejected transition."""
        with self._lock:
            self._failures[replica] += 1
            if self._state[replica] == "healthy":
                self._state[replica] = "ejected"
                self._ejected_at[replica] = time.monotonic()
                self.ejections += 1
                return True
            return False

    def _mark_alive_locked(self, replica: Any) -> bool:
        if self._state[replica] == "ejected":
            self._state[replica] = "healthy"
            self._ejected_at.pop(replica, None)
            self.readmissions += 1
            return True
        return False

    def mark_alive(self, replica: Any) -> bool:
        with self._lock:
            return self._mark_alive_locked(replica)

    def state(self, replica: Any) -> str:
        with self._lock:
            return self._state[replica]

    def readmit_due(self, replica: Any, now: float) -> bool:
        """Has the ejected replica's readmission back-off elapsed?"""
        with self._lock:
            ejected_at = self._ejected_at.get(replica)
            return (ejected_at is not None
                    and now - ejected_at >= self._readmit_after)

    def healthy_count(self) -> int:
        with self._lock:
            return sum(1 for s in self._state.values() if s == "healthy")

    def snapshot(self) -> list[dict[str, Any]]:
        with self._lock:
            return [
                {
                    "shard": self.shard_id,
                    "replica": r.replica_id,
                    "backend": r.backend,
                    "state": self._state[r],
                    "ewma_ms": self._ewma_ms[r],
                    "calls": self._calls[r],
                    "failures": self._failures[r],
                }
                for r in self.replicas
            ]


class ShardRouter:
    """Scatter-gather across shard replica groups with failover.

    One thread per shard fans a batched query matrix out to the best
    replica of each group; a failed call ejects the replica and retries
    the whole shard batch on a sibling (replicas are deterministic
    copies, so the retried answer is the answer).  A background heartbeat
    thread pings idle replicas, ejecting silent ones and readmitting
    recovered ones after a back-off.
    """

    def __init__(self, groups: Sequence[ReplicaGroup], config: ClusterConfig,
                 *, obs: Observability | None = None) -> None:
        self.groups = list(groups)
        self.config = config
        self.obs = obs
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, len(self.groups)),
            thread_name_prefix="cluster-scatter",
        )
        self._stop_event = threading.Event()
        self._monitor: threading.Thread | None = None
        self._lock = threading.Lock()
        self.counters: dict[str, int] = {
            "shard_calls": 0, "failovers": 0, "ejections": 0,
            "readmissions": 0, "heartbeats": 0,
        }

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        if self._monitor is not None:
            return
        self._stop_event.clear()
        self._monitor = threading.Thread(
            target=self._heartbeat_loop, daemon=True, name="cluster-heartbeat"
        )
        self._monitor.start()

    def close(self) -> None:
        self._stop_event.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        self._pool.shutdown(wait=True)
        for group in self.groups:
            for replica in group.replicas:
                replica.close()

    # -- the scatter-gather hot path -------------------------------------------

    def scatter(
        self, qmat: np.ndarray, k: int, ef: int
    ) -> list[tuple[np.ndarray, np.ndarray, dict[str, Any]]]:
        """Fan one ``(m, d)`` batch out to every shard; gather in shard order.

        Returns one ``(global_ids, dists, info)`` triple per shard.  Any
        shard whose every replica fails raises
        :class:`~repro.errors.ShardUnavailable` out of this call.
        """
        if len(self.groups) == 1:
            return [self._call_shard(self.groups[0], qmat, k, ef)]
        futures = [
            self._pool.submit(self._call_shard, group, qmat, k, ef)
            for group in self.groups
        ]
        return [fut.result() for fut in futures]

    def _call_shard(
        self, group: ReplicaGroup, qmat: np.ndarray, k: int, ef: int
    ) -> tuple[np.ndarray, np.ndarray, dict[str, Any]]:
        tried: list[Any] = []
        while True:
            replica = group.pick(exclude=tried)
            if replica is None:
                raise ShardUnavailable(
                    f"all {len(group.replicas)} replicas of shard "
                    f"{group.shard_id} are unavailable",
                    shard_id=group.shard_id,
                )
            t0 = time.monotonic()
            try:
                reply = replica.call(
                    ("query", qmat, k, ef), self.config.rpc_timeout_s)
            except ReplicaUnavailable:
                group.release(replica)
                tried.append(replica)
                if group.eject(replica):
                    self._count("ejections")
                    self._emit(Events.REPLICA_EJECTED, shard=group.shard_id,
                               replica=replica.replica_id, reason="rpc")
                self._count("failovers")
                self._emit(Events.CLUSTER_FAILOVER, shard=group.shard_id,
                           replica=replica.replica_id,
                           remaining=len(group.replicas) - len(tried))
                continue
            except ClusterError:
                # an engine error is deterministic - a sibling replica
                # would fail identically, so surface it instead of
                # burning the whole group on retries
                group.release(replica)
                raise
            ms = (time.monotonic() - t0) * 1000.0
            group.release(replica)
            self._count("shard_calls")
            if group.record_success(replica, ms):
                self._count("readmissions")
                self._emit(Events.REPLICA_READMITTED, shard=group.shard_id,
                           replica=replica.replica_id, via="traffic")
            _, gids, dists, info = reply
            info = dict(info)
            info.update(shard=group.shard_id, replica=replica.name,
                        rpc_ms=ms)
            return gids, dists, info

    # -- the health monitor ----------------------------------------------------

    def _heartbeat_loop(self) -> None:
        cfg = self.config
        while not self._stop_event.wait(cfg.heartbeat_interval_s):
            now = time.monotonic()
            for group in self.groups:
                for replica in group.replicas:
                    state = group.state(replica)
                    if state == "ejected" and not group.readmit_due(replica, now):
                        continue  # still in back-off
                    ok = replica.try_ping(cfg.heartbeat_timeout_s)
                    if ok is None:
                        continue  # busy serving == alive
                    if ok:
                        if group.mark_alive(replica):
                            self._count("readmissions")
                            self._emit(Events.REPLICA_READMITTED,
                                       shard=group.shard_id,
                                       replica=replica.replica_id,
                                       via="heartbeat")
                    elif group.eject(replica):
                        self._count("ejections")
                        self._emit(Events.REPLICA_EJECTED,
                                   shard=group.shard_id,
                                   replica=replica.replica_id,
                                   reason="heartbeat")
            self._count("heartbeats")

    # -- bookkeeping -----------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] += n
            if self.obs is not None:
                self.obs.metrics.counter(
                    CLUSTER_METRICS_PREFIX + name).inc(n)

    def _emit(self, event: str, **payload: Any) -> None:
        if self.obs is not None:
            self.obs.hooks.emit(event, **payload)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            counters = dict(self.counters)
        return {
            **counters,
            "healthy_replicas": sum(g.healthy_count() for g in self.groups),
            "replicas": [entry for g in self.groups for entry in g.snapshot()],
        }


# -- the cluster-facing client --------------------------------------------------


class ScatterGatherExecutor(Executor):
    """Frontend executor over a :class:`ShardRouter`.

    Each ``(k, ef)`` group is one :meth:`ShardRouter.scatter` across the
    shards at the per-shard ``ef`` of the :attr:`ClusterConfig.shard_ef_policy`,
    reduced by :func:`merge_topk`.  Both are looked up at call time, so
    wrappers installed on ``ShardRouter`` or on this module's
    ``merge_topk`` see every call.  The shards hold static indexes, so
    every answer is at epoch 0.
    """

    counters = ("shard_errors",)

    def __init__(self, router: ShardRouter, config: ClusterConfig,
                 backend: str, obs: Observability | None) -> None:
        self.router = router
        self.config = config
        self.backend = backend
        self.obs = obs
        self.fanout = len(router.groups)

    def pin(self, k: int, ef: int) -> tuple[GroupCall, int, dict[str, Any]]:
        shard_ef = self.config.shard_ef(ef, k)

        def run(qmat: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
            trace = self.obs.trace if self.obs is not None else _NO_TRACE
            with trace.span("cluster_batch", batch=len(qmat), k=k, ef=ef,
                            shard_ef=shard_ef, shards=self.fanout) as sp:
                parts = self.router.scatter(qmat, k, shard_ef)
                # one child span per shard, carrying the worker-side
                # engine counters that rode back on the RPC reply
                for _gids, _dists, info in parts:
                    with trace.span(f"shard-{info['shard']}", **info):
                        pass
                with trace.span("merge", shards=self.fanout, k=k):
                    ids, dists = merge_topk([(g, d) for g, d, _ in parts], k)
                sp.set(expansions=sum(
                    info.get("expansions", 0) for _, _, info in parts))
            shard_ms = [round(info.get("rpc_ms", 0.0), 3)
                        for _, _, info in parts]
            return ids, dists, {"shard_ef": shard_ef, "shard_ms": shard_ms}

        return run, 0, {"shard_ef": shard_ef, "shards": self.fanout}

    def stats(self) -> dict[str, Any]:
        return {
            "n_shards": self.fanout,
            "n_replicas": self.config.n_replicas,
            "backend": self.backend,
            "router": self.router.stats(),
        }

    def start(self) -> None:
        self.router.start()

    def close(self) -> None:
        self.router.close()


CLUSTER_SPEC = FrontendSpec(
    engine="cluster-client", noun="cluster client",
    prefix=CLUSTER_METRICS_PREFIX,
    start_event=Events.CLUSTER_START, stop_event=Events.CLUSTER_STOP,
    batch_before=Events.CLUSTER_BATCH_BEFORE,
    batch_after=Events.CLUSTER_BATCH_AFTER,
)


class ClusterClient(ServingFrontend):
    """:class:`~repro.serve.client.SearchClient` over a sharded cluster.

    Usage::

        with ClusterClient.build(points, k=16,
                                 config=ClusterConfig(n_shards=4,
                                                      n_replicas=2)) as client:
            res = client.query(query_vector, k=10)   # SearchResult

    The same :class:`~repro.serve.frontend.ServingFrontend` as
    :class:`~repro.serve.server.KNNServer`, over a
    :class:`ScatterGatherExecutor`.  With the ``"full"`` shard-ef policy
    and exhaustive beams the results are bitwise identical to a flat
    index over the same points.
    """

    def __init__(
        self,
        shard_indexes: Sequence[GraphSearchIndex],
        ranges: Sequence[tuple[int, int]],
        config: ClusterConfig | None = None,
        *,
        obs: Observability | None = None,
    ) -> None:
        if not shard_indexes:
            raise ConfigurationError("a cluster needs at least one shard")
        if len(shard_indexes) != len(ranges):
            raise ConfigurationError(
                f"{len(shard_indexes)} shard indexes vs {len(ranges)} ranges"
            )
        expect = 0
        for sid, ((lo, hi), index) in enumerate(zip(ranges, shard_indexes)):
            if lo != expect or hi <= lo:
                raise ConfigurationError(
                    f"shard ranges must be contiguous from 0; shard {sid} "
                    f"is [{lo}, {hi}) after {expect}"
                )
            if index.n != hi - lo:
                raise ConfigurationError(
                    f"shard {sid} indexes {index.n} points but covers "
                    f"[{lo}, {hi})"
                )
            expect = hi
        if expect >= ID_CAPACITY:
            raise ConfigurationError(
                f"cluster supports at most {ID_CAPACITY - 1} points, "
                f"got {expect}"
            )
        dims = {index.dim for index in shard_indexes}
        if len(dims) != 1:
            raise ConfigurationError(f"shard dims disagree: {sorted(dims)}")

        self.config = config or ClusterConfig(n_shards=len(shard_indexes))
        if self.config.n_shards != len(shard_indexes):
            raise ConfigurationError(
                f"config.n_shards={self.config.n_shards} but "
                f"{len(shard_indexes)} shard indexes were supplied"
            )
        self.ranges = [(int(lo), int(hi)) for lo, hi in ranges]
        self._n = expect

        backend = self.config.resolved_backend()
        if backend == "process" and not fork_available():
            raise ConfigurationError(
                "backend='process' needs the fork start method; "
                "use backend='thread'"
            )
        replica_cls = ProcessReplica if backend == "process" else ThreadReplica
        self.backend = backend
        groups = []
        for sid, (index, (lo, _hi)) in enumerate(zip(shard_indexes, ranges)):
            replicas = [
                replica_cls(sid, rid, index, lo)
                for rid in range(self.config.n_replicas)
            ]
            groups.append(ReplicaGroup(
                sid, replicas,
                ewma_alpha=self.config.ewma_alpha,
                readmit_after_s=self.config.readmit_after_s,
            ))
        self.router = ShardRouter(groups, self.config, obs=obs)
        super().__init__(
            ScatterGatherExecutor(self.router, self.config, backend, obs),
            self.config.serve, CLUSTER_SPEC,
            dim=shard_indexes[0].dim, index_ef=index_ef(shard_indexes[0]),
            start_payload={
                "shards": self.n_shards, "replicas": self.config.n_replicas,
                "backend": backend,
                "shard_ef_policy": self.config.shard_ef_policy,
            },
            obs=obs,
        )

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls,
        points: np.ndarray,
        *,
        k: int = 16,
        build_config=None,
        search_config: SearchConfig | None = None,
        seed=None,
        config: ClusterConfig | None = None,
        obs: Observability | None = None,
    ) -> "ClusterClient":
        """Partition ``points`` and build one shard index per range.

        Shards are built sequentially in the parent process with the same
        build/search configuration and seed; replicas then fork from the
        built indexes (copy-on-write, no pickling), so every replica of a
        shard is the identical deterministic function.
        """
        x = np.asarray(points)
        cfg = config or ClusterConfig()
        ranges = shard_partition(x.shape[0], cfg.n_shards)
        indexes = [
            GraphSearchIndex.build(
                x[lo:hi], k=k, build_config=build_config,
                search_config=search_config, seed=seed,
            )
            for lo, hi in ranges
        ]
        return cls(indexes, ranges, cfg, obs=obs)

    @property
    def n(self) -> int:
        """Total points across all shards."""
        return self._n

    @property
    def n_shards(self) -> int:
        return len(self.router.groups)

    # -- chaos / test hooks ----------------------------------------------------

    def kill_replica(self, shard_id: int, replica_id: int) -> None:
        """Hard-kill one replica worker (the replica-outage drill)."""
        self.router.groups[shard_id].replicas[replica_id].kill()
