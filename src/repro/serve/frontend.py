"""The one serving frontend: admission, micro-batching, deadlines, shedding.

:class:`~repro.serve.server.KNNServer` and
:class:`~repro.serve.cluster.ClusterClient` are both a
:class:`ServingFrontend` over an :class:`Executor`.  The frontend owns the
whole request path: query validation, the epoch-keyed result cache (hits
resolve at submit time), bounded admission
(:class:`~repro.errors.ServerOverloaded` is raised synchronously),
micro-batching, two-phase deadlines (expired while queued: dropped before
any engine work; finished late: :class:`~repro.errors.DeadlineExceeded`,
never a late success), ``ef``-shedding under sustained queue pressure,
counters and their obs mirrors, latency percentiles and :meth:`stats`.

Each flushed micro-batch is split into ``(k, ef)`` groups and each group
is one :meth:`Executor.pin` plus one call of the function it returns; the
frontend emits the batch events around that call, on the worker thread.
What differs between frontends is data: the :class:`FrontendSpec` (engine
name, metric prefix, event names) and the executor's fanout, counters and
stats - the frontend never asks which caller it serves.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

from repro.errors import (
    ClusterError,
    ConfigurationError,
    DeadlineExceeded,
    ServerClosed,
    ServerOverloaded,
)
from repro.obs import Events, Observability
from repro.serve.cache import ResultCache
from repro.serve.client import SearchResult
from repro.serve.degrade import DegradationController
from repro.serve.queue import AdmissionQueue
from repro.serve.scheduler import MicroBatcher, Request, resolve
from repro.utils.validation import check_positive_int, check_query_vector

if TYPE_CHECKING:
    from repro.serve.server import ServeConfig

#: counters every frontend keeps; an executor may add its own
COUNTERS = (
    "submitted",
    "accepted",
    "completed",
    "rejected",
    "timeout_queued",
    "timeout_late",
    "cache_hits",
    "shed_served",
    "batches",
    "cancelled",
)

#: ``run(qmat) -> (ids, dists, after_tags)`` for one pinned group
GroupCall = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, dict[str, Any]]]


class Executor:
    """Answers one ``(k, ef)`` group for a :class:`ServingFrontend`.

    Subclasses implement :meth:`pin`; the defaults fit one static index.
    """

    #: index shards that contribute to every answer
    fanout = 1
    #: counter names this executor adds to the frontend's set
    counters: tuple[str, ...] = ()

    def epoch(self) -> int:
        """The epoch a request submitted now would be answered at."""
        return 0

    def pin(self, k: int, ef: int) -> tuple[GroupCall, int, dict[str, Any]]:
        """Pin one group's view: ``(run, epoch, before_tags)``.

        The tags extend the batch-before event payload; ``run`` returns
        the answers plus the tags that extend the batch-after payload.
        """
        raise NotImplementedError

    def stats(self) -> dict[str, Any]:
        """Extra :meth:`ServingFrontend.stats` entries."""
        return {}

    def start(self) -> None:
        pass

    def close(self) -> None:
        pass


@dataclass(frozen=True)
class FrontendSpec:
    """How one kind of frontend names itself: stats, errors, metrics, events."""

    engine: str
    noun: str
    prefix: str
    start_event: str
    stop_event: str
    batch_before: str
    batch_after: str


class ServingFrontend:
    """Micro-batching online query service over an :class:`Executor`.

    One instance is safe to submit to from any number of threads, and
    implements the :class:`~repro.serve.client.SearchClient` protocol.
    """

    def __init__(
        self,
        executor: Executor,
        serve: ServeConfig,
        spec: FrontendSpec,
        *,
        dim: int,
        index_ef: int,
        start_payload: Mapping[str, Any],
        obs: Observability | None,
    ) -> None:
        self.executor = executor
        self.spec = spec
        self.obs = obs
        self._serve = serve
        self._dim = int(dim)
        self._base_ef = serve.ef if serve.ef is not None else int(index_ef)
        self._start_payload = dict(start_payload)
        self.cache: ResultCache | None = (
            ResultCache(serve.cache.size, serve.cache.decimals) if serve.cache.size > 0 else None
        )
        self.degradation = DegradationController(serve.shed)
        self._queue: AdmissionQueue | None = None
        self._batcher: MicroBatcher | None = None
        self._accepting = False
        self._lock = threading.Lock()  # guards counters + obs emission
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS + executor.counters, 0)
        self._latencies_ok: deque[float] = deque(maxlen=100_000)

    # -- lifecycle -------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._accepting

    @property
    def dim(self) -> int:
        """Query dimensionality (SearchClient protocol)."""
        return self._dim

    @property
    def default_ef(self) -> int:
        """The full-quality beam width served by default (protocol)."""
        return self._base_ef

    def start(self) -> "ServingFrontend":
        if self._accepting:
            raise ConfigurationError(f"{self.spec.noun} already started")
        adm = self._serve.admission
        self._queue = AdmissionQueue(adm.queue_limit)
        self._batcher = MicroBatcher(
            self._queue,
            self._execute,
            max_batch=adm.max_batch,
            max_wait_s=adm.max_wait_ms / 1000.0,
            n_workers=adm.n_workers,
        )
        self.executor.start()
        self._batcher.start()
        self._accepting = True
        self._emit(self.spec.start_event, **self._start_payload, ef=self._base_ef)
        return self

    def stop(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting, shut the batcher down and close the executor.

        With ``drain=True`` (default) every queued request is still
        executed before the batcher exits; with ``drain=False`` queued
        requests fail with :class:`~repro.errors.ServerClosed`.
        """
        if self._queue is None:
            return
        self._accepting = False
        queue, batcher = self._queue, self._batcher
        if not drain:
            dropped = queue.drain()
            closed = ServerClosed(f"{self.spec.noun} stopped before execution")
            MicroBatcher.fail_all(dropped, closed)
            self._count("cancelled", len(dropped))
        queue.close()
        if batcher is not None:
            batcher.stop(timeout=timeout)
        self._queue = None
        self._batcher = None
        self.executor.close()
        self._emit(self.spec.stop_event, **self.counters)

    def close(self) -> None:
        """SearchClient protocol: graceful drain + executor teardown."""
        if self._accepting:
            self.stop()
        else:
            self.executor.close()

    def __enter__(self) -> "ServingFrontend":
        if not self._accepting:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- client API ------------------------------------------------------------

    def submit(
        self,
        query: np.ndarray,
        k: int | None = None,
        *,
        ef: int | None = None,
        deadline_ms: float | None = None,
    ) -> Future:
        """Submit one query vector; the future resolves to a
        :class:`~repro.serve.client.SearchResult` or raises a
        :mod:`repro.errors` serve error.  :class:`~repro.errors.ServerOverloaded`
        is raised *here*, so callers feel backpressure immediately.
        """
        queue = self._queue
        if not self._accepting or queue is None:
            raise ServerClosed(f"submit() on a stopped {self.spec.noun}")
        serve = self._serve
        q = check_query_vector(query, self._dim, "query")
        k = serve.default_k if k is None else check_positive_int(k, "k")
        ef = self._base_ef if ef is None else check_positive_int(ef, "ef")
        if deadline_ms is None:
            deadline_ms = serve.deadline.default_ms
        now = time.monotonic()
        deadline = None if deadline_ms is None else now + deadline_ms / 1000.0

        self._count("submitted")
        req = Request(query=q, k=k, ef=ef, deadline=deadline, submitted=now)
        if self.cache is not None:
            # the lookup key carries the *current* epoch: after a mutable
            # index flips, entries computed against older graphs become
            # structurally unreachable (zero stale hits by construction)
            epoch = self.executor.epoch()
            hit = self.cache.get(self.cache.key(q, k, ef, epoch))
            if hit is not None:
                ids, dists, served_ef = hit
                self._count("cache_hits")
                self._emit(Events.SERVE_CACHE_HIT, k=k, ef=ef, epoch=epoch)
                self._complete(req, ids.copy(), dists.copy(), served_ef, epoch, batch_size=0)
                return req.future

        if not queue.offer(req):
            depth = queue.depth()
            limit = serve.admission.queue_limit
            self._count("rejected")
            self._emit(Events.SERVE_REQUEST_REJECTED, queue_depth=depth, limit=limit)
            raise ServerOverloaded(
                f"admission queue full ({depth}/{limit} pending); retry with backoff",
                queue_depth=depth,
            )
        self._count("accepted")
        self._gauge("queue_depth", queue.depth())
        return req.future

    def query(
        self,
        query: np.ndarray,
        k: int | None = None,
        *,
        ef: int | None = None,
        deadline_ms: float | None = None,
        timeout: float | None = None,
    ) -> SearchResult:
        """Blocking convenience wrapper: ``submit(...).result()``."""
        return self.submit(query, k, ef=ef, deadline_ms=deadline_ms).result(timeout=timeout)

    # -- batch execution (worker threads) --------------------------------------

    def _execute(self, batch: list[Request]) -> None:
        now = time.monotonic()
        queue = self._queue
        depth = queue.depth() if queue is not None else 0

        # deadline enforcement, part 1: drop requests that expired while
        # queued before spending any engine work on them
        live: list[Request] = []
        for req in batch:
            if not req.expired(now):
                live.append(req)
                continue
            waited_ms = (now - req.submitted) * 1000.0
            msg = f"deadline expired while queued ({waited_ms:.1f}ms in queue)"
            req.future.set_exception(DeadlineExceeded(msg))
        expired = len(batch) - len(live)
        if expired:
            self._count("timeout_queued", expired)
            self._emit(Events.SERVE_REQUEST_TIMEOUT, phase="queued", count=expired)
        if not live:
            return

        # degradation: one queue-pressure observation per flush
        old_level = self.degradation.level
        level = self.degradation.observe(depth, self._serve.admission.queue_limit)
        if level != old_level:
            self._gauge("shed_level", level)
            self._emit(
                Events.SERVE_SHED_CHANGE, old_level=old_level, new_level=level, queue_depth=depth
            )

        # group by (k, requested ef): each group is one executor call
        groups: dict[tuple[int, int], list[Request]] = {}
        for req in live:
            groups.setdefault((req.k, req.ef), []).append(req)
        for (k, ef), reqs in groups.items():
            self._run_group(k, ef, reqs, depth)

    def _run_group(self, k: int, ef: int, reqs: list[Request], depth: int) -> None:
        served_ef = self.degradation.effective_ef(ef)
        shed = served_ef < ef
        qmat = np.stack([r.query for r in reqs], axis=0)
        # one pinned view for the whole group: epoch flips between here
        # and resolution cannot tear this group's results
        run, epoch, tags = self.executor.pin(k, served_ef)
        payload = {"batch": len(reqs), "k": k, "ef": served_ef, "shed": shed}
        self._emit(self.spec.batch_before, **payload, queue_depth=depth, **tags)
        t0 = time.monotonic()
        for req in reqs:
            self._observe_hist("queue_wait_seconds", t0 - req.submitted)
        try:
            ids, dists, after = run(qmat)
        except ClusterError as exc:
            # a whole shard is gone: fail this group (capacity degraded,
            # never a partial/incorrect merge), keep serving other groups
            self._count("shard_errors")
            MicroBatcher.fail_all(reqs, exc)
            return
        seconds = time.monotonic() - t0
        self._count("batches")
        if shed:
            self._count("shed_served", len(reqs))
        self._observe_hist("batch_seconds", seconds)
        self._observe_hist("batch_size", len(reqs))
        self._emit(self.spec.batch_after, **payload, seconds=seconds, **after)

        now = time.monotonic()
        late = 0
        for i, req in enumerate(reqs):
            # deadline enforcement, part 2: a result completed past its
            # deadline is a timeout, never a late success
            if req.expired(now):
                late += 1
                over_ms = (now - req.deadline) * 1000.0
                msg = f"execution finished {over_ms:.1f}ms past the deadline"
                req.future.set_exception(DeadlineExceeded(msg))
                continue
            if self.cache is not None and not shed:
                # store under the epoch actually *served*, not the one the
                # key was cut with at submit time - if a flip landed in
                # between, the entry must be findable by post-flip lookups
                # and unreachable from pre-flip ones
                key = self.cache.key(req.query, k, ef, epoch)
                self.cache.put(key, (ids[i], dists[i], served_ef))
            self._complete(req, ids[i], dists[i], served_ef, epoch, batch_size=len(reqs))
        if late:
            self._count("timeout_late", late)
            self._emit(Events.SERVE_REQUEST_TIMEOUT, phase="late", count=late)

    def _complete(self, req, ids, dists, served_ef, epoch, *, batch_size: int) -> None:
        """Resolve one request successfully (``batch_size=0``: a cache hit)."""
        latency = time.monotonic() - req.submitted
        self._observe_latency(latency)
        self._count("completed")
        result = SearchResult(
            ids=ids,
            dists=dists,
            served_ef=served_ef,
            from_cache=batch_size == 0,
            shard_fanout=self.executor.fanout,
            latency_ms=latency * 1000.0,
            batch_size=batch_size,
            epoch=epoch,
        )
        resolve(req.future, result)

    # -- observability ---------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        """Bump a counter, mirrored into the obs registry so the accounting
        survives a trace export, not just :meth:`stats`."""
        with self._lock:
            self.counters[name] += n
            if self.obs is not None:
                self.obs.metrics.counter(self.spec.prefix + name).inc(n)

    def _emit(self, event: str, **payload: Any) -> None:
        if self.obs is not None:
            self.obs.hooks.emit(event, **payload)

    def _gauge(self, name: str, value: float) -> None:
        if self.obs is not None:
            with self._lock:
                self.obs.metrics.gauge(self.spec.prefix + name).set(value)

    def _observe_hist(self, name: str, value: float) -> None:
        if self.obs is not None:
            with self._lock:
                self.obs.metrics.histogram(self.spec.prefix + name).observe(value)

    def _observe_latency(self, seconds: float) -> None:
        with self._lock:
            self._latencies_ok.append(seconds)
            if self.obs is not None:
                hist = self.obs.metrics.quantile_histogram(self.spec.prefix + "latency_seconds")
                hist.observe(seconds)

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p95/p99 (milliseconds) of the latest successful responses."""
        with self._lock:
            lat = sorted(self._latencies_ok)
        if not lat:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}

        def pct(p: float) -> float:
            return lat[min(len(lat) - 1, int(round(p * (len(lat) - 1))))] * 1000.0

        return {"p50": pct(0.50), "p95": pct(0.95), "p99": pct(0.99)}

    def stats(self) -> dict[str, Any]:
        """A snapshot of the counters, queue state, latencies and executor."""
        queue = self._queue
        with self._lock:
            counters = dict(self.counters)
        out: dict[str, Any] = {
            "engine": self.spec.engine,
            **counters,
            "timeouts": counters["timeout_queued"] + counters["timeout_late"],
            "queue_depth": queue.depth() if queue is not None else 0,
            "queue_limit": self._serve.admission.queue_limit,
            "shed_level": self.degradation.level,
            "shed_transitions": self.degradation.transitions,
            "latency_ms": self.latency_percentiles(),
            **self.executor.stats(),
        }
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out
