"""The micro-batching scheduler: batcher thread + execution worker pool.

One daemon *batcher* thread owns the admission queue's consumer side: it
blocks on :meth:`~repro.serve.queue.AdmissionQueue.take_batch`, which
hands it coalesced micro-batches (flush on ``max_batch`` or
``max_wait_s``, whichever first), and dispatches each batch to a small
:class:`~concurrent.futures.ThreadPoolExecutor` of *workers* that run the
frontend's execute callback (the engine call).  Separating the two means
batch *formation* never stalls behind batch *execution*: while a worker
scores one batch, the batcher is already coalescing the next - the
pipelining that keeps the engine fed at full batch width under load.

In-flight work is bounded by a semaphore of ``n_workers + 1`` permits
(the executing batches plus the one being formed).  Without that bound
the batcher would drain the admission queue into the executor's
*unbounded* internal queue as fast as clients submit, the admission
queue would never fill, and backpressure / queue-depth shedding would
never engage - overload would just become invisible unbounded queueing
one layer down.

The scheduler is engine-agnostic: it moves :class:`Request` objects and
calls ``execute(batch)``; deadlines, caching, degradation and metrics all
live in the execute callback of :class:`~repro.serve.frontend.ServingFrontend`.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.serve.queue import AdmissionQueue


@dataclass
class Request:
    """One in-flight query request.

    ``deadline`` is absolute :func:`time.monotonic` time (or ``None`` for
    no deadline); ``ef`` is the *requested* (full-quality) beam width -
    the shed policy may execute it lower.  The ``future`` resolves to a
    :class:`~repro.serve.client.SearchResult` or raises one of the
    :mod:`repro.errors` serve exceptions.
    """

    query: np.ndarray
    k: int
    ef: int
    deadline: float | None
    submitted: float
    future: Future = field(default_factory=Future)

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


class MicroBatcher:
    """Drains an :class:`AdmissionQueue` into an execute callback.

    Parameters
    ----------
    queue:
        The admission queue to consume.
    execute:
        ``execute(batch: list[Request]) -> None``; must resolve every
        request's future (success or exception).  Exceptions escaping the
        callback are caught and propagated to every unresolved future in
        the batch, so one poisoned batch cannot wedge clients.
    max_batch / max_wait_s:
        The coalescing rule (see :meth:`AdmissionQueue.take_batch`).
    n_workers:
        Size of the execution pool.  ``1`` serialises engine calls
        (deterministic, and the BLAS underneath already uses the cores);
        larger values overlap batches at the cost of engine-level metric
        races when an :class:`~repro.obs.Observability` is shared.
    """

    def __init__(
        self,
        queue: AdmissionQueue,
        execute: Callable[[list[Request]], None],
        *,
        max_batch: int,
        max_wait_s: float,
        n_workers: int = 1,
    ) -> None:
        self._queue = queue
        self._execute = execute
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)
        self.n_workers = int(n_workers)
        self._pool: ThreadPoolExecutor | None = None
        self._thread: threading.Thread | None = None
        # bounds in-flight batches: n_workers executing + 1 forming
        self._slots = threading.BoundedSemaphore(self.n_workers + 1)
        #: completed flush count (includes empty shutdown flushes)
        self.flushes = 0

    # -- lifecycle -------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            raise RuntimeError("batcher already running")
        self._pool = ThreadPoolExecutor(
            max_workers=self.n_workers, thread_name_prefix="serve-worker"
        )
        self._thread = threading.Thread(
            target=self._loop, name="serve-batcher", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float | None = None) -> None:
        """Stop the loop and wait for in-flight batches to finish.

        The queue must already be closed; any still-queued requests are
        flushed through ``execute`` first (the graceful drain), so a
        shutdown with an empty queue is exactly one empty flush.
        """
        thread, pool = self._thread, self._pool
        if thread is not None:
            thread.join(timeout=timeout)
            self._thread = None
        if pool is not None:
            pool.shutdown(wait=True)
            self._pool = None

    # -- the batcher loop ------------------------------------------------------

    def _loop(self) -> None:
        while True:
            # holding a slot before forming keeps total in-flight batches
            # bounded; when every worker is busy the admission queue backs
            # up and offer() starts rejecting - real backpressure
            self._slots.acquire()
            dispatched = False
            try:
                batch = self._queue.take_batch(self.max_batch, self.max_wait_s)
                self.flushes += 1
                if not batch:
                    # closed and drained: the empty flush on shutdown
                    return
                pool = self._pool
                assert pool is not None
                pool.submit(self._run_batch, batch)
                dispatched = True
            finally:
                if not dispatched:
                    self._slots.release()

    def _run_batch(self, batch: list[Request]) -> None:
        try:
            self._execute(batch)
        except BaseException as exc:  # noqa: BLE001 - must reach the clients
            for req in batch:
                if not req.future.done():
                    req.future.set_exception(exc)
        finally:
            self._slots.release()

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def fail_all(batch: list[Request], exc: BaseException) -> None:
        """Resolve every unresolved future in ``batch`` with ``exc``."""
        for req in batch:
            if not req.future.done():
                req.future.set_exception(exc)


def resolve(future: Future, value: Any) -> None:
    """Set a future's result, ignoring the already-resolved race."""
    if not future.done():
        future.set_result(value)
