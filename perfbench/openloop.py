"""Open-loop request driver timed from each request's due time.

``repro.serve.loadgen.open_loop`` times requests from ``submit`` (the
server's own ``latency_ms``), so a dispatcher that falls behind hides its
lateness.  Here request ``i`` is due at ``t0 + i / rate``; its latency runs
from that due time to the moment its future resolves, and the dispatcher's
lateness (submit start minus due time) is reported on its own.  The
dispatcher is the calling thread; nothing else is started.

Only the answer's ids and epoch are kept, and no future outlives its
resolution: a driver that holds thousands of result objects grows the heap
the interpreter's full collections walk, and their pauses would land in the
measured latencies.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Step:
    """One fixed-rate step: per-request timings and outcomes."""

    rate: float
    due: np.ndarray          # perf_counter seconds
    submit: np.ndarray       # perf_counter seconds at submit start
    done: np.ndarray         # perf_counter seconds at resolution (nan = never)
    ids: list                # answer ids, or None
    epoch: np.ndarray        # index epoch each answer was computed against
    errors: list             # exception type name, or None
    backlog_end: int         # requests unresolved when the schedule ended
    wrong: np.ndarray = field(default=None)  # set by the caller's checks

    @property
    def attempted(self) -> int:
        return int(self.due.size)

    @property
    def ok(self) -> np.ndarray:
        ok = np.array([e is None for e in self.errors]) & np.isfinite(self.done)
        if self.wrong is not None:
            ok &= ~self.wrong
        return ok

    @property
    def failed(self) -> int:
        return int(self.attempted - self.ok.sum())

    def latency_ms(self) -> np.ndarray:
        """Due-to-resolution latency of every successful request."""
        ok = self.ok
        return (self.done[ok] - self.due[ok]) * 1000.0

    def late_ms(self) -> np.ndarray:
        return (self.submit - self.due) * 1000.0


def tail(values: np.ndarray, q: float = 0.99) -> tuple[float, bool]:
    """The ``q`` quantile and whether at least ten samples lie beyond it."""
    if values.size == 0:
        return float("nan"), False
    return float(np.quantile(values, q)), values.size * (1.0 - q) >= 10


def run_step(submit, rate: float, seconds: float, *,
             drain_timeout_s: float = 60.0) -> Step:
    """Drive ``submit(i) -> Future`` at ``rate`` requests/s for ``seconds``.

    A synchronous exception from ``submit`` (admission rejection) and an
    exception set on the future (timeout, engine error) both count as
    failures; the caller adds wrong answers through :attr:`Step.wrong`.
    """
    n = max(1, int(round(rate * seconds)))
    due = np.empty(n)
    sub = np.empty(n)
    done = np.full(n, np.nan)
    epoch = np.zeros(n, dtype=np.int64)
    ids: list = [None] * n
    errors: list = [None] * n
    lock = threading.Lock()
    drained = threading.Event()
    state = {"outstanding": 0, "scheduled": False}

    def on_done(i: int, fut) -> None:
        t = time.perf_counter()
        exc = fut.exception()
        with lock:
            done[i] = t
            if exc is None:
                res = fut.result()
                ids[i] = res.ids
                epoch[i] = res.epoch
            else:
                errors[i] = type(exc).__name__
            state["outstanding"] -= 1
            if state["scheduled"] and state["outstanding"] == 0:
                drained.set()

    t0 = time.perf_counter() + 0.005
    for i in range(n):
        due[i] = t0 + i / rate
        wait_s = due[i] - time.perf_counter()
        if wait_s > 0:
            time.sleep(wait_s)
        sub[i] = time.perf_counter()
        try:
            fut = submit(i)
        except Exception as exc:  # admission rejection: a failed request
            errors[i] = type(exc).__name__
            continue
        with lock:
            state["outstanding"] += 1
        fut.add_done_callback(lambda f, i=i: on_done(i, f))
        del fut
    with lock:
        state["scheduled"] = True
        backlog = state["outstanding"]
        if backlog == 0:
            drained.set()
    drained.wait(drain_timeout_s)
    with lock:
        return Step(rate=rate, due=due, submit=sub, done=done.copy(),
                    ids=list(ids), epoch=epoch.copy(), errors=list(errors),
                    backlog_end=backlog)
