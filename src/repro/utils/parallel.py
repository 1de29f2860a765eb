"""Process-parallel helpers for CPU-side phases.

RP-forest trees are mutually independent, so the forest phase
parallelises trivially across processes.  The implementation uses
``fork`` workers (POSIX): the points matrix is made visible to children
through a module-level global *before* forking, so it is inherited
copy-on-write - no pickling, no copying of the (potentially large) data.

Determinism is preserved because each tree's RNG stream is derived from
the parent seed by index (see :func:`repro.utils.rng.spawn_streams`), so
the result is bitwise identical to the serial build regardless of worker
count or completion order.

On platforms without ``fork`` (or with ``n_jobs=1``) everything runs
serially - same results, no surprises.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, Sequence

#: worker-side view of the forked payload (set in the parent pre-fork)
_FORK_PAYLOAD: dict[str, Any] = {}


def fork_available() -> bool:
    """True when the 'fork' start method exists (Linux/macOS)."""
    try:
        multiprocessing.get_context("fork")
        return True
    except ValueError:  # pragma: no cover - non-POSIX
        return False


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    ``os.cpu_count()`` reports the machine; CI runners and containers
    often restrict the schedulable set, which is what matters when
    deciding whether ``n_jobs > 1`` can pay off.
    """
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def shard_ranges(total: int, n_shards: int) -> list[tuple[int, int]]:
    """Split ``[0, total)`` into at most ``n_shards`` near-even contiguous ranges.

    Used to shard batched work (e.g. a query matrix) across forked
    workers: every range is non-empty, sizes differ by at most one, and
    concatenating results in range order restores the original row order.
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    n_shards = min(n_shards, total)
    if n_shards <= 0:
        return []
    base, extra = divmod(total, n_shards)
    out: list[tuple[int, int]] = []
    start = 0
    for i in range(n_shards):
        stop = start + base + (1 if i < extra else 0)
        out.append((start, stop))
        start = stop
    return out


def _invoke(task: tuple[int, tuple]) -> tuple[int, Any]:
    index, args = task
    fn = _FORK_PAYLOAD["fn"]
    shared = _FORK_PAYLOAD["shared"]
    return index, fn(shared, *args)


def map_forked(
    fn: Callable,
    shared: Any,
    per_task_args: Sequence[tuple],
    n_jobs: int,
) -> list:
    """Run ``fn(shared, *args_i)`` for every task, order-preserving.

    ``shared`` (typically a large read-only array) is passed to workers by
    fork inheritance, not pickling.  ``fn`` is inherited the same way, so
    it may be a bound method.  Falls back to a serial loop
    when ``n_jobs <= 1``, there is only one task, or fork is unavailable.
    """
    tasks = list(enumerate(per_task_args))
    if n_jobs <= 1 or len(tasks) <= 1 or not fork_available():
        return [fn(shared, *args) for _, args in tasks]
    ctx = multiprocessing.get_context("fork")
    _FORK_PAYLOAD["fn"] = fn
    _FORK_PAYLOAD["shared"] = shared
    try:
        with ctx.Pool(processes=min(n_jobs, len(tasks))) as pool:
            results = pool.map(_invoke, tasks)
    finally:
        _FORK_PAYLOAD.clear()
    results.sort(key=lambda pair: pair[0])
    return [value for _, value in results]
