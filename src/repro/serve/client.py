"""The unified ``SearchClient`` surface of the serving stack.

Every way of answering online K-NN queries - the in-process micro-batching
:class:`~repro.serve.server.KNNServer`, the sharded multi-replica
:class:`~repro.serve.cluster.ClusterClient` (both
:class:`~repro.serve.frontend.ServingFrontend` instances), and the
zero-infrastructure :class:`DirectClient` below - speaks the same protocol:

* ``submit(query, k, *, ef=None, deadline_ms=None) -> Future`` - async
  submission; the future resolves to a :class:`SearchResult` or raises one
  of the :mod:`repro.errors` serve exceptions;
* ``query(...) -> SearchResult`` - the blocking convenience wrapper;
* ``stats()`` - a flat-ish dict of serving counters;
* ``close()`` - release whatever the client holds (threads, processes);
* ``dim`` / ``default_ef`` - what load generators need to shape traffic.

Benchmarks, load generators and examples consume only this surface, so a
single-process server and a sharded cluster are interchangeable behind it.
Every frontend resolves requests to one :class:`SearchResult`.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.errors import DeadlineExceeded, ServerClosed
from repro.utils.validation import check_positive_int, check_query_vector


@dataclass(frozen=True)
class SearchResult:
    """One resolved search request.

    Attributes
    ----------
    ids / dists:
        ``(k,)`` arrays, ascending distance (the engine's contract);
        unfilled slots carry ``-1`` / ``+inf``.
    served_ef:
        The beam width actually served (lower than requested under
        shedding).
    from_cache:
        The answer came from the result cache without touching an engine.
    shard_fanout:
        How many index shards contributed to the answer (1 for
        single-index serving).
    latency_ms:
        Submit-to-resolve wall time.
    batch_size:
        How many requests shared the engine call (0 for cache hits).
    epoch:
        Index epoch the answer was computed against (0 for static
        indexes; mutable indexes bump it on every insert/delete/compact
        flip, so a client can correlate answers with index versions).
    """

    ids: np.ndarray
    dists: np.ndarray
    served_ef: int
    from_cache: bool = False
    shard_fanout: int = 1
    latency_ms: float = 0.0
    batch_size: int = 1
    epoch: int = 0


def engine_view(index: Any) -> Any:
    """The engine to search: a mutable index's current epoch-stamped
    ``snapshot``, or a static index itself (implicit epoch 0)."""
    return getattr(index, "snapshot", index)


def index_ef(index: Any) -> int:
    """The beam width an index is configured to search at (default 32)."""
    return int(getattr(getattr(index, "config", None), "ef", 32))


@runtime_checkable
class SearchClient(Protocol):
    """What every serving front-end implements (see the module docstring).

    ``query`` takes one query *vector* and returns one
    :class:`SearchResult`; batching (if any) is an implementation detail
    behind the protocol.
    """

    def submit(
        self,
        query: np.ndarray,
        k: int | None = None,
        *,
        ef: int | None = None,
        deadline_ms: float | None = None,
    ) -> Future: ...

    def query(
        self,
        query: np.ndarray,
        k: int | None = None,
        *,
        ef: int | None = None,
        deadline_ms: float | None = None,
        timeout: float | None = None,
    ) -> SearchResult: ...

    def stats(self) -> dict[str, Any]: ...

    def close(self) -> None: ...

    @property
    def dim(self) -> int: ...

    @property
    def default_ef(self) -> int: ...


class DirectClient:
    """:class:`SearchClient` over an in-process index - no queue, no threads.

    The degenerate implementation of the protocol: every ``query`` is one
    synchronous engine call on the calling thread.  Useful as the
    benchmark baseline (what does the serving envelope cost?) and for
    tests that want protocol-shaped results without a server lifecycle.

    The index must expose ``search(queries, k, *, ef=None)`` over a fixed
    ``dim`` - :class:`~repro.apps.search.GraphSearchIndex` is the
    intended engine.
    """

    def __init__(
        self,
        index: Any,
        *,
        default_k: int = 10,
        ef: int | None = None,
    ) -> None:
        self.index = index
        self._dim = int(index.dim)
        self._default_k = check_positive_int(default_k, "default_k")
        self._ef = check_positive_int(index_ef(index) if ef is None else ef, "ef")
        self._closed = False
        self._queries = 0

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def default_ef(self) -> int:
        return self._ef

    def query(
        self,
        query: np.ndarray,
        k: int | None = None,
        *,
        ef: int | None = None,
        deadline_ms: float | None = None,
        timeout: float | None = None,
    ) -> SearchResult:
        if self._closed:
            raise ServerClosed("query() on a closed DirectClient")
        q = check_query_vector(query, self._dim, "query")
        k = self._default_k if k is None else check_positive_int(k, "k")
        ef = self._ef if ef is None else check_positive_int(ef, "ef")
        t0 = time.monotonic()
        # pin one view for the call: against a mutable index this is the
        # epoch-stamped snapshot, so the reported epoch is exactly the
        # graph version that produced the answer
        engine = engine_view(self.index)
        ids, dists = engine.search(q[None, :], k, ef=ef)
        latency_ms = (time.monotonic() - t0) * 1000.0
        self._queries += 1
        if deadline_ms is not None and latency_ms > deadline_ms:
            # same discipline as the server: never a late success
            raise DeadlineExceeded(
                f"direct call took {latency_ms:.1f}ms against a "
                f"{deadline_ms:.1f}ms deadline"
            )
        return SearchResult(
            ids=ids[0], dists=dists[0], served_ef=ef, from_cache=False,
            shard_fanout=1, latency_ms=latency_ms, batch_size=1,
            epoch=int(getattr(engine, "epoch", 0)),
        )

    def submit(
        self,
        query: np.ndarray,
        k: int | None = None,
        *,
        ef: int | None = None,
        deadline_ms: float | None = None,
    ) -> Future:
        """Protocol-shaped async submit (executes synchronously)."""
        fut: Future = Future()
        try:
            fut.set_result(self.query(query, k, ef=ef, deadline_ms=deadline_ms))
        except Exception as exc:  # noqa: BLE001 - deliver through the future
            fut.set_exception(exc)
        return fut

    def stats(self) -> dict[str, Any]:
        return {
            "engine": "direct-client",
            "queries": self._queries,
            "index": self.index.stats(),
        }

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "DirectClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
