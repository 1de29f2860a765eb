"""The single-index online K-NN query server and the serving config.

:class:`KNNServer` turns the batched query engine into an online service:
many client threads each submit one ``(query_vector, k, ef, deadline)``
request and get a future back.  It is the
:class:`~repro.serve.frontend.ServingFrontend` (admission, micro-batching,
deadlines, shedding, the epoch-keyed cache, ``serve/*`` metrics and
``SERVE_*`` events) over a :class:`LocalExecutor`, which answers each
``(k, ef)`` group with one ``search`` call on the index's pinned view.

Configuration is the frozen, sectioned :class:`ServeConfig`
(:class:`AdmissionPolicy` / :class:`DeadlinePolicy` / :class:`CachePolicy`
/ :class:`QuantizationPolicy` / :class:`~repro.serve.degrade.ShedPolicy`),
shared with :class:`~repro.serve.cluster.ClusterConfig`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import Events, Observability
from repro.serve.client import engine_view, index_ef
from repro.serve.degrade import ShedPolicy
from repro.serve.frontend import Executor, FrontendSpec, GroupCall, ServingFrontend
from repro.utils.validation import check_positive_int

#: registry namespace the serving metrics emit under
SERVE_METRICS_PREFIX = "serve/"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Micro-batching and backpressure knobs.

    Attributes
    ----------
    max_batch:
        Flush a micro-batch at this many coalesced requests.
    max_wait_ms:
        ... or when the oldest request of the forming batch has waited
        this long, whichever comes first.  The knob trades per-request
        latency floor against batch width.
    queue_limit:
        Admission high-water mark: :meth:`KNNServer.submit` raises
        :class:`~repro.errors.ServerOverloaded` when this many requests
        are already queued.
    n_workers:
        Execution pool size (see :class:`~repro.serve.scheduler.MicroBatcher`).
    """

    max_batch: int = 64
    max_wait_ms: float = 2.0
    queue_limit: int = 256
    n_workers: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "max_batch", check_positive_int(self.max_batch, "max_batch"))
        object.__setattr__(
            self, "queue_limit",
            check_positive_int(self.queue_limit, "queue_limit"))
        object.__setattr__(
            self, "n_workers", check_positive_int(self.n_workers, "n_workers"))
        if self.max_wait_ms < 0:
            raise ConfigurationError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}"
            )
        object.__setattr__(self, "max_wait_ms", float(self.max_wait_ms))


@dataclass(frozen=True)
class DeadlinePolicy:
    """Deadline defaults.

    ``default_ms`` is applied to requests that do not carry their own
    deadline (``None`` = no deadline).
    """

    default_ms: float | None = None

    def __post_init__(self) -> None:
        if self.default_ms is not None and self.default_ms <= 0:
            raise ConfigurationError(
                f"deadline default_ms must be > 0, got {self.default_ms}"
            )


@dataclass(frozen=True)
class CachePolicy:
    """Result-cache knobs: LRU ``size`` (0 disables) and the quantization
    grid ``decimals`` of the cache key (see
    :class:`~repro.serve.cache.ResultCache`)."""

    size: int = 0
    decimals: int = 6

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ConfigurationError(
                f"cache size must be >= 0, got {self.size}"
            )
        object.__setattr__(
            self, "decimals", check_positive_int(self.decimals, "decimals"))


@dataclass(frozen=True)
class QuantizationPolicy:
    """Compressed-tier knobs the serving stack forwards to its indexes.

    ``mode`` is a :func:`repro.core.quant.parse_quantization` spec
    (``"none"``, ``"sq8"``, ``"pq<M>"``); ``rerank`` is the
    full-precision rerank width (``0`` = the whole beam).  The policy
    maps 1:1 onto :class:`~repro.apps.search.SearchConfig` fields - see
    :meth:`to_search_fields` - so servers, cluster shards and the CLI
    all build quantized stores the same way.
    """

    mode: str = "none"
    rerank: int = 0

    def __post_init__(self) -> None:
        from repro.core.quant import parse_quantization

        # store the canonical spec, not the raw string: downstream spec
        # comparisons (SearchConfig, persisted stores) are string equality
        object.__setattr__(self, "mode", parse_quantization(self.mode).spec)
        object.__setattr__(self, "rerank", int(self.rerank))
        if self.rerank < 0:
            raise ConfigurationError(
                f"quant rerank must be >= 0, got {self.rerank}"
            )

    def to_search_fields(self) -> dict[str, Any]:
        """The :class:`~repro.apps.search.SearchConfig` kwargs this maps to."""
        return {"quantization": self.mode, "rerank": self.rerank}


_SECTION_TYPES = {
    "admission": AdmissionPolicy,
    "deadline": DeadlinePolicy,
    "cache": CachePolicy,
    "quant": QuantizationPolicy,
    "shed": ShedPolicy,
}


@dataclass(frozen=True)
class ServeConfig:
    """Serving parameters, grouped into frozen policy sections.

    Attributes
    ----------
    admission:
        Micro-batching + backpressure (:class:`AdmissionPolicy`).
    deadline:
        Deadline defaults (:class:`DeadlinePolicy`).
    cache:
        Result caching (:class:`CachePolicy`).
    quant:
        Compressed vector tier (:class:`QuantizationPolicy`) forwarded
        to the indexes the stack builds.
    shed:
        The degradation policy (:class:`~repro.serve.degrade.ShedPolicy`).
    default_k:
        ``k`` used when a request does not specify one.
    ef:
        Full-quality beam width served at (``None`` = the index's
        configured ``ef``).

    ``from_dict``/``as_dict`` round-trip the nested form for CLI/JSON use.
    """

    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    deadline: DeadlinePolicy = field(default_factory=DeadlinePolicy)
    cache: CachePolicy = field(default_factory=CachePolicy)
    quant: QuantizationPolicy = field(default_factory=QuantizationPolicy)
    shed: ShedPolicy = field(default_factory=ShedPolicy)
    default_k: int = 10
    ef: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "default_k", check_positive_int(self.default_k, "default_k"))
        if self.ef is not None:
            object.__setattr__(self, "ef", check_positive_int(self.ef, "ef"))

    # -- JSON / CLI round-trip --------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """Nested plain-dict form (the inverse of :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "ServeConfig":
        """Build a config from the nested dict form."""
        data = dict(mapping)
        for name, cls_ in _SECTION_TYPES.items():
            if name in data and not isinstance(data[name], cls_):
                data[name] = cls_(**data[name])
        return cls(**data)


class LocalExecutor(Executor):
    """Frontend executor over one in-process index.

    Pins the index's view once per ``(k, ef)`` group - a mutable index's
    current ``snapshot``, so a group never mixes two graph versions while
    the writer flips epochs - and makes one ``search`` call on it.
    """

    def __init__(self, index: Any) -> None:
        self.index = index

    def epoch(self) -> int:
        return int(getattr(engine_view(self.index), "epoch", 0))

    def pin(self, k: int, ef: int) -> tuple[GroupCall, int, dict[str, Any]]:
        view = engine_view(self.index)
        epoch = int(getattr(view, "epoch", 0))

        def run(qmat: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
            ids, dists = view.search(qmat, k, ef=ef)
            return ids, dists, {}

        return run, epoch, {"epoch": epoch}


SERVER_SPEC = FrontendSpec(
    engine="knn-server", noun="server", prefix=SERVE_METRICS_PREFIX,
    start_event=Events.SERVE_START, stop_event=Events.SERVE_STOP,
    batch_before=Events.SERVE_BATCH_BEFORE,
    batch_after=Events.SERVE_BATCH_AFTER,
)


class KNNServer(ServingFrontend):
    """The serving frontend over one fitted search index.

    Usage::

        index = GraphSearchIndex.build(points, k=16)
        config = ServeConfig(admission=AdmissionPolicy(max_batch=64))
        with KNNServer(index, config) as server:
            fut = server.submit(query_vector, k=10, deadline_ms=50.0)
            result = fut.result()          # SearchResult (or raises)

    The index must expose ``search(queries, k, *, ef=None)`` over a fixed
    ``dim``: a :class:`~repro.apps.search.GraphSearchIndex` or a
    :class:`~repro.core.mutable.MutableIndex`.
    """

    def __init__(
        self,
        index: Any,
        config: ServeConfig | None = None,
        *,
        obs: Observability | None = None,
    ) -> None:
        self.index = index
        self.config = config or ServeConfig()
        super().__init__(
            LocalExecutor(index), self.config, SERVER_SPEC,
            dim=index.dim, index_ef=index_ef(index),
            start_payload=dataclasses.asdict(self.config.admission), obs=obs,
        )
