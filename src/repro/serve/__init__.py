"""``repro.serve``: the online query service, single-node and sharded.

The traffic layer between concurrent clients and the batched graph-search
engine.  Individual ``(query_vector, k, ef, deadline)`` requests are
admitted through a bounded queue, coalesced into micro-batches (flush on
``max_batch`` or ``max_wait_ms``), executed by a worker pool, and
resolved through per-request futures - with admission backpressure
(:class:`~repro.errors.ServerOverloaded`), deadline enforcement
(:class:`~repro.errors.DeadlineExceeded`), ``ef``-shedding degradation
under sustained load, and an optional LRU result cache.

Every serving frontend implements the same :class:`SearchClient`
protocol and returns :class:`SearchResult`, so they interchange freely:

* :class:`KNNServer` - one :class:`~repro.apps.search.GraphSearchIndex`
  (or :class:`~repro.core.mutable.MutableIndex`), one process;
* :class:`ClusterClient` - the dataset partitioned across ``S`` index
  shards with ``R`` replica workers each, health-aware scatter-gather
  routing and a packed-key merge (see :mod:`repro.serve.cluster`);
* :class:`DirectClient` - a thin synchronous adapter over a bare index,
  the no-envelope baseline the serving benchmarks compare against.

The first two share one request path,
:class:`~repro.serve.frontend.ServingFrontend`, and differ only in its
executor: a local one that searches the index, or a scatter-gather one
that fans out to the shards and merges.

Quickstart::

    from repro.apps.search import GraphSearchIndex
    from repro.serve import AdmissionPolicy, KNNServer, ServeConfig

    index = GraphSearchIndex.build(points, k=16)
    cfg = ServeConfig(admission=AdmissionPolicy(max_batch=64, max_wait_ms=2.0))
    with KNNServer(index, cfg) as srv:
        fut = srv.submit(query_vec, k=10, deadline_ms=50.0)
        result = fut.result()      # SearchResult(ids, dists, ...)

Sharded serving::

    from repro.serve import ClusterClient, ClusterConfig

    with ClusterClient.build(points, config=ClusterConfig(
            n_shards=4, n_replicas=2)) as cluster:
        result = cluster.query(query_vec, k=10)

Architecture, tuning guidance and SLO methodology: ``docs/serving.md``
and ``docs/cluster.md``.
"""

from repro.errors import (
    ClusterError,
    DeadlineExceeded,
    ReplicaUnavailable,
    ServeError,
    ServerClosed,
    ServerOverloaded,
    ShardUnavailable,
)
from repro.serve.cache import ResultCache
from repro.serve.client import DirectClient, SearchClient, SearchResult
from repro.serve.cluster import (
    CLUSTER_METRICS_PREFIX,
    ClusterClient,
    ClusterConfig,
    ShardRouter,
    merge_topk,
)
from repro.serve.degrade import DegradationController, ShedPolicy
from repro.serve.loadgen import (
    ChurnReport,
    LoadReport,
    churn_loop,
    closed_loop,
    open_loop,
    recall_against,
)
from repro.serve.queue import AdmissionQueue
from repro.serve.scheduler import MicroBatcher, Request
from repro.serve.server import (
    SERVE_METRICS_PREFIX,
    AdmissionPolicy,
    CachePolicy,
    DeadlinePolicy,
    KNNServer,
    ServeConfig,
)

__all__ = [
    "SearchClient",
    "SearchResult",
    "DirectClient",
    "KNNServer",
    "ServeConfig",
    "AdmissionPolicy",
    "DeadlinePolicy",
    "CachePolicy",
    "SERVE_METRICS_PREFIX",
    "ClusterClient",
    "ClusterConfig",
    "ShardRouter",
    "merge_topk",
    "CLUSTER_METRICS_PREFIX",
    "AdmissionQueue",
    "MicroBatcher",
    "Request",
    "ResultCache",
    "ShedPolicy",
    "DegradationController",
    "LoadReport",
    "ChurnReport",
    "closed_loop",
    "open_loop",
    "churn_loop",
    "recall_against",
    "ServeError",
    "ServerOverloaded",
    "ServerClosed",
    "DeadlineExceeded",
    "ClusterError",
    "ReplicaUnavailable",
    "ShardUnavailable",
]
