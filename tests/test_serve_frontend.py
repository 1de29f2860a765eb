"""The one serving envelope, exercised through both of its frontends.

``KNNServer`` and ``ClusterClient`` are the same
:class:`~repro.serve.frontend.ServingFrontend` over different executors,
so every envelope guarantee - cache hits that skip the engine, synchronous
overload, two-phase deadlines, ``ef``-shedding and its recovery, the
never-cache-a-shed-result rule and the shutdown contract - is asserted
once, parametrized over a single-index server and a 2-shard thread-backend
cluster.  The engine underneath is a probe that counts calls, records the
served ``ef`` and can be made slow; in the cluster every shard index is
wrapped, so one group costs ``fanout`` calls.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.apps.search import GraphSearchIndex, SearchConfig
from repro.core.config import BuildConfig
from repro.core.sharding import shard_partition
from repro.errors import DeadlineExceeded, ServerClosed, ServerOverloaded
from repro.obs import Events, Observability
from repro.serve import (
    AdmissionPolicy,
    CachePolicy,
    ClusterClient,
    ClusterConfig,
    KNNServer,
    ServeConfig,
    ShedPolicy,
)

N, DIM, TOP_K = 800, 12, 5
KINDS = ["server", "cluster"]
FANOUT = {"server": 1, "cluster": 2}


def _build(x):
    return GraphSearchIndex.build(
        x,
        build_config=BuildConfig(k=8, strategy="tiled", seed=0),
        search_config=SearchConfig(ef=24),
    )


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(7).standard_normal((N, DIM), dtype=np.float32)


@pytest.fixture(scope="module")
def indexes(points):
    """One flat index (server) and the 2-shard indexes (cluster)."""
    ranges = shard_partition(N, 2)
    return _build(points), [_build(points[lo:hi]) for lo, hi in ranges], ranges


class Engine:
    """Shared call log of every probe of one frontend."""

    def __init__(self, delay_s: float = 0.0):
        self.delay_s = delay_s
        self.calls = 0
        self.efs: list[int] = []
        self.lock = threading.Lock()


class Probe:
    """Index proxy: counts ``search`` calls, records ``ef``, sleeps."""

    def __init__(self, inner, engine: Engine):
        self.inner = inner
        self.engine = engine

    def __getattr__(self, name):  # dim, n, config, stats
        return getattr(self.inner, name)

    def search(self, q, k, *, ef=None):
        with self.engine.lock:
            self.engine.calls += 1
            self.engine.efs.append(ef)
        if self.engine.delay_s:
            time.sleep(self.engine.delay_s)
        return self.inner.search(q, k, ef=ef)


def make(kind, indexes, serve: ServeConfig, engine: Engine, obs=None):
    flat, shards, ranges = indexes
    if kind == "server":
        return KNNServer(Probe(flat, engine), serve, obs=obs)
    config = ClusterConfig(n_shards=2, backend="thread", serve=serve)
    return ClusterClient([Probe(s, engine) for s in shards], ranges, config, obs=obs)


def admission(**kw) -> AdmissionPolicy:
    return AdmissionPolicy(**{"max_batch": 8, "max_wait_ms": 1.0, **kw})


@pytest.mark.parametrize("kind", KINDS)
class TestServingEnvelope:
    def test_cache_hit_bypasses_engine(self, kind, indexes, points):
        engine = Engine()
        serve = ServeConfig(admission=admission(), cache=CachePolicy(size=32))
        with make(kind, indexes, serve, engine) as client:
            first = client.query(points[0], TOP_K, timeout=10.0)
            calls_after_first = engine.calls
            second = client.query(points[0], TOP_K, timeout=10.0)
            stats = client.stats()
        assert not first.from_cache and second.from_cache
        assert calls_after_first == FANOUT[kind]
        assert engine.calls == calls_after_first  # no extra engine call
        assert np.array_equal(first.ids, second.ids)
        assert np.array_equal(first.dists, second.dists)
        assert second.epoch == first.epoch == 0
        assert second.shard_fanout == first.shard_fanout == FANOUT[kind]
        assert second.batch_size == 0
        assert stats["cache_hits"] == 1
        assert stats["completed"] == 2

    def test_overload_rejection_is_synchronous(self, kind, indexes, points):
        """Past the high-water mark submit raises ServerOverloaded."""
        serve = ServeConfig(admission=admission(max_batch=1, max_wait_ms=0.0, queue_limit=4))
        client = make(kind, indexes, serve, Engine(delay_s=0.05)).start()
        try:
            rejected = 0
            for i in range(32):
                try:
                    client.submit(points[i], TOP_K)
                except ServerOverloaded as exc:
                    rejected += 1
                    assert exc.queue_depth >= 4
            # 4 queue slots + at most 2 batches held by the scheduler can
            # be admitted before the submit burst outruns the slow engine
            assert rejected >= 32 - 4 - 2 - 4
            assert client.stats()["rejected"] == rejected
        finally:
            client.stop(drain=True, timeout=60.0)

    def test_deadline_expiring_while_queued(self, kind, indexes, points):
        """An expired request is dropped before scoring, not after."""
        engine = Engine()
        serve = ServeConfig(admission=admission(max_batch=64, max_wait_ms=120.0, queue_limit=8))
        with make(kind, indexes, serve, engine) as client:
            fut = client.submit(points[0], TOP_K, deadline_ms=1.0)
            with pytest.raises(DeadlineExceeded, match="while queued"):
                fut.result(timeout=10.0)
            stats = client.stats()
        assert engine.calls == 0  # never reached the engine
        assert stats["timeout_queued"] == 1
        assert stats["completed"] == 0

    def test_late_result_is_timeout_not_success(self, kind, indexes, points):
        """A result finishing past its deadline resolves as DeadlineExceeded."""
        engine = Engine(delay_s=0.08)
        serve = ServeConfig(admission=admission(max_batch=4))
        with make(kind, indexes, serve, engine) as client:
            fut = client.submit(points[0], TOP_K, deadline_ms=40.0)
            with pytest.raises(DeadlineExceeded, match="past the deadline"):
                fut.result(timeout=10.0)
            stats = client.stats()
        assert engine.calls == FANOUT[kind]  # it *was* scored, then discarded
        assert stats["timeout_late"] == 1
        assert stats["completed"] == 0

    def test_shed_reduces_ef_and_recovers(self, kind, indexes, points):
        """Sustained queue pressure sheds ef; relief restores it."""
        engine = Engine(delay_s=0.02)
        obs = Observability()
        changes = []
        obs.hooks.subscribe(Events.SERVE_SHED_CHANGE, lambda event, payload: changes.append(payload))
        serve = ServeConfig(
            admission=admission(max_batch=2, queue_limit=10),
            ef=32,
            shed=ShedPolicy(
                high_water=0.3,
                low_water=0.05,
                step_up_after=1,
                step_down_after=2,
                factor=0.5,
                min_ef=8,
                max_level=2,
            ),
        )
        with make(kind, indexes, serve, engine, obs=obs) as client:
            futs = []
            for i in range(24):
                try:
                    futs.append(client.submit(points[i], TOP_K))
                except ServerOverloaded:
                    pass
            burst = [f.result(timeout=30.0) for f in futs]
            # an idle queue steps the level down one flush pair at a time
            calm = [client.query(points[i], TOP_K, timeout=10.0) for i in range(8)]
            stats = client.stats()
        served_efs = {r.served_ef for r in burst}
        assert served_efs & {16, 8}, f"expected shed ef in served set, got {served_efs}"
        assert min(engine.efs) < 32
        assert stats["shed_served"] > 0
        assert any(c["new_level"] > c["old_level"] for c in changes)
        assert calm[-1].served_ef == 32
        assert client.degradation.level == 0
        assert changes[-1]["new_level"] == 0

    def test_shed_results_not_cached(self, kind, indexes, points):
        """The cache only ever stores full-quality results."""
        serve = ServeConfig(
            admission=admission(max_batch=2, queue_limit=4),
            cache=CachePolicy(size=64),
            ef=32,
            shed=ShedPolicy(high_water=0.25, step_up_after=1, max_level=1),
        )
        client = make(kind, indexes, serve, Engine())
        client.degradation.level = 1  # a permanent shed level
        with client:
            res = client.query(points[0], TOP_K, timeout=10.0)
        assert res.served_ef < 32
        assert len(client.cache) == 0

    def test_shutdown_without_drain_fails_pending(self, kind, indexes, points):
        """``stop(drain=False)`` fails what is still queued with ServerClosed."""
        serve = ServeConfig(admission=admission(max_batch=1, max_wait_ms=0.0))
        client = make(kind, indexes, serve, Engine(delay_s=0.3)).start()
        # one batch executing and one formed hold both scheduler slots;
        # the rest stay in the admission queue until the stop drops them
        futs = [client.submit(points[i], TOP_K) for i in range(6)]
        client.stop(drain=False, timeout=30.0)
        closed = 0
        for fut in futs:
            try:
                assert fut.result(timeout=10.0).ids.shape == (TOP_K,)
            except ServerClosed:
                closed += 1
        assert closed >= 1
        assert client.stats()["cancelled"] == closed

    def test_submit_after_stop_raises(self, kind, indexes, points):
        client = make(kind, indexes, ServeConfig(), Engine()).start()
        client.stop()
        with pytest.raises(ServerClosed):
            client.submit(points[0], TOP_K)
