"""Tests for the ``repro.serve`` online query service.

Covers the scheduler edge cases (empty flush on shutdown, single request
below ``max_wait_ms``, batch-size-independent determinism, draining
shutdown) plus the admission queue, degradation controller, result
cache, query validation, obs integration and the load generators.  The
envelope guarantees shared by ``KNNServer`` and ``ClusterClient`` -
cache hits, overload, deadlines, shedding, shutdown - are asserted once
over both in ``test_serve_frontend.py``.
"""

import threading
import time

import numpy as np
import pytest

from repro.apps.search import GraphSearchIndex, SearchConfig
from repro.core.config import BuildConfig
from repro.obs import Events, Observability
from repro.serve import (
    AdmissionPolicy,
    AdmissionQueue,
    CachePolicy,
    DegradationController,
    KNNServer,
    ResultCache,
    ServeConfig,
    ShedPolicy,
    closed_loop,
    open_loop,
)


@pytest.fixture(scope="module")
def index():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1500, 12), dtype=np.float32)
    return GraphSearchIndex.build(
        x,
        build_config=BuildConfig(k=8, strategy="tiled", seed=0),
        search_config=SearchConfig(ef=24),
    )


@pytest.fixture(scope="module")
def queries(index):
    rng = np.random.default_rng(8)
    x = index._engine._x
    return x[rng.choice(x.shape[0], size=48, replace=False)]


class CountingIndex:
    """Engine proxy that counts ``search`` calls and rows scored."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.rows = 0
        self.lock = threading.Lock()

    @property
    def dim(self):
        return self.inner.dim

    @property
    def config(self):
        return self.inner.config

    def search(self, q, k, *, ef=None):
        with self.lock:
            self.calls += 1
            self.rows += q.shape[0]
        return self.inner.search(q, k, ef=ef)


class TestAdmissionQueue:
    def test_offer_take_fifo(self):
        q = AdmissionQueue(limit=4)
        assert q.offer("a") and q.offer("b")
        assert q.take_batch(10, 0.0) == ["a", "b"]

    def test_offer_rejects_at_limit(self):
        q = AdmissionQueue(limit=2)
        assert q.offer(1) and q.offer(2)
        assert not q.offer(3)
        assert q.depth() == 2

    def test_take_batch_flushes_on_max_batch(self):
        q = AdmissionQueue(limit=16)
        for i in range(6):
            q.offer(i)
        assert q.take_batch(4, 10.0) == [0, 1, 2, 3]
        assert q.take_batch(4, 0.0) == [4, 5]

    def test_take_batch_flushes_on_timer(self):
        q = AdmissionQueue(limit=16)
        q.offer("only")
        t0 = time.monotonic()
        batch = q.take_batch(64, 0.05)
        waited = time.monotonic() - t0
        assert batch == ["only"]
        assert waited >= 0.04

    def test_close_wakes_blocked_consumer(self):
        q = AdmissionQueue(limit=4)
        got = []
        t = threading.Thread(target=lambda: got.append(q.take_batch(8, 5.0)))
        t.start()
        time.sleep(0.05)
        q.close()
        t.join(timeout=2.0)
        assert not t.is_alive()
        assert got == [[]]
        assert not q.offer("late")


class TestDegradation:
    def test_levels_rise_and_recover_with_hysteresis(self):
        c = DegradationController(ShedPolicy(
            high_water=0.5, low_water=0.1, step_up_after=2,
            step_down_after=2, factor=0.5, min_ef=8, max_level=3,
        ))
        assert c.observe(60, 100) == 0       # 1st pressure observation
        assert c.observe(60, 100) == 1       # 2nd -> shed one level
        assert c.effective_ef(64) == 32
        assert c.observe(60, 100) == 1
        assert c.observe(60, 100) == 2
        assert c.effective_ef(64) == 16
        assert c.observe(5, 100) == 2        # 1st relief observation
        assert c.observe(5, 100) == 1        # 2nd -> recover one level
        assert c.observe(5, 100) == 1
        assert c.observe(5, 100) == 0
        assert c.effective_ef(64) == 64

    def test_min_ef_floor(self):
        c = DegradationController(ShedPolicy(
            step_up_after=1, factor=0.5, min_ef=20, max_level=3))
        for _ in range(3):
            c.observe(100, 100)
        assert c.level == 3
        assert c.effective_ef(64) == 20      # not 8
        assert c.effective_ef(10) == 10      # never raises ef above requested

    def test_disabled_policy_is_identity(self):
        c = DegradationController(ShedPolicy(enabled=False))
        for _ in range(10):
            assert c.observe(100, 100) == 0
        assert c.effective_ef(64) == 64

    def test_midband_resets_streaks(self):
        c = DegradationController(ShedPolicy(
            high_water=0.5, low_water=0.1, step_up_after=2))
        c.observe(60, 100)
        c.observe(30, 100)                   # mid band: streak broken
        assert c.observe(60, 100) == 0       # needs 2 consecutive again
        assert c.observe(60, 100) == 1


class TestResultCache:
    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put(b"a", 1)
        cache.put(b"b", 2)
        assert cache.get(b"a") == 1          # touches a
        cache.put(b"c", 3)                   # evicts b (least recent)
        assert cache.get(b"b") is None
        assert cache.get(b"a") == 1 and cache.get(b"c") == 3

    def test_quantized_keys_collapse_near_duplicates(self):
        cache = ResultCache(capacity=4, decimals=2)
        a = np.array([0.123, 4.567], dtype=np.float32)
        b = a + 1e-4
        assert cache.key(a, 5, 32) == cache.key(b, 5, 32)
        assert cache.key(a, 5, 32) != cache.key(a, 6, 32)
        assert cache.key(a, 5, 32) != cache.key(a, 5, 64)

    def test_negative_zero_normalised(self):
        cache = ResultCache(capacity=2)
        a = np.array([0.0, 1.0], dtype=np.float32)
        b = np.array([-0.0, 1.0], dtype=np.float32)
        assert cache.key(a, 3, 8) == cache.key(b, 3, 8)


class TestSchedulerEdgeCases:
    def test_empty_flush_on_shutdown(self, index):
        """A server stopped with nothing queued joins cleanly."""
        server = KNNServer(index, ServeConfig(admission=AdmissionPolicy(max_batch=8, max_wait_ms=50.0)))
        server.start()
        batcher = server._batcher
        server.stop(timeout=5.0)
        assert not batcher.running
        assert server.stats()["completed"] == 0
        # restartable after a clean stop
        server.start()
        server.stop(timeout=5.0)

    def test_single_request_below_max_wait(self, index, queries):
        """A lone request flushes on the timer as a batch of one."""
        server = KNNServer(index, ServeConfig(admission=AdmissionPolicy(max_batch=64, max_wait_ms=30.0)))
        with server:
            t0 = time.monotonic()
            res = server.query(queries[0], 5, timeout=10.0)
            waited = time.monotonic() - t0
        assert res.batch_size == 1
        assert res.ids.shape == (5,)
        assert waited >= 0.025                # sat out the coalescing window
        assert server.stats()["completed"] == 1

    @pytest.mark.parametrize("max_batch", [1, 7, 64])
    def test_deterministic_for_any_max_batch(self, index, queries, max_batch):
        """Serving answers equal direct BatchedGraphSearch calls exactly."""
        direct_ids, direct_dists = index.search(queries, 5)
        server = KNNServer(index, ServeConfig(admission=AdmissionPolicy(
            max_batch=max_batch, max_wait_ms=5.0, queue_limit=256)))
        with server:
            futs = [server.submit(q, 5) for q in queries]
            results = [f.result(timeout=30.0) for f in futs]
        ids = np.stack([r.ids for r in results])
        dists = np.stack([r.dists for r in results])
        assert np.array_equal(ids, direct_ids)
        assert np.allclose(dists, direct_dists, equal_nan=True)

    def test_shutdown_drains_queued_requests(self, index, queries):
        server = KNNServer(index, ServeConfig(admission=AdmissionPolicy(max_batch=4, max_wait_ms=1.0)))
        server.start()
        futs = [server.submit(q, 5) for q in queries[:12]]
        server.stop(drain=True, timeout=30.0)
        for f in futs:
            assert f.result(timeout=1.0).ids.shape == (5,)


class TestServerProtocol:
    def test_validation_at_the_boundary(self, index, queries):
        with KNNServer(index) as server:
            with pytest.raises(ValueError, match="dimension"):
                server.submit(np.zeros(3, dtype=np.float32), 5)
            with pytest.raises(ValueError, match="NaN"):
                bad = queries[0].copy()
                bad[0] = np.nan
                server.submit(bad, 5)
            with pytest.raises(ValueError, match="1-D"):
                server.submit(queries[:2], 5)
            with pytest.raises(ValueError):
                server.submit(queries[0], 0)

    def test_accepts_row_matrix_query(self, index, queries):
        with KNNServer(index, ServeConfig(admission=AdmissionPolicy(max_wait_ms=1.0))) as server:
            res = server.query(queries[:1], 5, timeout=10.0)
        assert res.ids.shape == (5,)


class TestServeObservability:
    def test_metrics_hooks_and_trace(self, index, queries, tmp_path):
        from repro.obs.export import read_trace, write_trace
        from repro.serve.server import SERVE_METRICS_PREFIX

        obs = Observability()
        seen = []
        obs.hooks.subscribe("*", lambda event, payload: seen.append(event))
        server = KNNServer(index, ServeConfig(
            admission=AdmissionPolicy(max_batch=8, max_wait_ms=2.0),
            cache=CachePolicy(size=16)), obs=obs)
        with server:
            futs = [server.submit(q, 5) for q in queries[:16]]
            [f.result(timeout=30.0) for f in futs]
            server.query(queries[0], 5, timeout=10.0)  # cache hit
        events = set(seen)
        assert Events.SERVE_START in events
        assert Events.SERVE_BATCH_BEFORE in events
        assert Events.SERVE_BATCH_AFTER in events
        assert Events.SERVE_CACHE_HIT in events
        assert Events.SERVE_STOP in events

        section = obs.metrics.section(SERVE_METRICS_PREFIX)
        assert section["latency_seconds"]["count"] == 17
        for p in ("p50", "p95", "p99"):
            assert section["latency_seconds"][p] > 0
        assert section["batch_size"]["count"] >= 1
        # the serving counters are mirrored into the registry, so
        # shed/reject/timeout accounting survives a trace export
        assert section["completed"] == 17
        assert section["cache_hits"] == 1
        assert section["submitted"] == 17

        # the quantile histogram survives a trace round-trip
        path = write_trace(tmp_path / "serve.jsonl", obs)
        restored = read_trace(path)
        rsec = restored.metrics.section(SERVE_METRICS_PREFIX)
        assert rsec["latency_seconds"]["count"] == 17
        assert rsec["latency_seconds"]["p99"] == pytest.approx(
            section["latency_seconds"]["p99"])


class TestLoadgen:
    def test_closed_loop_all_answered(self, index, queries):
        server = KNNServer(index, ServeConfig(admission=AdmissionPolicy(
            max_batch=16, max_wait_ms=2.0, queue_limit=256)))
        with server:
            report = closed_loop(server, queries, 5, clients=6, repeat=2)
        assert report.ok == queries.shape[0] * 2
        assert report.rejected == report.timeouts == report.errors == 0
        assert report.throughput_qps > 0
        assert report.deadline_violations == 0
        # collected ids line up with direct engine answers
        direct_ids, _ = index.search(queries, 5)
        for qi, ids in report.ids.items():
            assert np.array_equal(ids, direct_ids[qi])

    def test_open_loop_under_overload_stays_up(self, index, queries):
        """2x-ish overload: server survives, rejects and/or times out."""

        class SlowIndex(CountingIndex):
            def search(self, q, k, *, ef=None):
                time.sleep(0.01)
                return super().search(q, k, ef=ef)

        server = KNNServer(SlowIndex(index), ServeConfig(admission=AdmissionPolicy(
            max_batch=4, max_wait_ms=1.0, queue_limit=8)))
        with server:
            report = open_loop(server, queries, 5, rate_qps=2000.0,
                               duration_s=0.6, deadline_ms=30.0, seed=3)
            # still alive and serving afterwards
            res = server.query(queries[0], 5, timeout=10.0)
        assert res.ids.shape == (5,)
        assert report.requests > 100
        assert report.rejected + report.timeouts > 0
        assert report.errors == 0
        assert report.deadline_violations == 0
