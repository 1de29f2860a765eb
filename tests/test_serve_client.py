"""The unified SearchClient surface: protocol conformance + config compat.

Three guarantees under test:

* every serving frontend (``KNNServer``, ``ClusterClient``,
  ``DirectClient``) satisfies the ``SearchClient`` protocol and returns
  ``SearchResult`` - the benchmarks/loadgen drive all of them through one
  interface;
* the sectioned ``ServeConfig`` (admission/deadline/cache) round-trips
  through ``as_dict``/``from_dict`` and rejects unknown keywords;
* the ``KNNIndex`` baseline protocol has one true ``query`` signature
  (``ef`` keyword-only) across every registered engine.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.apps.search import GraphSearchIndex
from repro.baselines import ENGINES, KNNIndex, get_engine
from repro.errors import ConfigurationError, DeadlineExceeded, ServerClosed
from repro.serve import (
    AdmissionPolicy,
    CachePolicy,
    ClusterClient,
    ClusterConfig,
    DeadlinePolicy,
    DirectClient,
    KNNServer,
    SearchClient,
    SearchResult,
    ServeConfig,
)

N, DIM, TOP_K = 300, 10, 5


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(11)
    return rng.standard_normal((N, DIM), dtype=np.float32)


@pytest.fixture(scope="module")
def index(points):
    return GraphSearchIndex.build(points, k=8, seed=3)


@pytest.fixture(scope="module")
def query(points):
    return points[0]


def client_factories(index, points):
    return {
        "server": lambda: KNNServer(index).start(),
        "cluster": lambda: ClusterClient.build(
            points, k=8, seed=3,
            config=ClusterConfig(n_shards=2, backend="thread")).start(),
        "direct": lambda: DirectClient(index),
    }


class TestSearchClientProtocol:
    @pytest.mark.parametrize("kind", ["server", "cluster", "direct"])
    def test_conformance(self, index, points, query, kind):
        client = client_factories(index, points)[kind]()
        try:
            assert isinstance(client, SearchClient)
            assert client.dim == DIM
            assert client.default_ef > 0

            res = client.query(query, TOP_K, timeout=30.0)
            assert isinstance(res, SearchResult)
            assert res.ids.shape == (TOP_K,)
            assert res.dists.shape == (TOP_K,)
            assert res.served_ef > 0
            assert res.from_cache is False
            assert res.latency_ms >= 0.0
            assert res.shard_fanout == (2 if kind == "cluster" else 1)

            fut = client.submit(query, TOP_K, ef=32)
            res2 = fut.result(timeout=30.0)
            assert np.array_equal(res2.ids[:1], res.ids[:1])

            stats = client.stats()
            assert isinstance(stats, dict) and "engine" in stats
        finally:
            client.close()
        with pytest.raises(ServerClosed):
            client.query(query, TOP_K)

    def test_loadgen_runs_on_every_client(self, index, points, query):
        from repro.serve import closed_loop

        queries = points[:12]
        for kind, factory in client_factories(index, points).items():
            client = factory()
            try:
                report = closed_loop(client, queries, TOP_K, clients=3,
                                     repeat=1)
            finally:
                client.close()
            assert report.ok == queries.shape[0], kind
            assert report.errors == 0, kind

    def test_direct_client_deadline_and_context(self, index, query):
        with DirectClient(index) as client:
            res = client.query(query, TOP_K, deadline_ms=60_000.0)
            assert res.ids.shape == (TOP_K,)
            with pytest.raises(DeadlineExceeded):
                client.query(query, TOP_K, deadline_ms=0.0)


class TestServeConfigSections:
    def test_sectioned_construction(self):
        cfg = ServeConfig(
            admission=AdmissionPolicy(max_batch=32, max_wait_ms=1.5,
                                      queue_limit=128, n_workers=2),
            deadline=DeadlinePolicy(default_ms=25.0),
            cache=CachePolicy(size=64, decimals=4),
            default_k=7, ef=48,
        )
        assert cfg.admission.max_batch == 32
        assert cfg.deadline.default_ms == 25.0
        assert cfg.cache.size == 64

    def test_round_trip(self):
        cfg = ServeConfig(
            admission=AdmissionPolicy(max_batch=16),
            cache=CachePolicy(size=8), default_k=3, ef=20)
        clone = ServeConfig.from_dict(cfg.as_dict())
        assert clone == cfg

    def test_sectioned_construction_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ServeConfig(admission=AdmissionPolicy(max_batch=8), ef=16)

    def test_unknown_kwarg_still_a_typeerror(self):
        with pytest.raises(TypeError):
            ServeConfig(batch_max=8)

    def test_validation_lives_in_sections(self):
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(max_batch=0)
        with pytest.raises(ConfigurationError):
            CachePolicy(size=-1)


class TestKNNIndexProtocol:
    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_one_true_query_signature(self, points, name):
        engine = get_engine(name)
        assert isinstance(engine, KNNIndex)
        engine.fit(points)
        ids, dists = engine.query(points[:6], TOP_K)
        assert ids.shape == (6, TOP_K) and dists.shape == (6, TOP_K)
        # ef is keyword-only and accepted by every engine
        ids_ef, dists_ef = engine.query(points[:6], TOP_K, ef=32)
        assert ids_ef.shape == (6, TOP_K)
        assert np.isfinite(dists_ef[dists_ef < np.inf]).all()
        stats = engine.stats()
        assert isinstance(stats, dict)

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_run_index_passes_ef_through(self, points, name):
        from repro.baselines.bruteforce import BruteForceKNN
        from repro.bench.sweep import run_index

        exact_ids, _ = BruteForceKNN(points).search(points, TOP_K + 1,
                                                    exclude_self=True)
        result = run_index(points, exact_ids, TOP_K, get_engine(name),
                           ef=48)
        assert 0.0 <= result.recall <= 1.0
        assert result.params["ef"] == 48
