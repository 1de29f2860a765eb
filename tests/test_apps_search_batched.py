"""Tests for the batched lock-step query engine and the search-path fixes.

Covers the engine-parity contract (with ``frontier=1`` the batched engine
expands nodes in the legacy heapq order, so results are identical on
tie-free inputs), the degenerate shapes (k > n, edge-free graphs), the
fork-sharding determinism guarantee, the cosine search-space fix, the
graph-meta persistence round-trip, the per-build counter deltas of
``BuildReport.from_obs``, the ``"wknng"`` engine-protocol registration
and the query-time observability surface.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.apps.search import (
    QUERY_METRICS_PREFIX,
    GraphSearchIndex,
    SearchConfig,
)
from repro.baselines import KNNIndex, get_engine
from repro.baselines.bruteforce import BruteForceKNN
from repro.core.builder import BuildReport, WKNNGBuilder
from repro.core.config import BuildConfig
from repro.core.graph import KNNGraph
from repro.obs import Events, Observability

_SPEC = importlib.util.spec_from_file_location(
    "search_oracle",
    Path(__file__).parent.parent / "benchmarks" / "search_oracle.py",
)
search_oracle = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(search_oracle)
search_legacy = search_oracle.search_legacy


def _queries(points: np.ndarray, m: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return points[rng.choice(points.shape[0], size=m, replace=False)]


@pytest.fixture(scope="module")
def index(small_clustered):
    return GraphSearchIndex.build(
        small_clustered,
        build_config=BuildConfig(k=10, strategy="tiled", seed=0),
        search_config=SearchConfig(ef=32, seeds_per_tree=4),
    )


class TestEngineParity:
    def test_batched_matches_legacy(self, small_clustered, index):
        q = _queries(small_clustered, 50)
        ids_b, d_b = index.search(q, 10)
        ids_l, d_l = search_legacy(index, q, 10)
        assert np.array_equal(ids_b, ids_l)
        assert np.allclose(d_b, d_l, equal_nan=True)

    def test_parity_under_cosine(self, small_clustered):
        idx = GraphSearchIndex.build(
            small_clustered,
            build_config=BuildConfig(k=10, strategy="tiled", seed=1,
                                     metric="cosine"),
            search_config=SearchConfig(ef=24),
        )
        q = _queries(small_clustered, 30, seed=8)
        ids_b, d_b = idx.search(q, 5)
        ids_l, d_l = search_legacy(idx, q, 5)
        assert np.array_equal(ids_b, ids_l)
        assert np.allclose(d_b, d_l, equal_nan=True)

    def test_k_larger_than_n(self):
        x = np.random.default_rng(2).standard_normal((30, 6)).astype(np.float32)
        idx = GraphSearchIndex.build(
            x, build_config=BuildConfig(k=5, strategy="tiled", seed=0,
                                        leaf_size=16),
            search_config=SearchConfig(ef=64),
        )
        q = _queries(x, 8, seed=9)
        ids_b, d_b = idx.search(q, 50)
        ids_l, d_l = search_legacy(idx, q, 50)
        assert ids_b.shape == (8, 50)
        assert np.array_equal(ids_b, ids_l)
        assert np.allclose(d_b, d_l, equal_nan=True)
        # unreachable slots are padded, never fabricated
        assert (ids_b[:, -1] == -1).all() or np.isfinite(d_b[:, -1]).all()

    def test_edge_free_graph_returns_seeds_only(self, small_clustered):
        """A graph with no edges degrades to seed scoring, not a hang."""
        idx = GraphSearchIndex.build(
            small_clustered,
            build_config=BuildConfig(k=10, strategy="tiled", seed=0),
            search_config=SearchConfig(ef=16),
        )
        n, k = idx.graph.n, idx.graph.k
        empty = KNNGraph(
            ids=np.full((n, k), -1, dtype=np.int32),
            dists=np.full((n, k), np.inf, dtype=np.float32),
            meta=dict(idx.graph.meta),
        )
        idx.graph = empty
        q = _queries(small_clustered, 12, seed=3)
        ids_b, d_b = idx.search(q, 5)
        ids_l, d_l = search_legacy(idx, q, 5)
        assert np.array_equal(ids_b, ids_l)
        assert (ids_b >= 0).any()  # the seeds themselves are returned

    def test_fork_sharding_is_deterministic(self, small_clustered, index):
        q = _queries(small_clustered, 60, seed=11)
        serial_ids, serial_d = index.search(q, 8)
        sharded = GraphSearchIndex(
            small_clustered, index.graph, index.forest,
            SearchConfig(ef=32, n_jobs=3),
        )
        sharded_ids, sharded_d = sharded.search(q, 8)
        assert np.array_equal(serial_ids, sharded_ids)
        assert np.allclose(serial_d, sharded_d, equal_nan=True)

    def test_wide_frontier_still_accurate(self, small_clustered):
        idx = GraphSearchIndex.build(
            small_clustered,
            build_config=BuildConfig(k=10, strategy="tiled", seed=0),
            search_config=SearchConfig(ef=32, frontier=4),
        )
        q = _queries(small_clustered, 40, seed=12)
        ids, dists = idx.search(q, 10)
        gt_ids, _ = BruteForceKNN(small_clustered).search(q, 10)
        hits = sum(np.intersect1d(ids[i][ids[i] >= 0], gt_ids[i]).size
                   for i in range(q.shape[0]))
        assert hits / (q.shape[0] * 10) > 0.9
        valid = np.isfinite(dists)
        assert (np.diff(np.where(valid, dists, np.inf), axis=1) >= 0).all()


class TestCosineSearchSpace:
    def test_cosine_recall_on_scaled_data(self):
        """Rows with wildly different norms: the pre-fix code scored raw
        L2 against a cosine graph and recall collapsed."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((800, 12)).astype(np.float32)
        x *= rng.uniform(0.2, 5.0, size=(800, 1)).astype(np.float32)
        idx = GraphSearchIndex.build(
            x, build_config=BuildConfig(k=12, strategy="tiled", seed=0,
                                        metric="cosine"),
            search_config=SearchConfig(ef=48),
        )
        q = _queries(x, 50, seed=6)
        ids, _ = idx.search(q, 10)
        gt_ids, _ = BruteForceKNN(x, metric="cosine").search(q, 10)
        hits = sum(np.intersect1d(ids[i][ids[i] >= 0], gt_ids[i]).size
                   for i in range(q.shape[0]))
        assert hits / (q.shape[0] * 10) > 0.8


class TestPersistence:
    def test_graph_meta_round_trip(self, tmp_path):
        g = KNNGraph(
            ids=np.array([[1], [0]], dtype=np.int32),
            dists=np.array([[1.0], [1.0]], dtype=np.float32),
            meta={"metric": "cosine", "strategy": "tiled", "k": 2,
                  "report": object(), "array": np.arange(3)},
        )
        path = tmp_path / "g.npz"
        g.save(path)
        loaded = KNNGraph.load(path)
        assert loaded.meta["metric"] == "cosine"
        assert loaded.meta["strategy"] == "tiled"
        assert loaded.meta["k"] == 2
        # non-JSON-serialisable entries are dropped, not crashed on
        assert "report" not in loaded.meta
        assert "array" not in loaded.meta

    def test_cosine_index_survives_save_load(self, small_clustered, tmp_path):
        idx = GraphSearchIndex.build(
            small_clustered,
            build_config=BuildConfig(k=10, strategy="tiled", seed=0,
                                     metric="cosine"),
            search_config=SearchConfig(ef=24),
        )
        q = _queries(small_clustered, 20, seed=13)
        before_ids, before_d = idx.search(q, 5)
        idx.save(tmp_path / "idx")
        loaded = GraphSearchIndex.load(tmp_path / "idx", SearchConfig(ef=24))
        assert loaded.metric == "cosine"
        after_ids, after_d = loaded.search(q, 5)
        assert np.array_equal(before_ids, after_ids)
        assert np.allclose(before_d, after_d, equal_nan=True)

    def test_points_are_the_prepared_matrix(self, small_clustered, tmp_path):
        """``index.points`` is what the engine scores and ``save`` writes:
        unit-norm rows under cosine, read-only, and the live rows of a
        mutable snapshot."""
        from repro.core.mutable import MutableIndex

        cfg = BuildConfig(k=10, strategy="tiled", seed=0, metric="cosine")
        idx = GraphSearchIndex.build(small_clustered, build_config=cfg)
        pts = idx.points
        assert pts.shape == small_clustered.shape
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-5)
        assert not pts.flags.writeable
        idx.save(tmp_path / "idx")
        assert np.load(tmp_path / "idx" / "points.npy").tobytes() == pts.tobytes()

        mut = MutableIndex.build(small_clustered, cfg)
        mut.delete(np.arange(0, 40, 3))
        snap = mut.snapshot
        assert np.array_equal(snap.live_points(), snap.index.points[~snap.deleted])

    def test_build_records_build_spans_in_its_obs(self, small_clustered):
        obs = Observability()
        GraphSearchIndex.build(
            small_clustered,
            build_config=BuildConfig(k=10, strategy="tiled", seed=0), obs=obs)
        names = {r.name for r in obs.trace.records}
        assert {"build", "forest", "refine"} <= names


class TestBuildReportDeltas:
    @pytest.mark.parametrize("backend", ["vectorized", "simt"])
    def test_shared_obs_yields_per_build_counters(self, backend):
        x = np.random.default_rng(4).standard_normal((300, 8)).astype(np.float32)
        obs = Observability()
        builder = WKNNGBuilder(
            BuildConfig(k=6, strategy="tiled", seed=0, leaf_size=48,
                        backend=backend),
            obs=obs,
        )
        _, first = builder.build(x, return_report=True)
        _, second = builder.build(x, return_report=True)
        assert any(v > 0 for v in first.counters.values())
        # identical builds: the second report must not absorb the first's work
        assert first.counters == second.counters

    def test_counters_snapshot_is_integer_only(self):
        obs = Observability()
        obs.metrics.counter("kernel/distance_evals").inc(5)
        obs.metrics.gauge("kernel/ratio").set(0.5)
        snap = BuildReport.counters_snapshot(obs)
        assert snap == {"distance_evals": 5}


class TestEngineProtocol:
    def test_wknng_registered_and_conformant(self, small_clustered):
        engine = get_engine("wknng")
        assert isinstance(engine, KNNIndex)
        assert engine.fit(small_clustered) is engine
        ids, dists = engine.query(small_clustered[:10], 5)
        assert ids.shape == dists.shape == (10, 5)
        stats = engine.stats()
        assert stats["engine"] == "wknng-graph"
        assert stats["queries"] == 10
        assert stats["expansions"] > 0

    def test_query_before_fit_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            get_engine("wknng").query(np.zeros((1, 4), dtype=np.float32), 1)


class TestQueryObservability:
    def test_span_metrics_and_hooks(self, small_clustered):
        obs = Observability()
        events = []
        obs.hooks.subscribe(Events.QUERY_BATCH_BEFORE,
                            lambda event, payload: events.append(("before", payload)))
        obs.hooks.subscribe(Events.QUERY_BATCH_AFTER,
                            lambda event, payload: events.append(("after", payload)))
        idx = GraphSearchIndex.build(
            small_clustered,
            build_config=BuildConfig(k=10, strategy="tiled", seed=0),
            search_config=SearchConfig(ef=16),
            obs=obs,
        )
        q = _queries(small_clustered, 25, seed=14)
        idx.search(q, 5)

        spans = [r for r in obs.trace.records if r.name == "query"]
        assert len(spans) == 1
        assert spans[0].attrs["queries"] == 25
        assert spans[0].attrs["rounds"] >= 1

        section = obs.metrics.section(QUERY_METRICS_PREFIX)
        assert section["queries"] == 25
        assert section["batches"] == 1
        assert section["expansions"] > 0
        assert section["distance_evals"] > 0

        assert [name for name, _ in events] == ["before", "after"]
        after = events[1][1]
        assert after["queries"] == 25
        assert after["expansions"] == section["expansions"]

    def test_max_expansions_cap_respected(self, small_clustered):
        idx = GraphSearchIndex.build(
            small_clustered,
            build_config=BuildConfig(k=10, strategy="tiled", seed=0),
            search_config=SearchConfig(ef=32, max_expansions=3),
        )
        q = _queries(small_clustered, 20, seed=15)
        idx.search(q, 5)
        stats = idx.stats()
        assert stats["expansions"] <= 3 * q.shape[0]
