"""Serving a mutable index: epoch-keyed caching and snapshot pinning.

The serving layer's correctness contract under churn is structural:

* every response carries the epoch it was computed at
  (``SearchResult.epoch``);
* the result cache keys on ``(query, k, ef, epoch)``, so a flip makes
  every pre-flip entry unreachable - staleness is impossible by
  construction, no invalidation pass required;
* ``KNNServer`` pins one snapshot per micro-batch group, so all queries
  in a group are answered by the same immutable graph.
"""

import numpy as np
import pytest

from repro.apps.search import SearchConfig
from repro.core import BuildConfig, MutableConfig, MutableIndex
from repro.data.synthetic import gaussian_mixture
from repro.serve import (
    AdmissionPolicy,
    CachePolicy,
    DirectClient,
    KNNServer,
    ResultCache,
    ServeConfig,
    ShedPolicy,
)


@pytest.fixture(scope="module")
def points():
    return gaussian_mixture(800, 16, n_clusters=10, cluster_std=0.8, seed=5)


def make_mutable(points, **kw):
    return MutableIndex.build(
        points,
        BuildConfig(k=8, n_trees=4, leaf_size=48, seed=0),
        SearchConfig(ef=48),
        MutableConfig(**kw) if kw else None,
    )


def serve_config(cache_size=256):
    return ServeConfig(
        admission=AdmissionPolicy(max_batch=16, max_wait_ms=1.0,
                                  queue_limit=256),
        cache=CachePolicy(size=cache_size),
        ef=48,
        shed=ShedPolicy(enabled=False),
    )


class TestEpochKeyedCache:
    def test_key_differs_across_epochs(self):
        cache = ResultCache(8)
        q = np.ones(4, dtype=np.float32)
        k0 = cache.key(q, 5, 32, 0)
        k1 = cache.key(q, 5, 32, 1)
        assert k0 != k1
        cache.put(k0, ("old", None, 32))
        assert cache.get(k1) is None          # new epoch: structurally cold
        assert cache.get(k0) == ("old", None, 32)

    def test_flip_makes_cached_deleted_id_unreachable(self, points):
        """Warm the cache, delete a served id, re-query: the pre-flip
        entry must never be served again."""
        mut = make_mutable(points, compact_threshold=1.0)
        with KNNServer(mut, serve_config()) as server:
            q = points[3]
            first = server.query(q, 5, timeout=30.0)
            assert first.epoch == 0
            # second hit comes from the warm cache at the same epoch
            warm = server.query(q, 5, timeout=30.0)
            assert warm.from_cache and warm.epoch == 0
            victim = int(first.ids[0])
            mut.delete(np.array([victim]))
            after = server.query(q, 5, timeout=30.0)
            assert after.epoch == 1
            assert not after.from_cache        # old entry is unreachable
            assert victim not in after.ids.tolist()

    def test_cache_warms_again_at_new_epoch(self, points):
        mut = make_mutable(points)
        with KNNServer(mut, serve_config()) as server:
            q = points[10]
            server.query(q, 5, timeout=30.0)
            mut.delete(mut.live_ids()[-3:])
            miss = server.query(q, 5, timeout=30.0)
            assert not miss.from_cache and miss.epoch == 1
            hit = server.query(q, 5, timeout=30.0)
            assert hit.from_cache and hit.epoch == 1
            assert np.array_equal(hit.ids, miss.ids)


class TestEpochPropagation:
    def test_server_reports_live_epoch(self, points):
        mut = make_mutable(points)
        with KNNServer(mut, serve_config(cache_size=0)) as server:
            assert server.query(points[0], 5, timeout=30.0).epoch == 0
            mut.insert(points[:4])
            mut.delete(mut.live_ids()[-2:])
            assert server.query(points[1], 5, timeout=30.0).epoch == 2

    def test_static_index_reports_epoch_zero(self, points):
        """Engines without epochs (plain GraphSearchIndex) serve epoch 0."""
        from repro.apps.search import GraphSearchIndex
        idx = GraphSearchIndex.build(
            points, build_config=BuildConfig(k=8, n_trees=4, leaf_size=48,
                                             seed=0),
            search_config=SearchConfig(ef=48),
        )
        with KNNServer(idx, serve_config()) as server:
            assert server.query(points[0], 5, timeout=30.0).epoch == 0

    def test_direct_client_pins_snapshot_and_reports_epoch(self, points):
        mut = make_mutable(points)
        client = DirectClient(mut)
        res = client.query(points[0], 5)
        assert res.epoch == 0
        victim = int(res.ids[0])
        mut.delete(np.array([victim]))
        res2 = client.query(points[0], 5)
        assert res2.epoch == 1
        assert victim not in res2.ids.tolist()


class TestServingUnderMutation:
    def test_group_consistency_under_interleaved_flips(self, points):
        """Responses are internally consistent: no response mixes ids from
        two epochs (every id decodes in its epoch's id universe)."""
        mut = make_mutable(points, compact_threshold=0.3)
        universe_at = {0: set(int(i) for i in mut.live_ids())}
        with KNNServer(mut, serve_config(cache_size=0)) as server:
            for step in range(6):
                if step % 2 == 0:
                    mut.insert(points[:8] + np.float32(0.01 * (step + 1)))
                else:
                    mut.delete(mut.live_ids()[:10])
                universe_at[mut.epoch] = set(int(i) for i in mut.live_ids())
                res = server.query(points[20], 6, timeout=30.0)
                assert res.epoch in universe_at
                served = set(int(i) for i in res.ids if i >= 0)
                assert served <= universe_at[res.epoch], (
                    f"ids {served - universe_at[res.epoch]} not live at "
                    f"epoch {res.epoch}"
                )
