"""Tests for the epoch-versioned mutable index (repro.core.mutable)."""

import threading

import numpy as np
import pytest

from repro.apps.search import SearchConfig
from repro.baselines.bruteforce import BruteForceKNN
from repro.core import BuildConfig, MutableConfig, MutableIndex
from repro.data.synthetic import gaussian_mixture
from repro.errors import ConfigurationError, DataError
from repro.obs import Events, Observability


@pytest.fixture(scope="module")
def base_and_more():
    x_all = gaussian_mixture(900, 16, n_clusters=15, cluster_std=0.8, seed=21)
    return x_all[:600], x_all[600:]


def build(base, **kw):
    cfg = dict(k=8, n_trees=4, leaf_size=48, refine_iters=2, seed=0)
    return MutableIndex.build(
        base, BuildConfig(**cfg), SearchConfig(ef=48),
        MutableConfig(**kw) if kw else None,
    )


class TestConfig:
    def test_threshold_bounds(self):
        with pytest.raises(ConfigurationError):
            MutableConfig(compact_threshold=0.0)
        with pytest.raises(ConfigurationError):
            MutableConfig(compact_threshold=1.5)
        MutableConfig(compact_threshold=1.0)  # disables auto-compaction

    def test_repair_rounds_non_negative(self):
        with pytest.raises(ConfigurationError):
            MutableConfig(repair_rounds=-1)


class TestInsert:
    def test_insert_assigns_fresh_external_ids(self, base_and_more):
        base, more = base_and_more
        mut = build(base)
        ids = mut.insert(more[:50])
        assert ids.tolist() == list(range(600, 650))
        assert mut.n == 650
        assert mut.epoch == 1

    def test_inserted_points_are_searchable(self, base_and_more):
        base, more = base_and_more
        mut = build(base)
        new_ids = mut.insert(more[:100])
        # each inserted vector should find itself among its top answers
        ids, dists = mut.search(more[:100], 5)
        self_found = (ids == new_ids[:, None]).any(axis=1)
        assert self_found.mean() > 0.9
        # and its self-match distance is ~0
        hit_rows = np.nonzero(self_found)[0]
        d_self = dists[hit_rows][ids[hit_rows] == new_ids[hit_rows, None]]
        assert np.allclose(d_self, 0.0, atol=1e-5)

    def test_insert_recall_against_ground_truth(self, base_and_more):
        base, more = base_and_more
        mut = build(base)
        mut.insert(more)
        full = np.concatenate([base, more])
        q = full[::9]
        gt, _ = BruteForceKNN(full).search(q, 5)
        ids, _ = mut.search(q, 5)
        hits = sum(np.intersect1d(ids[i][ids[i] >= 0], gt[i]).size
                   for i in range(q.shape[0]))
        assert hits / (q.shape[0] * 5) > 0.85

    def test_empty_insert_is_noop_without_flip(self, base_and_more):
        base, _ = base_and_more
        mut = build(base)
        assert mut.insert(np.empty((0, 16), dtype=np.float32)).size == 0
        assert mut.epoch == 0

    def test_wrong_dim_rejected_even_when_empty(self, base_and_more):
        base, _ = base_and_more
        mut = build(base)
        with pytest.raises(DataError):
            mut.insert(np.empty((0, 99), dtype=np.float32))
        with pytest.raises(DataError):
            mut.insert(np.zeros((3, 99), dtype=np.float32))

    def test_cosine_metric(self, base_and_more):
        base, more = base_and_more
        mut = MutableIndex.build(
            base, BuildConfig(k=8, n_trees=4, leaf_size=48, seed=0,
                              metric="cosine"),
            SearchConfig(ef=48),
        )
        new_ids = mut.insert(more[:50])
        ids, _ = mut.search(more[:50], 3)
        assert (ids == new_ids[:, None]).any(axis=1).mean() > 0.9

    def test_auto_strategy_follows_the_build(self):
        """Inserts maintain the graph with the strategy the builder
        resolved, including the ``tile_size`` it resolved with."""
        x = np.random.default_rng(0).standard_normal((400, 2)).astype(np.float32)
        mut = MutableIndex.build(
            x, BuildConfig(k=16, leaf_size=32, strategy="auto",
                           strategy_kwargs={"tile_size": 64}),
        )
        graph = mut.snapshot.index.graph
        assert mut._strategy.name == graph.meta["strategy"]
        assert mut.insert(x[:8] + 0.01).tolist() == list(range(400, 408))


class TestDelete:
    def test_deleted_ids_never_served(self, base_and_more):
        base, _ = base_and_more
        mut = build(base)
        victims = mut.live_ids()[10:40]
        assert mut.delete(victims) == 30
        ids, _ = mut.search(base[10:40], 8)
        assert not np.isin(ids[ids >= 0], victims).any()
        assert mut.n == 570

    def test_results_stay_full_despite_tombstones(self, base_and_more):
        base, _ = base_and_more
        mut = build(base, compact_threshold=1.0)
        mut.delete(mut.live_ids()[:100])
        ids, dists = mut.search(base[200:240], 5)
        # over-fetch must keep rows full: every slot resolved
        assert (ids >= 0).all()
        assert np.isfinite(dists).all()

    def test_unknown_or_double_delete_rejected(self, base_and_more):
        base, _ = base_and_more
        mut = build(base)
        mut.delete(mut.live_ids()[:5])
        with pytest.raises(DataError):
            mut.delete(np.array([0]))       # already deleted
        with pytest.raises(DataError):
            mut.delete(np.array([10_000]))  # never assigned

    def test_empty_delete_is_noop_without_flip(self, base_and_more):
        base, _ = base_and_more
        mut = build(base)
        assert mut.delete(np.empty(0, dtype=np.int64)) == 0
        assert mut.epoch == 0


class TestCompaction:
    def test_threshold_triggers_rebuild(self, base_and_more):
        base, _ = base_and_more
        mut = build(base, compact_threshold=0.1)
        mut.delete(mut.live_ids()[:100])    # 100/600 > 0.1
        stats = mut.stats()
        assert stats["compactions"] == 1
        assert stats["n_total"] == 500      # tombstones physically gone
        assert stats["tombstone_fraction"] == 0.0

    def test_external_ids_stable_across_compaction(self, base_and_more):
        base, more = base_and_more
        mut = build(base, compact_threshold=0.1)
        new_ids = mut.insert(more[:50])
        mut.delete(mut.live_ids()[:100])    # triggers compaction
        assert mut.stats()["compactions"] == 1
        # the inserted points keep their pre-compaction external ids
        ids, _ = mut.search(more[:50], 3)
        assert (ids == new_ids[:, None]).any(axis=1).mean() > 0.9
        # and delete-by-external-id still resolves
        assert mut.delete(new_ids[:5]) == 5

    def test_forced_compact(self, base_and_more):
        base, _ = base_and_more
        mut = build(base, compact_threshold=1.0)
        mut.delete(mut.live_ids()[:50])
        assert mut.stats()["compactions"] == 0
        mut.compact()
        stats = mut.stats()
        assert stats["compactions"] == 1 and stats["n_total"] == 550

    def test_search_quality_survives_compaction(self, base_and_more):
        base, _ = base_and_more
        mut = build(base, compact_threshold=0.1)
        mut.delete(mut.live_ids()[:150])
        live_pts = mut.snapshot.live_points()
        ext = mut.live_ids()
        gt_pos, _ = BruteForceKNN(live_pts).search(live_pts[::7], 5)
        ids, _ = mut.search(live_pts[::7], 5)
        hits = sum(np.intersect1d(ids[i][ids[i] >= 0], ext[gt_pos[i]]).size
                   for i in range(ids.shape[0]))
        assert hits / (ids.shape[0] * 5) > 0.85


class TestEpochs:
    def test_every_mutation_flips_exactly_once(self, base_and_more):
        base, more = base_and_more
        mut = build(base, compact_threshold=0.1)
        assert mut.epoch == 0
        mut.insert(more[:10])
        assert mut.epoch == 1
        mut.delete(mut.live_ids()[:5])
        assert mut.epoch == 2
        mut.delete(mut.live_ids()[:100])    # delete + compaction: ONE flip
        assert mut.epoch == 3

    def test_snapshot_is_immutable_under_mutation(self, base_and_more):
        base, more = base_and_more
        mut = build(base)
        snap = mut.snapshot
        ids_before, dists_before = snap.search(base[:20], 5)
        mut.insert(more[:50])
        mut.delete(mut.live_ids()[:30])
        # the pinned snapshot still answers exactly as before
        ids_after, dists_after = snap.search(base[:20], 5)
        assert np.array_equal(ids_before, ids_after)
        assert np.array_equal(dists_before, dists_after)
        assert snap.epoch == 0 and mut.epoch == 2

    def test_flip_events_and_metrics(self, base_and_more):
        base, more = base_and_more
        obs = Observability()
        events = []
        obs.hooks.subscribe(Events.INDEX_FLIP,
                            lambda e, p: events.append(p))
        mut = MutableIndex.build(
            base, BuildConfig(k=8, n_trees=4, leaf_size=48, seed=0),
            SearchConfig(ef=48), MutableConfig(compact_threshold=0.1),
            obs=obs,
        )
        mut.insert(more[:20])
        mut.delete(mut.live_ids()[:100])
        kinds = [e["kind"] for e in events]
        assert kinds == ["insert", "compact"]
        assert [e["epoch"] for e in events] == [1, 2]
        assert obs.metrics.gauge("index/epoch").value == 2
        assert obs.metrics.gauge("index/n_live").value == 520

    def test_reader_mid_batch_never_sees_half_updated_graph(
            self, base_and_more):
        """Concurrent readers: every response decodes against the epoch's
        own snapshot - never a torn mix of two graph versions."""
        base, more = base_and_more
        mut = build(base, compact_threshold=0.2)
        q = base[:10]
        errors: list[str] = []
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                snap = mut.snapshot
                ids, dists = snap.search(q, 5)
                # re-running on the same (immutable) snapshot must agree
                ids2, dists2 = snap.search(q, 5)
                if not (np.array_equal(ids, ids2)
                        and np.array_equal(dists, dists2)):
                    errors.append(f"nondeterministic at epoch {snap.epoch}")
                # ids must decode within the snapshot's own id universe
                known = set(int(i) for i in snap.ext_ids)
                bad = [int(i) for i in ids.ravel()
                       if i >= 0 and int(i) not in known]
                if bad:
                    errors.append(f"alien ids {bad} at epoch {snap.epoch}")

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        rng = np.random.default_rng(3)
        pos = 0
        for _ in range(12):
            if rng.random() < 0.5 and mut.n > 200:
                mut.delete(rng.choice(mut.live_ids(), size=40, replace=False))
            else:
                mut.insert(more[pos:pos + 40])
                pos = (pos + 40) % 260
        stop.set()
        for t in threads:
            t.join()
        assert not errors, errors[:5]
        assert mut.epoch == 12


class TestServingSurface:
    def test_engine_protocol_shape(self, base_and_more):
        base, _ = base_and_more
        mut = build(base)
        assert mut.dim == 16
        assert mut.config.ef == 48
        stats = mut.stats()
        assert stats["engine"] == "mutable-index"
        ids, dists = mut.search(base[:4], 3, ef=64)
        assert ids.shape == (4, 3) and dists.shape == (4, 3)
