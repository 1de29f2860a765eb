"""T3 - query throughput: the batched lock-step engine vs the legacy loop.

The batched engine (:meth:`repro.apps.search.GraphSearchIndex.search`) answers
a whole query batch in vectorized lock-step rounds; the legacy reference
(``search_legacy`` in ``search_oracle.py`` beside this file) walks queries
one at a time through a Python heapq loop.  Both expand nodes in the same
order (``frontier=1``), so on tie-free inputs their results are
*identical* and the comparison is pure throughput.

Three measurements:

* batched-vs-legacy wall clock on the headline workload (n=20k, d=32,
  ef=64, 1k queries at scale 1.0) with a result-parity check;
* recall under ``metric="cosine"`` vs ``metric="sqeuclidean"`` - the
  cosine search-space fix means both operate in their correct prepared
  space, so accuracy should match;
* all registered engines (including ``"wknng"``) through the one
  :class:`~repro.baselines.KNNIndex` protocol path.

Timing uses best-of-N for both engines: the legacy loop's Python-heavy
iteration is noisy on loaded machines, and taking each engine's best
round is the comparison least favourable to the batched side.  The hard
speedup/recall assertions only run at ``WKNNG_BENCH_SCALE >= 1`` so
reduced-scale CI smoke runs stay stable.
"""

import time

import numpy as np

from conftest import BENCH_SCALE, publish, publish_summary
from search_oracle import search_legacy
from repro.apps.search import GraphSearchIndex, SearchConfig
from repro.baselines import get_engine
from repro.baselines.bruteforce import BruteForceKNN
from repro.core.config import BuildConfig
from repro.data.synthetic import make_dataset
from repro.metrics.records import RecordSet

FULL_SCALE = BENCH_SCALE >= 1.0

#: headline workload (at scale 1.0): the ISSUE's acceptance operating point
N_POINTS = 20_000
N_QUERIES = 1_000
DIM = 32
EF = 64
TOP_K = 10


def _scaled(n: int, floor: int = 256) -> int:
    return max(floor, int(n * BENCH_SCALE))


def _query_sample(x: np.ndarray, m: int, seed: int = 1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return x[rng.choice(x.shape[0], size=min(m, x.shape[0]), replace=False)]


def _best_of(fn, rounds: int = 3):
    """Minimum wall-clock over ``rounds`` calls (and the last result)."""
    best = np.inf
    out = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_t3_batched_vs_legacy(results_dir):
    x = make_dataset("gaussian", _scaled(N_POINTS), seed=0, dim=DIM)
    q = _query_sample(x, _scaled(N_QUERIES, floor=64))
    index = GraphSearchIndex.build(
        x,
        build_config=BuildConfig(k=16, strategy="tiled", seed=0),
        search_config=SearchConfig(ef=EF),
    )
    t_batched, batched = _best_of(lambda: index.search(q, TOP_K))
    t_legacy, legacy = _best_of(lambda: search_legacy(index, q, TOP_K))
    speedup = t_legacy / t_batched
    stats = index.stats()

    records = RecordSet()
    for engine, seconds in (("batched", t_batched), ("legacy", t_legacy)):
        records.add(
            "T3",
            {"engine": engine, "n": x.shape[0], "dim": DIM,
             "queries": q.shape[0], "ef": EF},
            {"seconds": seconds, "qps": q.shape[0] / seconds,
             "speedup_vs_legacy": t_legacy / seconds,
             "expansions_per_query": stats["expansions"] / q.shape[0]},
        )
    publish(results_dir, "T3_query_throughput", records)
    publish_summary(results_dir, "T3", {
        "workload": {"n": int(x.shape[0]), "dim": DIM,
                     "queries": int(q.shape[0]), "ef": EF, "topk": TOP_K},
        "batched_seconds": t_batched,
        "legacy_seconds": t_legacy,
        "batched_qps": q.shape[0] / t_batched,
        "speedup": speedup,
    })

    # frontier=1 reproduces the legacy expansion order: results must match
    assert np.array_equal(batched[0], legacy[0]), "engine results diverged"
    assert np.allclose(batched[1], legacy[1], equal_nan=True)
    if FULL_SCALE:
        assert speedup >= 10.0, (
            f"batched engine only {speedup:.1f}x over legacy "
            f"({t_batched:.3f}s vs {t_legacy:.3f}s)"
        )


def test_t3_metric_recall(results_dir):
    """Cosine graphs search their own prepared space: recall parity.

    Before the metric fix the index scored cosine queries with raw
    squared L2, collapsing recall on non-normalised data; now both
    metrics should land within a couple of points of each other.
    """
    x = make_dataset("gaussian", _scaled(8_000), seed=2, dim=DIM)
    # give rows very different norms so cosine and L2 rankings disagree
    # (on isotropic data the two metrics nearly coincide and the
    # regression this guards against would be invisible)
    scales = np.random.default_rng(3).uniform(0.2, 5.0, size=x.shape[0])
    x = (x * scales[:, None].astype(np.float32)).astype(np.float32)
    q = _query_sample(x, _scaled(500, floor=64), seed=4)

    records = RecordSet()
    recalls = {}
    for metric in ("sqeuclidean", "cosine"):
        index = GraphSearchIndex.build(
            x,
            build_config=BuildConfig(k=16, strategy="tiled", seed=0,
                                     metric=metric),
            search_config=SearchConfig(ef=EF),
        )
        gt_ids, _ = BruteForceKNN(x, metric=metric).search(q, TOP_K)
        ids, _ = index.search(q, TOP_K)
        hits = sum(
            np.intersect1d(ids[i][ids[i] >= 0], gt_ids[i]).size
            for i in range(q.shape[0])
        )
        recalls[metric] = hits / (q.shape[0] * TOP_K)
        records.add("T3-metric", {"metric": metric, "n": x.shape[0]},
                    {"recall": recalls[metric]})
    publish(results_dir, "T3_metric_recall", records)

    gap = abs(recalls["cosine"] - recalls["sqeuclidean"])
    assert recalls["cosine"] > 0.5, (
        f"cosine recall collapsed ({recalls['cosine']:.3f}) - search space "
        f"regression?"
    )
    if FULL_SCALE:
        assert gap <= 0.02, f"cosine/sqeuclidean recall gap {gap:.3f} > 0.02"


def test_t3_engine_comparison(workbench, results_dir):
    """The graph index through the same protocol path as every baseline."""
    from repro.bench.sweep import run_index

    x, gt = workbench.load("clustered-16d")
    k = 10
    records = RecordSet()
    results = []
    for name in ("bruteforce", "wknng"):
        res = run_index(x, gt, k, get_engine(name))
        results.append(res)
        records.add(
            "T3-engines", {"engine": res.system, "k": k},
            {"recall": res.recall, "seconds": res.seconds,
             "fit_seconds": res.detail["fit_seconds"],
             "query_seconds": res.detail["query_seconds"]},
        )
    publish(results_dir, "T3_engine_comparison", records)
    wknng = next(r for r in results if r.system == "wknng-graph")
    assert wknng.recall > 0.8, f"wknng engine recall collapsed: {wknng.recall}"
