"""T8 - compressed memory tier: quantized scoring + full-precision rerank.

At millions of points the float32 matrix - not the graph - is what
dominates memory and gather bandwidth, so this tier measures what the
quantized stores (:mod:`repro.core.quant`) buy and what they cost:

* **memory** - bytes the candidate-scoring path gathers from (codes +
  quantizer parameters vs the float32 matrix);
* **recall** - same graph, same forest, same ``ef``; the only change is
  quantized candidate scoring + full-precision rerank, so any recall
  delta is attributable to quantized beam navigation;
* **scoring throughput** - candidates/s through the scoring microkernels
  at an out-of-cache point count (the regime the tier targets: at the
  end-to-end workload's ``n`` the whole float32 matrix is cache-resident
  and exact scoring is compute-light, so the bandwidth win is measured
  where the matrix no longer fits).

Variants: ``float32`` (reference), ``sq8`` (fixed 4x, near-lossless -
the memory tier, scored by decode-gather), ``pq32`` (``4d/M`` x - the
memory *and* bandwidth tier, scored by table-lookup ADC; M=32 keeps
4 dims/sub-space at d=128, where ADC navigation error stays inside the
rerank's correction range).

Full-scale gates (``WKNNG_BENCH_SCALE >= 1``): >= 4x memory reduction
for both quantized variants, recall loss <= 0.01 vs float32 for both,
throughput per byte of vector memory >= 2.5x (sq8) / >= 5x (pq) vs
float32 - the capacity claim a memory tier makes - plus the
deterministic >= 4x per-candidate gather-byte reduction and 0.7x
wall-clock sanity floors on the kernel sections (raw kernel ratios
are published but bimodal with host DRAM state; see the kernel test
docstring).  Exactness invariants (rerank distances, persistence,
quantized cluster serving) assert at every scale.
"""

import threading
import time

import numpy as np
import pytest

from conftest import BENCH_SCALE, publish, publish_summary
from repro.apps.search import GraphSearchIndex, SearchConfig
from repro.baselines.bruteforce import BruteForceKNN
from repro.core.quant import QuantizedStore
from repro.data.synthetic import make_dataset
from repro.kernels.distance import (
    adc_l2_query_gather,
    sq8_l2_query_gather,
    sq_l2_query_gather,
)
from repro.metrics.records import RecordSet

FULL_SCALE = BENCH_SCALE >= 1.0

#: headline workload (at scale 1.0); sift-like is the 128-d workload the
#: PQ literature targets
N_POINTS = 20_000
N_QUERIES = 1_000
EF = 64
TOP_K = 10
PQ_M = 32

#: the scoring-kernel section's point count: large enough that the
#: float32 matrix (n * 512 bytes) falls out of last-level cache
N_SCORE = 500_000
SCORE_CANDS = 48

SUMMARY: dict = {
    "workload": {"n": None, "dim": None, "queries": None, "ef": EF,
                 "topk": TOP_K, "pq_m": PQ_M},
}


def _scaled(n: int, floor: int = 256) -> int:
    return max(floor, int(n * BENCH_SCALE))


def _best_of(fn, repeats: int = 3):
    """Return ``(result, seconds)`` for the fastest of ``repeats`` runs."""
    best = np.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def _recall(ids: np.ndarray, gt: np.ndarray) -> float:
    return float(np.mean([
        np.intersect1d(ids[i][ids[i] >= 0], gt[i]).size / gt.shape[1]
        for i in range(gt.shape[0])
    ]))


@pytest.fixture(scope="module")
def corpus():
    n = _scaled(N_POINTS, floor=512)
    x = make_dataset("sift-like", n, seed=0)
    q = make_dataset("sift-like", _scaled(N_QUERIES, floor=64), seed=2)
    gt, _ = BruteForceKNN(x).search(q, TOP_K)
    SUMMARY["workload"]["n"] = int(x.shape[0])
    SUMMARY["workload"]["dim"] = int(x.shape[1])
    SUMMARY["workload"]["queries"] = int(q.shape[0])
    return x, q, gt


@pytest.fixture(scope="module")
def base_index(corpus):
    """The float32 reference; variants share its graph + forest, so every
    difference below is the scoring tier, not build noise."""
    x, _, _ = corpus
    return GraphSearchIndex.build(
        x, k=16, search_config=SearchConfig(ef=EF), seed=0
    )


def _variant(base: GraphSearchIndex, x: np.ndarray, spec: str) -> GraphSearchIndex:
    return GraphSearchIndex.from_parts(
        x, base.graph, base.forest,
        SearchConfig(ef=EF, quantization=spec),
    )


def test_t8_memory_and_recall(corpus, base_index, results_dir):
    x, q, gt = corpus
    records = RecordSet()
    variants = [("float32", base_index),
                ("sq8", _variant(base_index, x, "sq8")),
                ("pq", _variant(base_index, x, f"pq{PQ_M}"))]
    for name, index in variants:
        index.search(q[:32], TOP_K)  # warm (fit caches, first-touch pages)
        (ids, _), seconds = _best_of(lambda: index.search(q, TOP_K))
        mem = index.memory_stats()
        stats = index.stats()
        entry = {
            "qps": q.shape[0] / seconds,
            "recall": _recall(ids, gt),
            "memory_reduction": mem["reduction"],
            "vector_bytes": mem["vector_bytes"],
            "distance_evals": stats["distance_evals"],
            "rerank_evals": stats.get("rerank_evals", 0),
        }
        # the capacity headline: queries/s per byte of vector memory,
        # relative to float32.  For a memory tier this is the production
        # quantity - at a fixed RAM budget it is how much more corpus a
        # node serves at what speed - and unlike raw kernel wall-clock
        # it is stable, because the qps ratio and the reduction are both
        # measured quantities with no host-memory-phase dependence
        entry["qps_x_reduction"] = entry["qps"] * entry["memory_reduction"]
        SUMMARY[name] = entry
        records.add(
            "T8",
            {"variant": name, "n": x.shape[0], "queries": q.shape[0],
             "ef": EF, "topk": TOP_K},
            {"qps": entry["qps"], "recall": entry["recall"],
             "memory_reduction": entry["memory_reduction"],
             "vector_bytes": entry["vector_bytes"]},
        )
    f32 = SUMMARY["float32"]
    for name in ("sq8", "pq"):
        SUMMARY[name]["qps_per_vector_byte_vs_float32"] = (
            SUMMARY[name]["qps_x_reduction"] / f32["qps_x_reduction"]
        )
    publish(results_dir, "T8_quant", records)
    publish_summary(results_dir, "T8", SUMMARY)

    sq8, pq = SUMMARY["sq8"], SUMMARY["pq"]
    # structural invariants (every scale): the compressed tiers really
    # shrink the scoring-path bytes
    assert sq8["vector_bytes"] < f32["vector_bytes"]
    assert pq["vector_bytes"] < f32["vector_bytes"]
    if FULL_SCALE:
        # sq8 codes are exactly 4x smaller; per-dim params cost a hair
        assert sq8["memory_reduction"] >= 3.9, (
            f"sq8 reduction {sq8['memory_reduction']:.2f}x below 3.9x"
        )
        assert pq["memory_reduction"] >= 4.0, (
            f"pq{PQ_M} reduction {pq['memory_reduction']:.2f}x below 4x"
        )
        for name in ("sq8", "pq"):
            loss = f32["recall"] - SUMMARY[name]["recall"]
            assert loss <= 0.01, (
                f"{name} recall loss {loss:.4f} exceeds 0.01 "
                f"({SUMMARY[name]['recall']:.4f} vs {f32['recall']:.4f})"
            )
        # throughput per byte of vector memory: >=2.5x for sq8 (qps is
        # ~0.8x float32 while memory shrinks 4x), >=5x for pq (~0.7x
        # qps, ~13x memory).  Floors leave margin under the measured
        # qps-ratio range 0.65-0.85
        for name, floor in (("sq8", 2.5), ("pq", 5.0)):
            ratio = SUMMARY[name]["qps_per_vector_byte_vs_float32"]
            assert ratio >= floor, (
                f"{name} throughput-per-vector-byte {ratio:.2f}x below "
                f"{floor}x vs float32"
            )


def _interleaved_medians(kernels, cands, reps):
    """Median wall time per kernel, sampled round-robin.

    Interleaving makes every repetition sample the same machine phase
    for all kernels - absolute gather speed swings with the host's
    memory state (TLB/huge-page promotion, neighbours' DRAM traffic),
    and timing the kernels in separate phases would turn that drift
    into a phantom speedup or slowdown.
    """
    times: dict = {name: [] for name in kernels}
    for fn in kernels.values():
        fn(cands[0])  # warm the code paths, not the data
    for rep in range(1, reps + 1):
        for name, fn in kernels.items():
            t0 = time.perf_counter()
            fn(cands[rep])
            times[name].append(time.perf_counter() - t0)
    return {name: float(np.median(ts)) for name, ts in times.items()}


def test_t8_scoring_kernel_throughput(results_dir):
    """Candidate-scoring microkernels at an out-of-cache point count.

    This is the regime the compressed tier exists for: the float32
    matrix no longer fits in cache, so exact scoring pays a DRAM gather
    per candidate while the pq code matrix stays cache-resident and each
    candidate costs ``M`` table lookups.

    Two wall-clock sections are published, neither gated as a headline.
    The *idle* section reports the kernels with the machine otherwise
    quiet: its ratio is honest but bimodal (0.91x with fast host DRAM,
    1.4-1.6x with slow, same host, same code), because the exact kernel
    is memory-latency-bound and that latency tracks host state the
    benchmark does not control.  The *contended* section adds fixed
    background memory streamers - the state a loaded serving node is in
    - and shifts the odds toward ADC (up to 1.9x) without removing the
    host dependence on a 1-vCPU box, where streamers also time-slice.
    What IS gated: the deterministic per-candidate gather-byte
    reduction (the quantity that decides the race once the matrix is
    out of cache), wall-clock sanity floors at 0.7x, and - in
    test_t8_memory_and_recall - throughput per byte of vector memory,
    the capacity claim a memory tier actually makes.
    """
    n = _scaled(N_SCORE, floor=4096)
    m = _scaled(N_QUERIES, floor=64)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((n, 128), dtype=np.float32)
    q = rng.standard_normal((m, 128), dtype=np.float32)
    # distinct candidate sets per timed repetition: re-timing the same
    # ids would re-gather rows the previous run just pulled into cache,
    # silently turning the out-of-cache regime into a cache-resident one
    # (flattering exactly the kernel this section exists to beat)
    reps = 5
    cands = [rng.integers(0, n, size=(m, SCORE_CANDS)).astype(np.int64)
             for _ in range(reps + 1)]

    # train on a subsample (the engine fits on everything; here fitting
    # on 100k keeps the section's setup off the measured path)
    train = x[: min(n, 100_000)]
    sq_store = QuantizedStore.fit(train, "sq8", seed=0)
    sq_codes = sq_store.quantizer.encode(x)
    pq_store = QuantizedStore.fit(train, f"pq{PQ_M}", seed=0)
    pq_codes = pq_store.quantizer.encode(x)
    luts = pq_store.quantizer.luts(q)
    kernels = {
        "exact": lambda cand: sq_l2_query_gather(q, x, cand),
        "sq8": lambda cand: sq8_l2_query_gather(
            sq_codes, sq_store.quantizer.lo, sq_store.quantizer.scale, q, cand),
        "pq": lambda cand: adc_l2_query_gather(luts, pq_codes, cand),
    }
    entries = _interleaved_medians(kernels, cands, reps)

    pairs = cands[0].size
    SUMMARY["scoring_kernel"] = {
        "n": int(n), "pairs": int(pairs),
        **{f"{k}_cand_per_s": pairs / s for k, s in entries.items()},
        "pq_speedup_vs_exact": entries["exact"] / entries["pq"],
        "sq8_speedup_vs_exact": entries["exact"] / entries["sq8"],
    }

    # contended regime: fixed background streamers sweep a buffer far
    # larger than cache, so every exact-kernel row gather truly misses.
    # distinct candidate sets again - reusing the idle section's ids
    # would hand either kernel warm rows
    c_cands = [rng.integers(0, n, size=(m, SCORE_CANDS)).astype(np.int64)
               for _ in range(reps + 1)]
    stop = threading.Event()

    def _stream():
        a = np.ones(64 * 1024 * 1024 // 8, dtype=np.float64)
        b = np.empty_like(a)
        while not stop.is_set():
            np.copyto(b, a)
            np.copyto(a, b)

    streamers = [threading.Thread(target=_stream, daemon=True)
                 for _ in range(2)]
    for t in streamers:
        t.start()
    time.sleep(0.5)  # let the streamers reach steady state
    try:
        c_entries = _interleaved_medians(kernels, c_cands, reps)
    finally:
        stop.set()
        for t in streamers:
            t.join()
    SUMMARY["scoring_kernel_contended"] = {
        **{f"{k}_cand_per_s": pairs / s for k, s in c_entries.items()},
        "pq_speedup_vs_exact": c_entries["exact"] / c_entries["pq"],
        "sq8_speedup_vs_exact": c_entries["exact"] / c_entries["sq8"],
    }
    # the bandwidth claim, measured deterministically: bytes the scoring
    # path gathers per candidate (code row vs float32 row)
    SUMMARY["scoring_kernel"]["exact_gather_bytes_per_cand"] = int(
        x.dtype.itemsize * x.shape[1]
    )
    SUMMARY["scoring_kernel"]["pq_gather_bytes_per_cand"] = int(
        pq_codes.dtype.itemsize * pq_codes.shape[1]
    )
    publish_summary(results_dir, "T8", SUMMARY)
    if FULL_SCALE:
        # per-candidate gather traffic must shrink with the memory tier:
        # this is the quantity that decides the kernel race once the
        # matrix is out of cache, and it is deterministic
        sk = SUMMARY["scoring_kernel"]
        assert sk["exact_gather_bytes_per_cand"] >= (
            4 * sk["pq_gather_bytes_per_cand"]
        ), "pq candidate gathers are not >=4x smaller than float32 rows"
        # wall-clock floors are sanity bounds, not the headline: the
        # idle-host ratio on a shared 1-vCPU host is bimodal with DRAM
        # state (measured 0.91x with fast host memory, 1.4-1.6x with
        # slow; contended section 0.88-1.9x), so the gate asserts "never
        # materially slower" and the capacity gate in
        # test_t8_memory_and_recall carries the throughput claim
        for section in ("scoring_kernel", "scoring_kernel_contended"):
            speedup = SUMMARY[section]["pq_speedup_vs_exact"]
            assert speedup >= 0.7, (
                f"pq{PQ_M} ADC kernel {section} speedup {speedup:.2f}x "
                f"below the 0.7x sanity floor at n={n}"
            )


def test_t8_rerank_distances_exact(corpus, base_index):
    """Returned distances from a quantized index are full-precision: they
    must equal a direct recompute against the float32 matrix."""
    x, q, _ = corpus
    sample = q[:min(128, q.shape[0])]
    for spec in ("sq8", f"pq{PQ_M}"):
        index = _variant(base_index, x, spec)
        ids, dists = index.search(sample, TOP_K)
        valid = ids >= 0
        exact = sq_l2_query_gather(
            index._prepare_queries(sample), index.points,
            np.where(valid, ids, -1).astype(np.int64),
        )
        assert np.allclose(np.where(valid, dists, 0.0),
                           np.where(valid, exact, 0.0), rtol=1e-5, atol=1e-5), (
            f"{spec}: emitted distances diverge from full-precision recompute"
        )


def test_t8_persistence_roundtrip(corpus, base_index, tmp_path):
    """Codebooks persist with the index: a loaded quantized index answers
    bit-identically without refitting."""
    x, q, _ = corpus
    sample = q[:min(64, q.shape[0])]
    index = _variant(base_index, x, f"pq{PQ_M}")
    ids, dists = index.search(sample, TOP_K)
    index.save(tmp_path / "idx")
    assert (tmp_path / "idx" / "quant.npz").exists()
    loaded = GraphSearchIndex.load(tmp_path / "idx")
    assert loaded.config.quantization == f"pq{PQ_M}"
    ids2, dists2 = loaded.search(sample, TOP_K)
    assert np.array_equal(ids, ids2)
    assert np.array_equal(dists, dists2)


def test_t8_quantized_cluster_smoke(corpus):
    """Cluster shards build and serve from quantized stores end to end."""
    from repro.core.config import BuildConfig
    from repro.serve import ClusterClient, ClusterConfig, ServeConfig

    x, q, gt = corpus
    sample = q[:min(64, q.shape[0])]
    serve = ServeConfig(ef=EF)
    with ClusterClient.build(
        x,
        build_config=BuildConfig(k=16, strategy="tiled", seed=0),
        search_config=SearchConfig(ef=EF, quantization="sq8"),
        seed=0,
        config=ClusterConfig(n_shards=2, backend="thread", serve=serve),
    ) as client:
        ids = np.stack([client.query(v, TOP_K).ids for v in sample])
        assert ids.shape == (sample.shape[0], TOP_K)
        assert _recall(ids, gt[:sample.shape[0]]) > 0.0
