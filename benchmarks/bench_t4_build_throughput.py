"""T4 - build throughput: process-parallel construction vs the serial build.

The whole point of the paper is saturating a many-core processor during
graph *construction*; the CPU reproduction's analogue is the fork-sharded
build (``BuildConfig(n_jobs=...)``): the RP-forest, the leaf all-pairs
phase (leaf batches sharded across workers, per-worker lists merged in
fixed shard order) and the refinement rounds (sharded by point ranges)
all scale with worker count while producing a graph **bitwise identical**
to the serial build (see ``docs/parallel.md``).

Two measurements on the headline workload (n=50k, d=64, k=16 at scale
1.0):

* end-to-end wall clock, serial vs ``n_jobs=4``, with the bitwise
  graph-equality check (always asserted, at any scale);
* per-phase wall clock from the build reports, so a scaling regression
  is attributable to a phase;
* exact brute force (``exact_knn_graph``) on the same data, beside the
  serial build: the published ``wknng_over_exact`` ratio (and the serial
  graph's recall against it) shows where w-KNNG overtakes exact.  It is
  an ungated timing.

The >=3x speedup gate only fires at ``WKNNG_BENCH_SCALE >= 1`` *and* with
at least 4 usable CPUs: on fewer cores (or at smoke scale, where fork
overhead dominates the shrunken work) the ratio is meaningless.  CI runs
this file as a reduced-scale smoke, which still exercises the sharded
code paths and the equality assertion.
"""

import time

import numpy as np

from conftest import BENCH_SCALE, publish, publish_summary
from repro.baselines.bruteforce import exact_knn_graph
from repro.core.builder import WKNNGBuilder
from repro.core.config import BuildConfig
from repro.data.synthetic import make_dataset
from repro.metrics.recall import knn_recall
from repro.metrics.records import RecordSet
from repro.utils.parallel import fork_available, usable_cpus

FULL_SCALE = BENCH_SCALE >= 1.0

#: headline workload (at scale 1.0): the ISSUE's acceptance operating point
N_POINTS = 50_000
DIM = 64
K = 16
N_JOBS = 4
STRATEGY = "tiled"
#: hard gate on capable machines: parallel build must be >= this much faster
MIN_SPEEDUP = 3.0


def _scaled(n: int, floor: int = 512) -> int:
    return max(floor, int(n * BENCH_SCALE))


def _build(x: np.ndarray, n_jobs: int):
    cfg = BuildConfig(k=K, strategy=STRATEGY, n_trees=8, leaf_size=128,
                      refine_iters=2, seed=0, n_jobs=n_jobs)
    t0 = time.perf_counter()
    graph, report = WKNNGBuilder(cfg).build(x, return_report=True)
    return time.perf_counter() - t0, graph, report


def test_t4_parallel_build_speedup(results_dir):
    n = _scaled(N_POINTS)
    x = make_dataset("gaussian", n, seed=0, dim=DIM)
    cpus = usable_cpus()

    t_serial, g_serial, rep_serial = _build(x, n_jobs=1)
    t_parallel, g_parallel, rep_parallel = _build(x, n_jobs=N_JOBS)
    speedup = t_serial / t_parallel
    t0 = time.perf_counter()
    g_exact = exact_knn_graph(x, K)
    t_exact = time.perf_counter() - t0

    records = RecordSet()
    for mode, seconds, rep in (("serial", t_serial, rep_serial),
                               (f"n_jobs={N_JOBS}", t_parallel, rep_parallel)):
        records.add(
            "T4",
            {"mode": mode, "n": n, "dim": DIM, "k": K, "strategy": STRATEGY},
            {
                "seconds": seconds,
                "points_per_s": n / seconds,
                "speedup_vs_serial": t_serial / seconds,
                **{f"{phase}_s": secs
                   for phase, secs in rep.phase_seconds.items()},
            },
        )
    records.add(
        "T4",
        {"mode": "exact", "n": n, "dim": DIM, "k": K, "strategy": "bruteforce"},
        {"seconds": t_exact, "points_per_s": n / t_exact,
         "speedup_vs_serial": t_serial / t_exact},
    )
    publish(results_dir, "T4_build_throughput", records)
    publish_summary(results_dir, "T4", {
        "workload": {"n": n, "dim": DIM, "k": K, "strategy": STRATEGY,
                     "n_jobs": N_JOBS},
        "usable_cpus": cpus,
        "serial_seconds": t_serial,
        "parallel_seconds": t_parallel,
        "speedup": speedup,
        "exact_seconds": t_exact,
        "wknng_over_exact": t_serial / t_exact,
        "serial_recall": knn_recall(g_serial.ids, g_exact.ids),
        "graphs_bitwise_identical": True,  # asserted below; job fails otherwise
        "parallel_report": rep_parallel.parallel,
    })

    # the determinism contract holds at every scale and every core count
    assert np.array_equal(g_serial.ids, g_parallel.ids), \
        "parallel build diverged from serial (ids)"
    assert np.array_equal(g_serial.dists, g_parallel.dists), \
        "parallel build diverged from serial (dists)"
    assert rep_parallel.parallel["n_jobs"] == N_JOBS
    if fork_available():
        assert "leaf" in rep_parallel.parallel, \
            "parallel build did not shard the leaf phase"

    if FULL_SCALE and cpus >= N_JOBS:
        assert speedup >= MIN_SPEEDUP, (
            f"parallel build only {speedup:.2f}x over serial "
            f"({t_parallel:.2f}s vs {t_serial:.2f}s) with {cpus} CPUs"
        )
