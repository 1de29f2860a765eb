"""Run one benchmark workload against the program in ``src/`` of this checkout.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 15 --trace 0

Prints a report (host fingerprint, checks, every metric by name with unit and
sample count) and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Each run also
writes its result record (and, traced, its spans) under ``perfbench/out/``.
Exits 2 without a result when the program cannot be imported, 1 when a
correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: the gated end-to-end metrics every workload reports (BENCHMARK.json order);
#: p50_ms and p99_ms are printed and recorded but not gated: on a shared 2-CPU
#: host their run-to-run spread exceeds the largest bound the driver allows
END_TO_END = ("setup_s", "build_s", "recall", "rss_mb")

#: the base of every per-layer ratio, printed beside it
RATIO_BASE = {
    "kernels.insert_yield": "candidates inserted / kernels.candidates_seen",
    "refine.insert_yield": "refine inserts / candidates refine offered",
    "search.batch_mean": "queries / search.calls",
    "search.rounds_per_call": "engine rounds / search.calls",
    "search.dist_evals_per_query": "distance evals / queries searched",
    "search.rerank_evals_per_query": "rerank evals / queries searched",
    "search.us_per_round": "search.s / engine rounds",
    "server.batch_mean": "requests / micro-batches",
    "mutable.tombstone_frac": "dead ids / all internal ids",
    "quant.memory_reduction": "float32 bytes / sq8 bytes",
    "quant.drift": "insert-batch MSE / training MSE",
    "trace.overhead_frac": "traced / untraced median latency - 1",
    "trace.layer_share": "time in named layers / end-to-end wall time",
}


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl
    from host import STEAL_LIMIT, cpu_times, fingerprint, steal_check
    from layers import PER_LAYER, Layers
    from oracle import make_inputs
    from spans import Tracer

    fp = fingerprint(SRC, args.seed)
    print("host " + " ".join(f"{k}={v}" for k, v in fp.items()))
    inp = make_inputs(args.seed, wl.N, wl.DIM, wl.N_QUERIES, wl.N_POOL)
    run_id = f"{args.workload}-{args.seed}-{int(time.time())}"
    layers = None
    if args.trace:
        layers = Layers(Tracer(run_id), wl.DIM, wl.build_config().leaf_size,
                        wl.K_BUILD)
    t0, cpu0 = time.perf_counter(), cpu_times()
    try:
        res = wl.WORKLOADS[args.workload](inp, args.seconds, layers)
    finally:
        if layers is not None:
            layers.close()
    wall = time.perf_counter() - t0
    res.check(f"host CPU steal below {STEAL_LIMIT:.0%}", *steal_check(cpu0, cpu_times()))

    print(f"workload {args.workload}: seed {args.seed}, {args.seconds:g} s measured, "
          f"{wall:.1f} s wall, trace {args.trace}")
    for name, ok, detail in res.checks:
        status = "PASS" if ok is True else "FAIL" if ok is False else ok
        print(f"check {status:>14}  {name}" + (f" ({detail})" if detail else ""))
    for name, (value, unit, samples) in res.metrics.items():
        print(f"metric {name:<10} {value:14.6f} {unit:<8} n={samples}")
    print(f"metric fail_frac  {res.failed / max(1, res.attempted):14.6f} fraction "
          f"n={res.attempted}")
    for line in res.info:
        print("info " + line)

    if args.trace:
        per_layer = layers.metrics(res.layer_extra)
        print(f"{'span':<28}{'calls':>8}{'total s':>12}{'self s':>12}")
        for name, calls, total, self_s in layers.tracer.table():
            print(f"{name:<28}{calls:>8}{total:>12.4f}{self_s:>12.4f}")
        for name, value in per_layer.items():
            base = RATIO_BASE.get(name)
            print(f"layer {name:<32}{value:16.6f} {PER_LAYER[name]:<9}"
                  + (f" base: {base}" if base else ""))
        metrics = {n: {"value": v, "unit": PER_LAYER[n]} for n, v in per_layer.items()}
    else:
        metrics = {n: {"value": res.metrics[n][0], "unit": res.metrics[n][1]}
                   for n in END_TO_END}

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "fingerprint": fp, "correct": res.correct,
              "attempted": res.attempted, "failed": res.failed,
              "checks": [[n, ok, d] for n, ok, d in res.checks],
              "metrics": {**{n: {"value": v, "unit": u}
                             for n, (v, u, _) in res.metrics.items()}, **metrics},
              "samples": {n: s for n, (_, _, s) in res.metrics.items()}}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if layers is not None:
        layers.tracer.dump(stem.with_suffix(".spans.jsonl"))

    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
