"""Compare two sets of untraced benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result records written by ``run.py`` (``perfbench/out``
of a checkout).  Results from different hosts are refused: every record of
both sets must carry the same host fingerprint.  For each workload and
end-to-end metric it prints both medians, the change in the metric's
better direction, and a verdict against the bound in ``BENCHMARK.json``:
``regressed`` when the new median is worse by more than the bound,
``unresolved`` when the base set's own quartile spread exceeds the bound.
The recorded latency percentiles follow, marked ``ungated``.
Exits 3 when the comparison is refused, 1 on a regression, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from host import comparable

ROOT = Path(__file__).resolve().parent.parent

#: recorded metrics printed beside the gated ones, without a verdict
UNGATED = {"p50_ms": ("ms", "lower"), "p99_ms": ("ms", "lower")}


def load(directory: Path) -> list[dict]:
    records = []
    for path in sorted(directory.glob("*-trace0.json")):
        records.append(json.loads(path.read_text()))
    return records


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def compare(base: list[dict], new: list[dict], spec: dict) -> tuple[int, list[str]]:
    if not base or not new:
        return 3, ["refused: a set has no untraced results"]
    first = base[0]["fingerprint"]
    for rec in base + new:
        ok, why = comparable(first, rec["fingerprint"])
        if not ok:
            return 3, [f"refused: {why}"]
    gated = {m["name"] for m in spec["end_to_end"]}
    extra = [{"name": n, "unit": u, "better": d, "bound": None}
             for n, (u, d) in UNGATED.items() if n not in gated
             and all(n in r["metrics"] for r in base + new)]
    lines, status = [], 0
    for wl in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for m in spec["end_to_end"] + extra:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in base if r["workload"] == wl]
            b = [r["metrics"][name]["value"] for r in new if r["workload"] == wl]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            if m["bound"] is None:
                verdict = "ungated"
            elif worse > m["bound"]:
                verdict, status = "regressed", 1
            elif spread(a) > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            lines.append(f"{wl:8s} {name:8s} base {ma:12.4f} new {mb:12.4f} "
                         f"{m['unit']:9s} worse by {worse:+.3f} (bound {m['bound']}) "
                         f"n={len(a)}/{len(b)} {verdict}")
    return status, lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status, lines = compare(load(Path(argv[0])), load(Path(argv[1])), spec)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
