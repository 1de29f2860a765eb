"""Tests of the benchmark's own machinery: spans, the open-loop driver, the
churn consistency check, fingerprints, comparison and the exit contract.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import host  # noqa: E402
import openloop  # noqa: E402
import oracle  # noqa: E402
import workloads as wl  # noqa: E402
from layers import PER_LAYER, Layers  # noqa: E402
from spans import Tracer  # noqa: E402


def _resolved(value=None) -> Future:
    fut: Future = Future()
    fut.set_result(value)
    return fut


# -- spans -----------------------------------------------------------------------------


def test_self_time_subtracts_union_of_children():
    t = Tracer("t")
    parent = t.record("p", 0.0, 10.0)
    t.record("a", 1.0, 4.0, parent=parent.sid)
    t.record("b", 3.0, 5.0, parent=parent.sid)      # overlaps a
    t.record("c", 9.0, 12.0, parent=parent.sid)     # runs past the parent
    selfs = t.self_seconds()
    assert selfs[parent.sid] == pytest.approx(10.0 - 4.0 - 1.0)


def test_wrap_records_nested_spans_and_unwrap_restores():
    ns = SimpleNamespace()
    ns.inner = lambda: time.sleep(0.002)
    ns.outer = lambda: ns.inner()
    original = ns.inner
    t = Tracer("t")
    t.wrap(ns, "inner", "inner")
    t.wrap(ns, "outer", "outer")
    ns.outer()
    t.unwrap_all()
    assert ns.inner is original
    spans = {s.name: s for s in t.finished()}
    assert spans["inner"].parent == spans["outer"].sid
    ns.outer()
    assert len(t.finished()) == 2


def test_per_layer_metrics_cover_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    layers = Layers(Tracer("t"), dim=8, leaf_size=32, k=4)
    assert set(layers.metrics({})) == set(PER_LAYER)


# -- open-loop driver ------------------------------------------------------------------


def test_latency_counts_from_due_time_across_a_stall():
    """A dispatcher stalled inside submit delays every later request; the
    driver charges that wait to them, the server's submit clock would not."""
    def submit(i):
        if i == 0:
            time.sleep(0.05)
        return _resolved(SimpleNamespace(ids=np.arange(10), epoch=0))

    step = openloop.run_step(submit, rate=1000.0, seconds=0.01)
    lat = step.latency_ms()
    assert step.failed == 0 and lat.size == 10
    assert lat[1] >= 40.0                       # due at 1 ms, sent after 50 ms
    assert step.late_ms()[1] >= 40.0


def test_rejections_and_errors_count_as_failures():
    def submit(i):
        if i == 0:
            raise RuntimeError("queue full")
        fut: Future = Future()
        if i == 1:
            fut.set_exception(TimeoutError())
        else:
            fut.set_result(SimpleNamespace(ids=np.arange(10), epoch=0))
        return fut

    step = openloop.run_step(submit, rate=1000.0, seconds=0.004)
    assert step.attempted == 4 and step.failed == 2
    assert step.errors[:2] == ["RuntimeError", "TimeoutError"]


def test_tail_reports_whether_p99_is_supported():
    assert openloop.tail(np.arange(999.0))[1] is False
    assert openloop.tail(np.arange(1000.0))[1] is True


# -- correctness checks ------------------------------------------------------------------


def _step_with(ids, epochs=None) -> openloop.Step:
    n = len(ids)
    return openloop.Step(rate=1.0, due=np.zeros(n), submit=np.zeros(n),
                         done=np.ones(n), ids=ids,
                         epoch=np.asarray(epochs if epochs else [0] * n),
                         errors=[None] * n, backlog_end=0)


def test_churn_check_flags_stale_reads_and_unborn_ids():
    writer = SimpleNamespace(inserted_at={wl.N: 3}, deleted_at={wl.N: 5})
    ids = lambda extra: np.array(list(range(wl.K_QUERY - 1)) + [extra])  # noqa: E731
    # live at epoch 4: fine; deleted at 5: stale; not yet inserted at 2: wrong
    step = _step_with([ids(wl.N)] * 3, [4, 5, 2])
    assert wl._check_churn_answers(step, writer) == 1
    assert step.wrong.tolist() == [False, True, True]
    assert step.failed == 2


def test_answer_check_rejects_bad_shapes_and_ids():
    good = np.arange(wl.K_QUERY)
    step = _step_with([good, good[:-1], np.r_[good[:-1], wl.N],
                       np.r_[good[:-1], 0]])
    wl._check_answers(step, wl.N)
    assert step.wrong.tolist() == [False, True, True, True]


def test_exact_topk_matches_brute_force():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((300, 8)).astype(np.float32)
    d = ((x[:, None, :].astype(np.float64) - x[None]) ** 2).sum(-1)
    np.fill_diagonal(d, np.inf)
    want = np.argsort(d, axis=1, kind="stable")[:, :5]
    got = oracle.exact_topk(x, x, 5, exclude_self=True, block=64)
    assert oracle.recall(got, want) == 1.0
    assert oracle.recall(np.full_like(want, -1), want) == 0.0


def test_inputs_depend_only_on_the_seed():
    a = oracle.make_inputs(3, 500, 8, 20, 10)
    b = oracle.make_inputs(3, 500, 8, 20, 10)
    c = oracle.make_inputs(4, 500, 8, 20, 10)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert not np.array_equal(a["base"], c["base"])


# -- fingerprints and comparison -----------------------------------------------------------


def _fp(**over):
    fp = {"cpus": 2, "python": "3.11", "numpy": "2", "blas": "openblas",
          "blas_threads": 2, "source": "x", "seed": 1}
    fp.update(over)
    return fp


def test_fingerprints_from_other_hosts_are_refused():
    assert host.comparable(_fp(), _fp(seed=9, source="y"))[0] is True
    ok, why = host.comparable(_fp(), _fp(cpus=4))
    assert not ok and "cpus" in why
    ok, why = host.comparable(_fp(blas_threads=host.NOT_VERIFIABLE),
                              _fp(blas_threads=host.NOT_VERIFIABLE))
    assert not ok and host.NOT_VERIFIABLE in why


def test_steal_check_marks_a_contended_host_not_verifiable():
    assert host.steal_check((0, 0), (1, 100))[0] is True
    assert host.steal_check((0, 0), (10, 100))[0] == host.NOT_VERIFIABLE
    assert host.steal_check(None, (1, 100))[0] == host.NOT_VERIFIABLE


def _record(fp, value):
    return {"workload": "serve", "fingerprint": fp,
            "metrics": {"p50_ms": {"value": value, "unit": "ms"}}}


def test_compare_refuses_mixed_hosts_and_flags_regressions():
    spec = {"end_to_end": [{"name": "p50_ms", "unit": "ms", "better": "lower",
                            "bound": 0.2}]}
    base = [_record(_fp(), v) for v in (10.0, 10.2, 9.9, 10.1)]
    status, lines = compare.compare(base, [_record(_fp(cpus=8), 10.0)], spec)
    assert status == 3 and "refused" in lines[0]
    status, lines = compare.compare(base, [_record(_fp(), 13.0)], spec)
    assert status == 1 and "regressed" in lines[0]
    status, _ = compare.compare(base, [_record(_fp(), 10.5)], spec)
    assert status == 0
    spec["end_to_end"][0]["name"] = "build_s"
    for rec in base:
        rec["metrics"]["build_s"] = rec["metrics"]["p50_ms"]
    status, lines = compare.compare(base, [{**base[0]}], spec)
    assert status == 0 and lines[-1].endswith("ungated")


# -- the command -----------------------------------------------------------------------


def test_command_fails_without_a_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "correct" not in proc.stdout


@pytest.fixture
def tiny(monkeypatch):
    """Shrink the workloads so a whole run takes a few seconds."""
    monkeypatch.setattr(wl, "N", 800)
    monkeypatch.setattr(wl, "SETUPS", 1)
    monkeypatch.setattr(wl, "REF_RATE", 1200.0)
    monkeypatch.setattr(wl, "LADDER", ())
    monkeypatch.setattr(wl, "N_PROBES", 50)
    return oracle.make_inputs(5, 800, wl.DIM, 100, 256)


@pytest.mark.parametrize("name", ["serve", "churn"])
def test_tiny_runs_pass_their_checks(tiny, name):
    res = wl.WORKLOADS[name](tiny, 1.0)
    assert res.correct, res.checks
    assert res.failed == 0 and res.attempted >= 1200
    assert set(wl_end_to_end()) <= set(res.metrics)


def test_tiny_traced_serve_reports_every_layer(tiny):
    layers = Layers(Tracer("t"), wl.DIM, wl.build_config().leaf_size, wl.K_BUILD)
    try:
        res = wl.run_serve(tiny, 2.0, layers)
    finally:
        layers.close()
    m = layers.metrics(res.layer_extra)
    assert res.correct, res.checks
    assert m["search.calls"] > 0 and m["server.batch_mean"] >= 1
    assert m["rpforest.leaves"] > 0 and m["costmodel.cycles"] > 0
    assert 0.0 < m["trace.layer_share"] <= 1.0


def wl_end_to_end():
    import run

    return run.END_TO_END
