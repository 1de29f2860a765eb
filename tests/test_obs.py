"""Tests for the unified observability layer (repro.obs).

Covers the tracer's span nesting, the typed metrics registry
(merge/reset/sections), profiling-hook ordering, the JSON-lines export
round-trip, the redesigned builder API and the legacy ``BuildReport``
back-compat surface - including the acceptance criterion that a traced
build's span tree covers every pipeline phase and its aggregated counters
equal the legacy counter snapshot exactly.
"""

import warnings

import numpy as np
import pytest

from repro.core.builder import PHASES, BuildReport, WKNNGBuilder
from repro.core.config import BuildConfig
from repro.obs import NULL_SPAN, Events, Observability
from repro.obs.export import read_trace, write_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def cfg(**kw):
    base = dict(k=10, n_trees=3, leaf_size=48, refine_iters=2, seed=0)
    base.update(kw)
    return BuildConfig(**base)


class TestSpans:
    def test_nesting_builds_slash_paths(self):
        tr = Tracer()
        with tr.span("build"):
            with tr.span("refine"):
                with tr.span("round-0"):
                    pass
                with tr.span("round-1"):
                    pass
        assert tr.tree_paths() == {
            "build", "build/refine",
            "build/refine/round-0", "build/refine/round-1",
        }

    def test_records_complete_in_child_first_order(self):
        tr = Tracer()
        with tr.span("a"):
            with tr.span("b"):
                pass
        assert [r.name for r in tr.records] == ["b", "a"]
        assert tr.records[0].depth == 1
        assert tr.records[1].depth == 0

    def test_children_in_start_order(self):
        tr = Tracer()
        with tr.span("root"):
            for name in ("x", "y", "z"):
                with tr.span(name):
                    pass
        assert [r.name for r in tr.children("root")] == ["x", "y", "z"]

    def test_attrs_via_constructor_and_set(self):
        tr = Tracer()
        with tr.span("s", fixed=1) as sp:
            sp.set(late=2)
        rec = tr.records[0]
        assert rec.attrs == {"fixed": 1, "late": 2}

    def test_sibling_spans_do_not_nest(self):
        tr = Tracer()
        with tr.span("a"):
            pass
        with tr.span("b"):
            pass
        assert all(r.depth == 0 for r in tr.records)

    def test_exception_recorded_and_propagated(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("outer"):
                with tr.span("inner"):
                    raise ValueError("boom")
        assert len(tr.records) == 2
        assert tr.records[0].attrs["error"] == "ValueError"
        # the stack unwound: a new span is a root again
        with tr.span("after"):
            pass
        assert tr.records[-1].depth == 0

    def test_durations_nonnegative_and_parent_covers_child(self):
        tr = Tracer()
        with tr.span("p"):
            with tr.span("c"):
                sum(range(1000))
        child, parent = tr.records
        assert child.seconds >= 0
        assert parent.seconds >= child.seconds

    def test_disabled_tracer_hands_out_the_shared_null_span(self):
        tr = Tracer(enabled=False)
        s1 = tr.span("a", attr=1)
        s2 = tr.span("b")
        # one shared no-op object (the <5% disabled-overhead design): no
        # allocation, no record-keeping
        assert s1 is NULL_SPAN and s2 is NULL_SPAN
        with s1 as sp:
            sp.set(x=1)
        assert len(tr.records) == 0

    def test_reset_clears_records(self):
        tr = Tracer()
        with tr.span("a"):
            pass
        tr.reset()
        assert len(tr) == 0

    def test_memory_capture(self):
        tr = Tracer(trace_memory=True)
        with tr.span("alloc"):
            _block = np.ones(200_000, dtype=np.float64)
        rec = tr.records[0]
        assert rec.mem_peak_bytes is not None
        assert rec.mem_peak_bytes >= 200_000 * 8 * 0.9
        tr.reset()  # stops tracemalloc if the tracer started it


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("k/c").inc(3)
        reg.counter("k/c").inc(4)
        reg.gauge("k/g").set(1.5)
        reg.gauge("k/g").set(2.5)
        reg.histogram("k/h").observe(1.0)
        reg.histogram("k/h").observe(3.0)
        assert reg.counter("k/c").get() == 7
        assert reg.gauge("k/g").get() == 2.5
        h = reg.histogram("k/h").get()
        assert h["count"] == 2 and h["min"] == 1.0 and h["max"] == 3.0
        assert h["mean"] == pytest.approx(2.0)

    def test_counters_are_monotone(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("name")
        with pytest.raises(TypeError):
            reg.gauge("name")

    def test_merge_accumulates_counters_and_overwrites_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(10)
        b.counter("c").inc(5)
        a.gauge("g").set(1.0)
        b.gauge("g").set(9.0)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(5.0)
        a.merge(b)
        assert a.counter("c").get() == 15
        assert a.gauge("g").get() == 9.0
        assert a.histogram("h").get()["count"] == 2

    def test_reset_zeroes_but_keeps_names(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        reg.reset()
        assert "c" in reg
        assert reg.counter("c").get() == 0

    def test_absorb_reproduces_legacy_dict_via_section(self):
        from repro.kernels.counters import METRICS_PREFIX, OpCounters

        counters = OpCounters(distance_evals=100, candidates_inserted=7)
        reg = MetricsRegistry()
        counters.emit(reg)
        assert reg.section(METRICS_PREFIX) == counters.as_dict()

    def test_section_strips_prefix_and_filters(self):
        reg = MetricsRegistry()
        reg.counter("a/x").inc(1)
        reg.counter("b/y").inc(2)
        assert reg.section("a/") == {"x": 1}


class TestHooks:
    def test_subscribers_called_in_order_with_wildcard_last(self):
        obs = Observability()
        calls = []
        obs.hooks.subscribe("ev", lambda e, p: calls.append(("first", p["x"])))
        obs.hooks.subscribe("ev", lambda e, p: calls.append(("second", p["x"])))
        obs.hooks.subscribe("*", lambda e, p: calls.append(("star", e)))
        obs.hooks.emit("ev", x=42)
        assert calls == [("first", 42), ("second", 42), ("star", "ev")]

    def test_unsubscribe(self):
        obs = Observability()
        calls = []
        unsub = obs.hooks.subscribe("ev", lambda e, p: calls.append(e))
        obs.hooks.emit("ev")
        unsub()
        obs.hooks.emit("ev")
        assert calls == ["ev"]

    def test_pair_subscribes_before_and_after(self):
        obs = Observability()
        seen = []
        obs.hooks.pair("kernel_dispatch", lambda e, p: seen.append(e))
        obs.hooks.emit(Events.KERNEL_DISPATCH_BEFORE)
        obs.hooks.emit(Events.KERNEL_DISPATCH_AFTER)
        assert seen == [Events.KERNEL_DISPATCH_BEFORE,
                        Events.KERNEL_DISPATCH_AFTER]

    def test_build_emits_paired_events_in_order(self, small_clustered):
        obs = Observability()
        events = []
        obs.hooks.subscribe("*", lambda e, p: events.append(e))
        WKNNGBuilder(cfg(), obs=obs).build(small_clustered)
        # per kind, before/after strictly alternate and balance (kinds may
        # nest in each other: dispatches happen inside refine rounds)
        kinds = {e.rsplit(":", 1)[0] for e in events}
        assert kinds == {"kernel_dispatch", "refine_round", "tree_build"}
        for kind in kinds:
            depth = 0
            for e in events:
                if e == f"{kind}:before":
                    depth += 1
                elif e == f"{kind}:after":
                    depth -= 1
                assert depth in (0, 1), f"unbalanced {kind} events"
            assert depth == 0, f"unbalanced {kind} events"

    def test_refine_round_payloads(self, small_clustered):
        obs = Observability()
        rounds = []
        obs.hooks.subscribe(
            Events.REFINE_ROUND_AFTER,
            lambda e, p: rounds.append((p["round"], p["inserted"])),
        )
        _, report = WKNNGBuilder(cfg(), obs=obs).build(
            small_clustered, return_report=True)
        assert [ins for _, ins in rounds] == report.refine_insertions


class TestBuilderApi:
    def test_build_returns_graph_and_report(self, small_clustered):
        graph, report = WKNNGBuilder(cfg()).build(
            small_clustered, return_report=True)
        assert isinstance(report, BuildReport)
        assert graph.report is report

    def test_report_attached_without_flag(self, small_clustered):
        graph = WKNNGBuilder(cfg()).build(small_clustered)
        assert isinstance(graph.report, BuildReport)

    def test_new_api_emits_no_deprecation_warning(self, small_clustered):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            graph, report = WKNNGBuilder(cfg()).build(
                small_clustered, return_report=True)
            _ = graph.report.phase_seconds

    def test_back_compat_attribute_surface(self, small_clustered):
        _, rep = WKNNGBuilder(cfg()).build(small_clustered, return_report=True)
        assert set(rep.phase_seconds) == set(PHASES)
        assert rep.total_seconds > 0
        assert rep.counters["distance_evals"] > 0
        assert len(rep.refine_insertions) >= 1
        assert rep.leaf_stats["n_leaves"] > 0
        d = rep.as_dict()
        assert set(d) == {"phase_seconds", "total_seconds", "counters",
                          "refine_insertions", "leaf_stats",
                          "metric", "strategy", "parallel"}
        # bench JSON is self-describing: resolved metric + strategy ride along
        assert d["metric"] == "sqeuclidean"
        assert d["strategy"] == cfg().strategy
        assert d["parallel"]["n_jobs"] == 1

    def test_report_constructible_directly(self):
        # the legacy constructor shape still works (old pickles/tests)
        rep = BuildReport(phase_seconds={"forest": 1.0},
                          counters={"distance_evals": 5})
        assert rep.total_seconds == 1.0
        assert rep.spans == ()

    def test_builder_reuse_reports_only_own_build(self, small_clustered,
                                                  small_uniform):
        obs = Observability()
        builder = WKNNGBuilder(cfg(), obs=obs)
        builder.build(small_clustered)
        _, rep2 = builder.build(small_uniform, return_report=True)
        # the second report derives from the second root span only
        root = max((r for r in obs.trace.records if r.depth == 0),
                   key=lambda r: r.start)
        assert rep2.total_seconds <= root.seconds * 1.001


class TestAcceptance:
    """The issue's acceptance criterion, end to end."""

    def test_traced_build_covers_phases_and_matches_legacy_counters(
            self, small_clustered, tmp_path):
        from repro.kernels.counters import METRICS_PREFIX, OpCounters

        obs = Observability()
        _, report = WKNNGBuilder(cfg(), obs=obs).build(
            small_clustered, return_report=True)
        out = tmp_path / "trace.jsonl"
        write_trace(out, obs, meta={"dataset": "small_clustered"})
        data = read_trace(out)

        # span tree covers the whole pipeline
        paths = data.span_paths()
        for phase in PHASES:
            assert f"build/{phase}" in paths
        assert "build" in paths

        # aggregated counters == the legacy OpCounters surface, exactly
        section = data.metrics.section(METRICS_PREFIX)
        assert section == report.counters
        assert set(section) == set(OpCounters().as_dict())

        # and an independent identically-seeded build agrees (the trace is
        # a faithful record, not a lossy summary)
        _, report2 = WKNNGBuilder(cfg()).build(
            small_clustered, return_report=True)
        assert report2.counters == report.counters
        assert report2.refine_insertions == report.refine_insertions

    def test_round_trip_preserves_spans_meta_and_metrics(self, tmp_path):
        obs = Observability()
        with obs.trace.span("build", n=10):
            with obs.trace.span("forest"):
                pass
        obs.metrics.counter("kernel/distance_evals").inc(123)
        obs.metrics.gauge("forest/n_leaves").set(4.0)
        obs.metrics.histogram("dispatch/x/seconds").observe(0.5)
        out = tmp_path / "t.jsonl"
        write_trace(out, obs, meta={"note": "unit"})
        data = read_trace(out)
        assert data.meta["note"] == "unit"
        assert data.meta["schema"] == 1
        assert [s.path for s in data.spans] == ["build/forest", "build"]
        assert data.spans[1].attrs == {"n": 10}
        assert data.metrics.counter("kernel/distance_evals").get() == 123
        assert data.metrics.gauge("forest/n_leaves").get() == 4.0
        assert data.metrics.histogram("dispatch/x/seconds").get()["count"] == 1

    def test_simt_backend_traces_too(self, tiny_points):
        obs = Observability()
        config = BuildConfig(k=5, n_trees=1, leaf_size=16, refine_iters=1,
                             backend="simt", strategy="atomic", seed=0)
        _, report = WKNNGBuilder(config, obs=obs).build(
            tiny_points, return_report=True)
        for phase in PHASES:
            assert f"build/{phase}" in obs.trace.tree_paths()
        # simt counters come from the device metrics
        assert report.counters["warps_launched"] > 0
        # the simulated launches surfaced through the dispatch namespace
        assert any(name.startswith("dispatch/simt/")
                   for name in obs.metrics.names())

    def test_disabled_observability_still_yields_report(self, small_clustered):
        obs = Observability.disabled()
        _, report = WKNNGBuilder(cfg(), obs=obs).build(
            small_clustered, return_report=True)
        assert len(obs.trace.records) == 0
        assert report.phase_seconds == {}   # no spans -> no phase timings
        assert report.counters["distance_evals"] > 0  # metrics still flow


class TestQuantileHistogram:
    def test_quantiles_of_known_distribution(self):
        from repro.obs.metrics import QuantileHistogram

        h = QuantileHistogram()
        for v in range(1, 1001):          # 1..1000, well under the reservoir
            h.observe(float(v))
        out = h.get()
        assert out["count"] == 1000
        assert out["p50"] == pytest.approx(500.5, rel=0.01)
        assert out["p95"] == pytest.approx(950.0, rel=0.01)
        assert out["p99"] == pytest.approx(990.0, rel=0.01)

    def test_reservoir_bounds_memory(self):
        from repro.obs.metrics import QuantileHistogram

        h = QuantileHistogram()
        for v in range(QuantileHistogram.RESERVOIR_CAP * 3):
            h.observe(float(v))
        assert len(h.samples) == QuantileHistogram.RESERVOIR_CAP
        assert h.count == QuantileHistogram.RESERVOIR_CAP * 3
        # sampled quantiles stay in the ballpark of the true ones
        n = QuantileHistogram.RESERVOIR_CAP * 3
        assert h.get()["p50"] == pytest.approx(n / 2, rel=0.10)

    def test_deterministic_across_instances(self):
        from repro.obs.metrics import QuantileHistogram

        a, b = QuantileHistogram(), QuantileHistogram()
        for v in range(20_000):
            a.observe(float(v))
            b.observe(float(v))
        assert a.get() == b.get()

    def test_merge_combines_counts(self):
        from repro.obs.metrics import QuantileHistogram

        a, b = QuantileHistogram(), QuantileHistogram()
        for v in range(100):
            a.observe(float(v))
        for v in range(100, 200):
            b.observe(float(v))
        a.merge(b)
        out = a.get()
        assert out["count"] == 200
        assert out["min"] == 0.0 and out["max"] == 199.0
        assert out["p50"] == pytest.approx(99.5, rel=0.05)

    def test_registry_accessor_and_kind_stability(self):
        reg = MetricsRegistry()
        h = reg.quantile_histogram("serve/latency")
        h.observe(1.0)
        assert reg.quantile_histogram("serve/latency") is h
        with pytest.raises(Exception):
            reg.counter("serve/latency")   # kind mismatch

    def test_trace_round_trip_preserves_percentiles(self, tmp_path):
        obs = Observability()
        h = obs.metrics.quantile_histogram("serve/latency_seconds")
        for v in range(500):
            h.observe(v / 1000.0)
        before = h.get()
        path = write_trace(tmp_path / "t.jsonl", obs)
        restored = read_trace(path).metrics
        after = restored.quantile_histogram("serve/latency_seconds").get()
        assert after["count"] == before["count"]
        for p in ("p50", "p95", "p99"):
            assert after[p] == pytest.approx(before[p])

    def test_empty_histogram_reports_zero_percentiles(self):
        from repro.obs.metrics import QuantileHistogram

        out = QuantileHistogram().get()
        assert out["count"] == 0
        assert out["p50"] == 0.0 and out["p99"] == 0.0
