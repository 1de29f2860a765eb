"""The four workloads: build, serve, churn and cluster.

Each takes the seeded inputs, the measured seconds and an optional
:class:`~layers.Layers` (the traced run), drives the program through its
public API and returns a :class:`Result`: end-to-end metrics with units and
sample counts, correctness checks, attempts and failures.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from host import NOT_VERIFIABLE, peak_rss_mb
from layers import request_spans
from openloop import Step, run_step, tail
from oracle import exact_topk, recall

# -- common data and settings (see README.md for why these sizes) -------------

N = 10_000            # indexed points (the driver's time budget halves 20k)
DIM = 64
N_QUERIES = 1_000     # held-out query rows, cycled by the request stream
N_POOL = 2_048        # held-out rows the churn writer inserts
K_BUILD = 16
K_QUERY = 10
EF = 64
SETUPS = 3            # set-ups per serving run; setup_s is their median

REF_RATE = 400.0      # q/s: the reference rate of every serving workload
LADDER = (800.0, 1200.0, 1600.0, 2000.0)  # q/s: serve's upper rungs
LADDER_STEP_S = 1.5
P99_LIMIT_MS = 100.0
P99_WINDOW = 1_000    # requests per p99 window: the fewest with ten beyond p99

WRITE_RATE = 1.0      # churn writer ops/s, alternating insert and delete
WRITE_BATCH = 32
N_PROBES = 200        # churn end-of-run probe queries

RECALL_FLOOR = {"build": 0.95, "serve": 0.95, "churn": 0.9, "cluster": 0.95}


def build_config():
    from repro import BuildConfig

    return BuildConfig(k=K_BUILD, strategy="tiled", n_jobs=1, seed=0)


def serve_config():
    from repro.serve import AdmissionPolicy, CachePolicy, ServeConfig

    return ServeConfig(
        admission=AdmissionPolicy(max_batch=64, max_wait_ms=2.0, queue_limit=1024),
        cache=CachePolicy(size=0),
        default_k=K_QUERY,
    )


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)   # name -> (value, unit, samples)
    checks: list = field(default_factory=list)    # (name, True/False/NOT_VERIFIABLE, detail)
    attempted: int = 0
    failed: int = 0
    layer_extra: dict = field(default_factory=dict)
    info: list = field(default_factory=list)      # extra report lines

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def check(self, name: str, ok, detail: str = "") -> None:
        self.checks.append((name, ok, detail))

    @property
    def correct(self) -> bool:
        return all(ok is not False for _, ok, _ in self.checks)


def _children() -> list[int]:
    return [p.pid for p in multiprocessing.active_children()]


# -- build ---------------------------------------------------------------------------


def run_build(inp: dict, seconds: float, layers=None) -> Result:
    """Closed loop, one caller: one ``WKNNGBuilder.build`` per iteration."""
    from repro import WKNNGBuilder

    res = Result()
    x = inp["base"]
    cfg = build_config()
    t0 = time.perf_counter()
    first = WKNNGBuilder(cfg).build(x)   # set-up: the cold first build
    setup = time.perf_counter() - t0
    gc.collect()

    times, traced_times, graphs = [], [], []
    deadline = time.perf_counter() + seconds
    while len(times) + len(traced_times) < 2 or time.perf_counter() < deadline:
        # traced run: alternate untraced and traced builds for the overhead
        traced = layers is not None and len(times) > len(traced_times)
        if traced:
            layers.install()
        t0 = time.perf_counter()
        g = WKNNGBuilder(cfg).build(x)
        dt = time.perf_counter() - t0
        if traced:
            layers.uninstall()
        (traced_times if traced else times).append(dt)
        graphs.append(g)
    rss = peak_rss_mb()

    res.attempted = 1 + len(graphs)
    exact = exact_topk(x, x, K_BUILD, exclude_self=True)
    bad = 0
    for g in [first] + graphs:
        ok = (g.ids.shape == (N, K_BUILD) and g.ids.min() >= 0 and g.ids.max() < N
              and not (g.ids == np.arange(N)[:, None]).any()
              and bool(np.all(np.diff(g.dists, axis=1) >= 0)))
        bad += not ok
    res.failed = bad
    res.check("graph shape, ids in range, no self loops, sorted rows", bad == 0,
              f"{bad} malformed of {res.attempted}")
    same = all(np.array_equal(g.ids, first.ids) for g in graphs)
    res.check("repeated builds are identical", same)
    rec = recall(first.ids, exact)
    res.check(f"graph recall@{K_BUILD} >= {RECALL_FLOOR['build']}",
              rec >= RECALL_FLOOR["build"], f"{rec:.4f}")

    med = statistics.median(times)
    res.metric("setup_s", setup, "s", 1)
    res.metric("build_s", med, "s", len(times))
    res.metric("recall", rec, "fraction", N)
    res.metric("rss_mb", rss, "MB", 1)
    res.metric("p50_ms", med * 1e3, "ms", len(times))
    # a handful of builds supports no percentile: the slowest one stands in
    res.metric("p99_ms", max(times) * 1e3, "ms", len(times))
    if traced_times:
        res.layer_extra["trace.overhead_frac"] = \
            statistics.median(traced_times) / med - 1.0
        res.layer_extra["trace.layer_share"] = _build_share(layers)
    return res


def _build_share(layers) -> float:
    """Share of traced build wall time inside the named inner layers."""
    spans = layers.tracer.finished()
    total = sum(s.seconds for s in spans if s.name == "builder.build")
    inner = sum(s.seconds for s in spans if s.name in (
        "rpforest.build_forest", "kernels.update_leaf_batch", "refine.round"))
    return inner / total if total else 0.0


# -- serving workloads ------------------------------------------------------------


def _setups(make, first_query, n: int):
    """Run ``make() -> (client, build_s)`` ``n`` times and time each until
    its first answer; keep the last client running, close the others."""
    setup, builds, client = [], [], None
    for _ in range(n):
        if client is not None:
            client.close()
        t0 = time.perf_counter()
        client, build_s = make()
        client.query(first_query, K_QUERY, timeout=60.0)
        setup.append(time.perf_counter() - t0)
        builds.append(build_s)
    # set-up garbage is collected before timing, not inside the measured step
    gc.collect()
    return client, setup, builds


def _check_answers(step: Step, n_valid: int) -> None:
    """Mark answers with the wrong shape, out-of-range or repeated ids."""
    wrong = np.zeros(step.attempted, dtype=bool)
    for i, ids in enumerate(step.ids):
        if ids is None:
            continue
        ids = np.asarray(ids)
        wrong[i] = (ids.shape != (K_QUERY,) or ids.min() < 0 or ids.max() >= n_valid
                    or np.unique(ids).size != K_QUERY)
    step.wrong = wrong


def _served_recall(steps: list[Step], inp: dict, exact: np.ndarray) -> tuple[float, int]:
    """Recall of every successful answer of the reference steps, and their count.
    Each step restarts the query stream at request 0."""
    approx, want = [], []
    for s in steps:
        qidx = inp["order"][np.arange(s.attempted) % inp["order"].size]
        ok = np.flatnonzero(s.ok)
        approx.extend(np.asarray(s.ids[i]) for i in ok)
        want.append(exact[qidx[ok]])
    if not approx:
        return 0.0, 0
    return recall(np.stack(approx), np.concatenate(want)), len(approx)


def _latency_metrics(res: Result, step: Step) -> None:
    """p50 over the whole reference step; p99 as the median of the p99s of
    its consecutive windows of ``P99_WINDOW`` requests, each with ten samples
    beyond it, so one transient stall of a shared host does not set the run's
    tail.  The whole-step p99 is printed beside it."""
    lat = step.latency_ms()
    windows = [lat[i:i + P99_WINDOW]
               for i in range(0, lat.size - P99_WINDOW + 1, P99_WINDOW)]
    res.metric("p50_ms", float(np.median(lat)) if lat.size else float("nan"),
               "ms", lat.size)
    res.metric("p99_ms", float(np.median([tail(w)[0] for w in windows]))
               if windows else float("nan"), "ms", lat.size)
    res.check(f"p99 over >= 1 window of {P99_WINDOW} requests", bool(windows),
              f"{len(windows)} windows, n={lat.size}")
    whole, _ = tail(lat)
    res.info.append(f"p99 over the whole step {whole:.3f} ms (n={lat.size})")
    late_p99, _ = tail(step.late_ms())
    res.info.append(f"generator lateness p99 {late_p99:.3f} ms "
                    f"(n={step.attempted}), end-of-step backlog {step.backlog_end}")
    res.layer_extra["gen.late_ms.p99"] = late_p99


def _traced_steps(client, qstream, seconds: float, layers) -> tuple[Step, list]:
    """Traced run: alternate untraced and traced quarter-steps at the
    reference rate; return the merged untraced step and the traced ones."""
    plain, traced = [], []
    layers.batches.clear()   # drop the set-up's first-answer batch
    for j in range(4):
        if j % 2:
            layers.install()
            first = len(layers.batches)
        step = run_step(qstream(client), REF_RATE, seconds / 4)
        if j % 2:
            layers.uninstall()
            traced.append((step, layers.batches[first:]))
        else:
            plain.append(step)
    return plain, traced


def _merge(steps: list[Step]) -> Step:
    out = Step(rate=steps[0].rate,
               due=np.concatenate([s.due for s in steps]),
               submit=np.concatenate([s.submit for s in steps]),
               done=np.concatenate([s.done for s in steps]),
               ids=[r for s in steps for r in s.ids],
               epoch=np.concatenate([s.epoch for s in steps]),
               errors=[e for s in steps for e in s.errors],
               backlog_end=max(s.backlog_end for s in steps))
    if all(s.wrong is not None for s in steps):
        out.wrong = np.concatenate([s.wrong for s in steps])
    return out


def _serving_trace_extra(res: Result, layers, plain: Step, traced) -> None:
    """Per-request serving figures of the traced quarter-steps."""
    per = {"queue_wait_ms": [], "server_self_ms": [], "engine_ms": [],
           "late_ms": [], "wall_ms": []}
    for step, batches in traced:
        part = request_spans(layers.tracer, step, batches)
        for key in per:
            per[key].extend(part[key])
    traced_lat = np.concatenate([s.latency_ms() for s, _ in traced])
    plain_lat = plain.latency_ms()
    ex = res.layer_extra
    ex["server.queue_wait_ms.p50"] = float(np.median(per["queue_wait_ms"]))
    ex["server.queue_wait_ms.p99"] = float(np.quantile(per["queue_wait_ms"], 0.99))
    ex["server.self_ms"] = float(np.mean(per["server_self_ms"]))
    ex["trace.overhead_frac"] = float(np.median(traced_lat) / np.median(plain_lat) - 1.0)
    wall = sum(per["wall_ms"])
    ex["trace.layer_share"] = (
        sum(per["engine_ms"]) + sum(per["queue_wait_ms"]) + sum(per["late_ms"])
    ) / wall if wall else 0.0


def _query_stream(inp: dict):
    order = inp["order"]
    queries = inp["queries"]

    def stream(client):
        return lambda i: client.submit(queries[order[i % order.size]], K_QUERY)
    return stream


def run_serve(inp: dict, seconds: float, layers=None) -> Result:
    """Static float32 index behind ``KNNServer``, open loop at the reference
    rate, then the upper rungs of the rate ladder."""
    from repro.apps.search import GraphSearchIndex, SearchConfig
    from repro.obs import Events, Observability
    from repro.serve import KNNServer

    res = Result()
    x, queries = inp["base"], inp["queries"]
    obs = Observability(enabled=False) if layers is not None else None
    if layers is not None:
        layers.observe(obs, Events.SERVE_BATCH_BEFORE, Events.SERVE_BATCH_AFTER,
                       "server.batch")
        layers.install()

    def make():
        t0 = time.perf_counter()
        index = GraphSearchIndex.build(x, build_config=build_config(),
                                       search_config=SearchConfig(ef=EF))
        build_s = time.perf_counter() - t0
        return KNNServer(index, serve_config(), obs=obs).start(), build_s

    server, setup, builds = _setups(make, queries[0], 1 if layers else SETUPS)
    if layers is not None:
        layers.uninstall()
    stream = _query_stream(inp)
    try:
        if layers is None:
            plain = [run_step(stream(server), REF_RATE, seconds)]
        else:
            plain, traced = _traced_steps(server, stream, seconds, layers)
        steps = plain + ([s for s, _ in traced] if layers is not None else [])
        for s in steps:
            _check_answers(s, N)
        step = _merge(plain)
        # rate ladder: the reference step is the first rung
        rungs = [(REF_RATE, step)]
        if _rung_ok(step):
            for rate in LADDER:
                rung = run_step(stream(server), rate, LADDER_STEP_S)
                _check_answers(rung, N)
                steps.append(rung)
                rungs.append((rate, rung))
                if not _rung_ok(rung):
                    break
        rss = peak_rss_mb()
        stats = server.stats()
    finally:
        server.close()

    _serving_common(res, steps, step, setup, builds, rss)
    exact = exact_topk(queries, x, K_QUERY)
    rec, n_rec = _served_recall(plain, inp, exact)
    res.metric("recall", rec, "fraction", n_rec)
    res.check(f"recall@{K_QUERY} >= {RECALL_FLOOR['serve']}",
              rec >= RECALL_FLOOR["serve"], f"{rec:.4f}")
    slo = 0.0
    for rate, rung in rungs:
        p99, _ = tail(rung.latency_ms())
        passed = _rung_ok(rung)
        res.info.append(f"rung {rate:6.0f} q/s: p99 {p99:8.2f} ms, failed "
                        f"{rung.failed}/{rung.attempted}, backlog {rung.backlog_end}"
                        f" -> {'meets' if passed else 'misses'} the SLO")
        if not passed:
            break
        slo = rate
    res.info.append(f"slo_qps {slo:.0f} 1/s (p99 <= {P99_LIMIT_MS:.0f} ms, no "
                    f"failures, no growing backlog; n={len(rungs)} rungs)")
    _server_layer_extra(res, stats)
    if layers is not None:
        _serving_trace_extra(res, layers, step, traced)
    return res


def _rung_ok(step: Step) -> bool:
    p99, _ = tail(step.latency_ms())
    backlog_limit = step.rate * P99_LIMIT_MS / 1000.0
    return step.failed == 0 and p99 <= P99_LIMIT_MS and step.backlog_end <= backlog_limit


def _serving_common(res: Result, steps, step, setup, builds, rss) -> None:
    res.attempted = sum(s.attempted for s in steps)
    res.failed = sum(s.failed for s in steps)
    wrong = sum(int(s.wrong.sum()) for s in steps if s.wrong is not None)
    res.check("every answer has the right shape and only valid ids", wrong == 0,
              f"{wrong} wrong")
    res.metric("setup_s", statistics.median(setup), "s", len(setup))
    res.metric("build_s", statistics.median(builds), "s", len(builds))
    res.metric("rss_mb", rss, "MB", 1)
    _latency_metrics(res, step)


def _server_layer_extra(res: Result, stats: dict) -> None:
    res.layer_extra["server.rejected"] = stats.get("rejected", 0)
    res.layer_extra["server.timeouts"] = stats.get("timeouts", 0)
    res.layer_extra["server.shed_served"] = stats.get("shed_served", 0)


def run_cluster(inp: dict, seconds: float, layers=None) -> Result:
    """``ClusterClient`` with S=2, R=1 process replicas, open loop at the
    reference rate on the same data and query stream as ``serve``."""
    from repro.apps.search import SearchConfig
    from repro.obs import Events, Observability
    from repro.serve import ClusterClient, ClusterConfig

    res = Result()
    x, queries = inp["base"], inp["queries"]
    obs = Observability(enabled=False) if layers is not None else None
    if layers is not None:
        layers.observe(obs, Events.CLUSTER_BATCH_BEFORE, Events.CLUSTER_BATCH_AFTER,
                       "server.batch")
        layers.install()
    config = ClusterConfig(n_shards=2, n_replicas=1, backend="process",
                           serve=serve_config())

    def make():
        t0 = time.perf_counter()
        client = ClusterClient.build(x, k=K_BUILD, build_config=build_config(),
                                     search_config=SearchConfig(ef=EF),
                                     config=config, obs=obs)
        build_s = time.perf_counter() - t0
        return client.start(), build_s

    client, setup, builds = _setups(make, queries[0], 1 if layers else SETUPS)
    if layers is not None:
        layers.uninstall()
    stream = _query_stream(inp)
    try:
        if layers is None:
            plain = [run_step(stream(client), REF_RATE, seconds)]
        else:
            plain, traced = _traced_steps(client, stream, seconds, layers)
        steps = plain + ([s for s, _ in traced] if layers is not None else [])
        for s in steps:
            _check_answers(s, N)
        step = _merge(plain)
        rss = peak_rss_mb(_children())
        stats = client.stats()
    finally:
        client.close()

    _serving_common(res, steps, step, setup, builds, rss)
    exact = exact_topk(queries, x, K_QUERY)
    rec, n_rec = _served_recall(plain, inp, exact)
    res.metric("recall", rec, "fraction", n_rec)
    res.check(f"recall@{K_QUERY} >= {RECALL_FLOOR['cluster']}",
              rec >= RECALL_FLOOR["cluster"], f"{rec:.4f}")
    res.check("replica processes stopped", not _children(),
              f"{len(_children())} alive")
    _server_layer_extra(res, stats)
    res.layer_extra["cluster.failovers"] = stats["router"].get("failovers", 0)
    if layers is not None:
        _serving_trace_extra(res, layers, step, traced)
    return res


# -- churn ---------------------------------------------------------------------------


class Writer:
    """One thread writing open loop at ``WRITE_RATE`` ops/s: inserts of
    ``WRITE_BATCH`` held-out points alternate with deletes of ``WRITE_BATCH``
    previously inserted ids.  Base points are never deleted."""

    def __init__(self, index, pool: np.ndarray, seconds: float) -> None:
        self.index = index
        self.pool = pool
        self.seconds = seconds
        self.inserted_at: dict[int, int] = {}   # ext id -> epoch it appeared
        self.deleted_at: dict[int, int] = {}    # ext id -> epoch it vanished
        self.vectors: dict[int, np.ndarray] = {}
        self.latency_ms: dict[str, list[float]] = {"insert": [], "delete": []}
        self.errors: list[str] = []
        self._thread = threading.Thread(target=self._run, name="churn-writer")

    def start(self) -> None:
        self._thread.start()

    def join(self) -> None:
        self._thread.join(timeout=120.0)

    def _run(self) -> None:
        n_ops = int(self.seconds * WRITE_RATE)
        live: list[int] = []
        used = 0
        t0 = time.perf_counter()
        for j in range(n_ops):
            due = t0 + j / WRITE_RATE
            wait_s = due - time.perf_counter()
            if wait_s > 0:
                time.sleep(wait_s)
            kind = "insert" if j % 2 == 0 or not live else "delete"
            try:
                if kind == "insert":
                    batch = self.pool[used:used + WRITE_BATCH]
                    used += WRITE_BATCH
                    ext = self.index.insert(batch)
                    epoch = self.index.epoch
                    for e, v in zip(ext.tolist(), batch):
                        self.inserted_at[e] = epoch
                        self.vectors[e] = v
                    live.extend(ext.tolist())
                else:
                    victims, live = live[:WRITE_BATCH], live[WRITE_BATCH:]
                    self.index.delete(np.asarray(victims))
                    epoch = self.index.epoch
                    for e in victims:
                        self.deleted_at[e] = epoch
            except Exception as exc:  # a failed write fails the run
                self.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            self.latency_ms[kind].append((time.perf_counter() - due) * 1e3)


def _check_churn_answers(step: Step, writer: Writer) -> int:
    """Mark malformed answers and stale reads; return the stale count.

    An answer stamped with epoch ``e`` may only list base ids and ids
    inserted at or before ``e``; listing an id deleted at or before ``e``
    is a stale read."""
    wrong = np.zeros(step.attempted, dtype=bool)
    stale = 0
    for i, ids in enumerate(step.ids):
        if ids is None:
            continue
        ids = np.asarray(ids)
        at = step.epoch[i]
        bad = ids.shape != (K_QUERY,) or np.unique(ids).size != K_QUERY
        for e in ids.tolist():
            if e < 0 or (e >= N and writer.inserted_at.get(e, 1 << 62) > at):
                bad = True
            elif writer.deleted_at.get(e, 1 << 62) <= at:
                stale += 1
                bad = True
        wrong[i] = bad
    step.wrong = wrong
    return stale


def run_churn(inp: dict, seconds: float, layers=None) -> Result:
    """sq8 ``MutableIndex`` behind ``KNNServer``: reads open loop at the
    reference rate beside one open-loop writer thread."""
    from repro.apps.search import SearchConfig
    from repro.core.mutable import MutableIndex
    from repro.obs import Events, Observability
    from repro.serve import KNNServer

    res = Result()
    x, queries = inp["base"], inp["queries"]
    if (os.cpu_count() or 1) < 2:
        res.check("dispatcher and writer threads fit the CPUs", NOT_VERIFIABLE,
                  f"nproc={os.cpu_count()} < 2")
    obs = Observability(enabled=False) if layers is not None else None
    if layers is not None:
        layers.observe(obs, Events.SERVE_BATCH_BEFORE, Events.SERVE_BATCH_AFTER,
                       "server.batch")
        layers.install()
    holder = {}

    def make():
        t0 = time.perf_counter()
        index = MutableIndex.build(
            x, build_config(), SearchConfig(ef=EF, quantization="sq8"))
        build_s = time.perf_counter() - t0
        holder["index"] = index
        return KNNServer(index, serve_config(), obs=obs).start(), build_s

    server, setup, builds = _setups(make, queries[0], 1 if layers else SETUPS)
    if layers is not None:
        layers.uninstall()
    index = holder["index"]
    stream = _query_stream(inp)
    try:
        writer = Writer(index, inp["pool"], seconds)
        writer.start()
        if layers is None:
            plain = [run_step(stream(server), REF_RATE, seconds)]
        else:
            # the writer runs throughout; quarters alternate untraced/traced
            plain, traced = _traced_steps(server, stream, seconds, layers)
        writer.join()
        steps = plain + ([s for s, _ in traced] if layers is not None else [])
        stale = sum(_check_churn_answers(s, writer) for s in steps)
        step = _merge(plain)
        # end-of-run probes against exact top-k over the live set
        probe_q = queries[inp["order"][:N_PROBES]]
        probe = run_step(lambda i: server.submit(probe_q[i], K_QUERY),
                         REF_RATE * 4, N_PROBES / (REF_RATE * 4))
        _check_churn_answers(probe, writer)
        steps.append(probe)
        rss = peak_rss_mb()
        stats = server.stats()
        istats = index.stats()
        memory = index.snapshot.store.memory_stats()
    finally:
        server.close()

    live_ext = np.array([e for e in writer.inserted_at if e not in writer.deleted_at],
                        dtype=np.int64)
    live_pts = np.concatenate([x] + [writer.vectors[e][None] for e in live_ext])
    live_ids = np.concatenate([np.arange(N), live_ext])
    exact = live_ids[exact_topk(probe_q, live_pts, K_QUERY)]
    approx = np.stack([np.asarray(r) if r is not None else np.full(K_QUERY, -1)
                       for r in probe.ids])
    rec = recall(approx, exact)

    _serving_common(res, steps, step, setup, builds, rss)
    res.metric("recall", rec, "fraction", N_PROBES)
    res.check(f"end-of-run probe recall@{K_QUERY} >= {RECALL_FLOOR['churn']}",
              rec >= RECALL_FLOOR["churn"], f"{rec:.4f}")
    res.check("zero stale reads", stale == 0, f"{stale} stale ids")
    res.check("no compaction inside the run", istats["compactions"] == 0,
              f"{istats['compactions']} compactions")
    res.check("every write succeeded", not writer.errors, "; ".join(writer.errors[:3]))
    ins, dels = writer.latency_ms["insert"], writer.latency_ms["delete"]
    p50 = lambda xs: float(np.median(xs)) if xs else float("nan")  # noqa: E731
    res.info.append(f"write_p50_ms {p50(ins + dels):.3f} ms (n={len(ins + dels)} "
                    f"writes; inserts p50 {p50(ins):.3f} ms n={len(ins)}, "
                    f"deletes p50 {p50(dels):.3f} ms n={len(dels)})")
    res.attempted += len(ins) + len(dels) + len(writer.errors)
    res.failed += len(writer.errors)
    _server_layer_extra(res, stats)
    ex = res.layer_extra
    ex["mutable.flips"] = istats["flips"]
    ex["mutable.compactions"] = istats["compactions"]
    ex["mutable.tombstone_frac"] = istats["tombstone_fraction"]
    ex["quant.memory_reduction"] = memory["reduction"]
    ex["quant.drift"] = istats["quant_drift"] or 0.0
    if layers is not None:
        _serving_trace_extra(res, layers, step, traced)
    return res


WORKLOADS = {
    "build": run_build,
    "serve": run_serve,
    "churn": run_churn,
    "cluster": run_cluster,
}
