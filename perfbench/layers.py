"""The traced run: wrappers around each layer's public functions, and the
per-layer metrics computed from the spans and the program's public counters.

Layers are named after the program's modules.  Each wrapper is installed
where its caller looks the name up, so ``build_forest`` is traced as
``repro.core.builder.build_forest``.  Request-level spans (generator
lateness, admission-queue wait) are added by the workload from its own
timings.
"""

from __future__ import annotations

import numpy as np

from spans import Span, Tracer

#: every per-layer metric, in BENCHMARK.json order: name -> unit
PER_LAYER = {
    "rpforest.s": "s", "rpforest.leaves": "count",
    "kernels.leaf_s": "s", "kernels.distance_evals": "count",
    "kernels.candidates_seen": "count", "kernels.insert_yield": "fraction",
    "kernels.bytes_computed": "bytes",
    "refine.s": "s", "refine.rounds": "count", "refine.insert_yield": "fraction",
    "builder.self_s": "s",
    "costmodel.cycles": "cycles",
    "search.calls": "count", "search.s": "s", "search.batch_mean": "queries",
    "search.rounds_per_call": "count", "search.dist_evals_per_query": "count",
    "search.rerank_evals_per_query": "count", "search.us_per_round": "us",
    "server.queue_wait_ms.p50": "ms", "server.queue_wait_ms.p99": "ms",
    "server.batch_mean": "queries", "server.self_ms": "ms",
    "server.rejected": "count", "server.timeouts": "count",
    "server.shed_served": "count",
    "cluster.scatter_ms": "ms", "cluster.rpc_ms.p50": "ms",
    "cluster.rpc_ms.p99": "ms", "cluster.merge_ms": "ms",
    "cluster.self_ms": "ms", "cluster.failovers": "count",
    "mutable.insert_ms": "ms", "mutable.delete_ms": "ms",
    "mutable.flips": "count", "mutable.compactions": "count",
    "mutable.tombstone_frac": "fraction",
    "quant.encode_ms": "ms", "quant.memory_reduction": "x", "quant.drift": "ratio",
    "gen.late_ms.p99": "ms", "trace.overhead_frac": "fraction",
    "trace.layer_share": "fraction",
}

#: bytes one float32 distance evaluation reads (two d-dim rows), computed
#: from the counters, not measured
def bytes_per_eval(dim: int) -> int:
    return 2 * dim * 4


def _mean(xs) -> float:
    xs = list(xs)
    return float(np.mean(xs)) if xs else 0.0


def _pct(xs, q: float) -> float:
    xs = list(xs)
    return float(np.quantile(xs, q)) if xs else 0.0


class Layers:
    """Installs the wrappers on one tracer and turns the spans into metrics."""

    def __init__(self, tracer: Tracer, dim: int, leaf_size: int, k: int) -> None:
        self.tracer = tracer
        self.dim = dim
        self.leaf_size = leaf_size
        self.k = k
        self.active = False
        self.reports: list = []          # BuildReport of every traced build
        self.batches: list[Span] = []    # server/cluster batch spans, in order
        self._unsubscribe = []

    # -- install / remove ----------------------------------------------------------

    def install(self) -> None:
        if self.active:
            return
        import repro.core.builder as builder
        import repro.core.mutable as mutable
        import repro.serve.cluster as cluster
        from repro.apps.search import GraphSearchIndex
        from repro.core.quant import QuantizedStore
        from repro.kernels.strategy import Strategy

        t = self.tracer

        def counters_before(args, kwargs):
            strategy = args[0] if isinstance(args[0], Strategy) else args[2]
            return strategy, strategy.counters.candidates_seen, \
                strategy.counters.candidates_inserted

        def counters_after(sp, args, kwargs, out, ctx):
            strategy, seen0, ins0 = ctx
            sp.attrs["seen"] = strategy.counters.candidates_seen - seen0
            sp.attrs["inserted"] = strategy.counters.candidates_inserted - ins0

        def build_after(sp, args, kwargs, out, ctx):
            report = out[1] if isinstance(out, tuple) else out.report
            self.reports.append(report)

        def search_after(sp, args, kwargs, out, ctx):
            st = args[0].stats()
            sp.attrs.update(queries=st.get("queries", 0), rounds=st.get("rounds", 0),
                            dist=st.get("distance_evals", 0),
                            rerank=st.get("rerank_evals", 0))

        def scatter_after(sp, args, kwargs, out, ctx):
            sp.attrs["rpc_ms"] = [float(info.get("rpc_ms", 0.0)) for _, _, info in out]

        t.wrap(builder.WKNNGBuilder, "build", "builder.build", after=build_after)
        t.wrap(builder, "build_forest", "rpforest.build_forest")
        t.wrap(Strategy, "update_leaf_batch", "kernels.update_leaf_batch",
               before=counters_before, after=counters_after)
        t.wrap(Strategy, "update_pairs", "kernels.update_pairs")
        t.wrap(builder, "refine_round_sharded", "refine.round",
               before=counters_before, after=counters_after)
        t.wrap(mutable, "refine_round", "refine.round",
               before=counters_before, after=counters_after)
        t.wrap(GraphSearchIndex, "search", "search", after=search_after)
        t.wrap(mutable.MutableIndex, "insert", "mutable.insert")
        t.wrap(mutable.MutableIndex, "delete", "mutable.delete")
        t.wrap(QuantizedStore, "encode", "quant.encode")
        t.wrap(cluster.ShardRouter, "scatter", "cluster.scatter", after=scatter_after)
        t.wrap(cluster, "merge_topk", "cluster.merge")
        self.active = True

    def uninstall(self) -> None:
        self.tracer.unwrap_all()
        self.active = False

    def observe(self, obs, before_event: str, after_event: str, name: str) -> None:
        """Open a ``name`` span per micro-batch from the serving layer's
        profiling hooks (emitted on its worker thread around the engine call)."""
        t = self.tracer

        def on_before(event, payload):
            if self.active:
                sp = t.begin(name, batch=int(payload.get("batch", 0)))
                self.batches.append(sp)

        def on_after(event, payload):
            cur = t.current()
            if cur is not None and cur.name == name:
                t.end(cur)

        self._unsubscribe.append(obs.hooks.subscribe(before_event, on_before))
        self._unsubscribe.append(obs.hooks.subscribe(after_event, on_after))

    def close(self) -> None:
        self.uninstall()
        for unsub in self._unsubscribe:
            unsub()
        self._unsubscribe.clear()

    # -- metrics ---------------------------------------------------------------

    def metrics(self, extra: dict) -> dict[str, float]:
        """Every per-layer metric; layers a workload does not run report 0."""
        t = self.tracer
        spans = t.finished()
        by_id = {s.sid: s for s in spans}
        selfs = t.self_seconds()

        def under(s: Span, name: str) -> bool:
            while s.parent is not None:
                s = by_id.get(s.parent)
                if s is None:
                    return False
                if s.name == name:
                    return True
            return False

        out = {name: 0.0 for name in PER_LAYER}
        builds = [s for s in spans if s.name == "builder.build"]
        nb = max(1, len(builds))
        forest = [s for s in spans if s.name == "rpforest.build_forest"]
        leaf = [s for s in spans if s.name == "kernels.update_leaf_batch"]
        refine = [s for s in spans if s.name == "refine.round"
                  and under(s, "builder.build")]
        if builds:
            out["rpforest.s"] = sum(s.seconds for s in forest) / nb
            out["kernels.leaf_s"] = sum(s.seconds for s in leaf) / nb
            out["refine.s"] = sum(s.seconds for s in refine) / nb
            out["refine.rounds"] = len(refine) / nb
            seen = sum(s.attrs.get("seen", 0) for s in refine)
            out["refine.insert_yield"] = (
                sum(s.attrs.get("inserted", 0) for s in refine) / seen if seen else 0.0)
            out["builder.self_s"] = sum(selfs[s.sid] for s in builds) / nb
        if self.reports:
            from repro.bench.costmodel import wknng_cycles
            from repro.kernels.counters import OpCounters

            reps = self.reports
            out["rpforest.leaves"] = _mean(r.leaf_stats.get("n_leaves", 0) for r in reps)
            evals = _mean(r.counters.get("distance_evals", 0) for r in reps)
            seen = _mean(r.counters.get("candidates_seen", 0) for r in reps)
            ins = _mean(r.counters.get("candidates_inserted", 0) for r in reps)
            out["kernels.distance_evals"] = evals
            out["kernels.candidates_seen"] = seen
            out["kernels.insert_yield"] = ins / seen if seen else 0.0
            out["kernels.bytes_computed"] = evals * bytes_per_eval(self.dim)
            fields = OpCounters().as_dict().keys()
            out["costmodel.cycles"] = _mean(
                wknng_cycles("tiled", OpCounters(**{f: int(r.counters.get(f, 0))
                                                   for f in fields}),
                             dim=self.dim, k=self.k,
                             leaf_size=self.leaf_size).total
                for r in reps)

        # engine calls made by the serving layer (not the writer's attach search)
        searches = [s for s in spans if s.name == "search"
                    and getattr(by_id.get(s.parent), "name", None) == "server.batch"]
        if searches:
            q = sum(s.attrs["queries"] for s in searches)
            rounds = sum(s.attrs["rounds"] for s in searches)
            secs = sum(s.seconds for s in searches)
            out["search.calls"] = len(searches)
            out["search.s"] = secs
            out["search.batch_mean"] = q / len(searches)
            out["search.rounds_per_call"] = rounds / len(searches)
            out["search.dist_evals_per_query"] = sum(s.attrs["dist"] for s in searches) / q
            out["search.rerank_evals_per_query"] = sum(s.attrs["rerank"] for s in searches) / q
            out["search.us_per_round"] = secs / rounds * 1e6 if rounds else 0.0

        if self.batches:
            out["server.batch_mean"] = _mean(b.attrs["batch"] for b in self.batches)
        scatter = [s for s in spans if s.name == "cluster.scatter"]
        if scatter:
            rpc = [ms for s in scatter for ms in s.attrs["rpc_ms"]]
            out["cluster.scatter_ms"] = _mean(s.seconds * 1e3 for s in scatter)
            out["cluster.rpc_ms.p50"] = _pct(rpc, 0.5)
            out["cluster.rpc_ms.p99"] = _pct(rpc, 0.99)
            out["cluster.merge_ms"] = _mean(
                s.seconds * 1e3 for s in spans if s.name == "cluster.merge")
            out["cluster.self_ms"] = _mean(
                s.seconds * 1e3 - max(s.attrs["rpc_ms"]) for s in scatter)
        inserts = [s for s in spans if s.name == "mutable.insert"]
        deletes = [s for s in spans if s.name == "mutable.delete"]
        out["mutable.insert_ms"] = _mean(s.seconds * 1e3 for s in inserts)
        out["mutable.delete_ms"] = _mean(s.seconds * 1e3 for s in deletes)
        out["quant.encode_ms"] = _mean(
            s.seconds * 1e3 for s in spans if s.name == "quant.encode")
        for key, value in extra.items():
            out[key] = float(value)
        return out


def request_spans(tracer: Tracer, step, batches: list[Span]) -> dict:
    """Record each request's generator lateness and admission-queue wait as
    spans, and return the serving layer's per-request figures.

    Requests of one step go through a single FIFO admission queue and one
    worker, so the accepted requests fill the step's batches in submit order.
    """
    by_parent: dict[int, float] = {}
    for s in tracer.finished():
        if s.parent is not None:
            by_parent[s.parent] = by_parent.get(s.parent, 0.0) + s.seconds
    accepted = np.flatnonzero(np.isfinite(step.done))
    waits, server_self, engine, late, wall = [], [], [], [], []
    it = iter(accepted)
    for b in batches:
        inner = by_parent.get(b.sid, 0.0)
        for _ in range(b.attrs["batch"]):
            i = next(it, None)
            if i is None:
                break
            rid = int(i)
            req = tracer.record("request", step.due[i], step.done[i], rid=rid)
            tracer.record("gen.late", step.due[i], step.submit[i],
                          parent=req.sid, rid=rid)
            tracer.record("server.queue", step.submit[i], b.start,
                          parent=req.sid, rid=rid)
            total = step.done[i] - step.submit[i]
            wait = b.start - step.submit[i]
            waits.append(wait * 1e3)
            engine.append(inner * 1e3)
            server_self.append((total - wait - inner) * 1e3)
            late.append((step.submit[i] - step.due[i]) * 1e3)
            wall.append((step.done[i] - step.due[i]) * 1e3)
    return {"queue_wait_ms": waits, "server_self_ms": server_self,
            "engine_ms": engine, "late_ms": late, "wall_ms": wall}
