"""The w-KNNG builder: the paper's end-to-end construction pipeline.

:func:`run_build` is the one driver for both backends.  It owns the
phase order (forest -> leaf all-pairs -> refine rounds -> finalize), the
spans, the forest, the refine stop rule, the report and the graph meta.
A backend supplies only its list storage and kernels: :class:`_HostLists`
for the vectorised NumPy kernels,
:class:`repro.simt_kernels.pipeline._DeviceLists` for the SIMT simulator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.core.config import BuildConfig
from repro.core.graph import KNNGraph
from repro.core.metric import prepare_points
from repro.core.refine import RefineState
# the traced benchmark run (perfbench/layers.py) wraps the round by this name
from repro.core.refine import refine_round as refine_round_sharded
from repro.core.rpforest import RPForest, build_forest, forest_leaf_batches
from repro.core.sharding import run_leaf_phase_sharded
from repro.kernels.counters import METRICS_PREFIX as KERNEL_PREFIX
from repro.kernels.knn_state import KnnState
from repro.kernels.strategy import Strategy, get_strategy
from repro.obs import Observability
from repro.obs.hooks import Events
from repro.obs.trace import SpanRecord
from repro.utils.parallel import fork_available
from repro.utils.rng import as_generator, spawn_streams
from repro.utils.validation import check_k_fits, check_points_matrix

#: root span name of one build
ROOT_SPAN = "build"
#: the pipeline phases, in order (direct children of the root span)
PHASES = ("forest", "leaf_pairs", "refine", "finalize")


@dataclass(frozen=True)
class BuildReport:
    """An immutable view over the observability trace of one build.

    Constructed from a finished :class:`~repro.obs.Observability` session
    via :meth:`from_obs`; the legacy attribute surface is preserved:

    Attributes
    ----------
    phase_seconds:
        Wall-clock per pipeline phase (``forest``, ``leaf_pairs``,
        ``refine``, ``finalize``) - the durations of the root span's
        children.
    counters:
        The work-counter section of the metrics registry: the strategy's
        :class:`~repro.kernels.counters.OpCounters` snapshot for the
        vectorised backend, the device
        :class:`~repro.simt.metrics.KernelMetrics` for the simt backend.
    refine_insertions:
        Insertions per refinement round (length <= refine_iters; shorter if
        a round converged and stopped early) - the ``inserted`` attributes
        of the ``refine/round-*`` spans.
    leaf_stats:
        Forest shape diagnostics (leaf count, mean/max leaf size) - the
        ``forest/`` gauges.
    spans:
        The raw :class:`~repro.obs.trace.SpanRecord` tuple of the build
        (empty when constructed directly rather than from a trace).
    metrics:
        Full flat snapshot of the metrics registry at report time.
    metric:
        The distance metric actually resolved at build time
        (``"sqeuclidean"``/``"cosine"``), so bench JSON derived from
        :meth:`as_dict` is self-describing.
    strategy:
        The maintenance strategy actually resolved at build time (after
        ``"auto"`` resolution).
    parallel:
        Process-parallel execution summary: worker count plus per-shard
        wall times and merge times for the sharded phases (empty detail
        for serial builds).
    """

    phase_seconds: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    refine_insertions: list[int] = field(default_factory=list)
    leaf_stats: dict[str, float] = field(default_factory=dict)
    spans: tuple[SpanRecord, ...] = ()
    metrics: dict[str, Any] = field(default_factory=dict)
    metric: str = ""
    strategy: str = ""
    parallel: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def counters_snapshot(
        cls, obs: Observability, counters_prefix: str = KERNEL_PREFIX
    ) -> dict[str, int]:
        """Current integer counters under ``counters_prefix``.

        Taken *before* a build and passed to :meth:`from_obs` as
        ``counters_baseline`` so a shared long-lived observability session
        yields per-build counter deltas instead of running totals.
        """
        return {
            name: int(value)
            for name, value in obs.metrics.section(counters_prefix).items()
            if isinstance(value, (int, np.integer))
        }

    @classmethod
    def from_obs(
        cls,
        obs: Observability,
        counters_prefix: str = KERNEL_PREFIX,
        counters_baseline: dict[str, int] | None = None,
        metric: str = "",
        strategy: str = "",
        parallel: dict[str, Any] | None = None,
    ) -> "BuildReport":
        """Derive the report from a finished observability session.

        Uses the most recent completed root (``"build"``) span; when the
        tracer is disabled (no spans) the span-derived fields are empty but
        the metric-derived fields (``counters``, ``leaf_stats``) still
        populate.  ``counters_baseline`` (a :meth:`counters_snapshot` taken
        before the build) is subtracted so reports count only their own
        build even when one registry outlives several builds.
        """
        tracer = obs.trace
        roots = [r for r in tracer.records
                 if r.depth == 0 and r.name == ROOT_SPAN]
        phase_seconds: dict[str, float] = {}
        refine_insertions: list[int] = []
        spans: tuple[SpanRecord, ...] = ()
        if roots:
            root = max(roots, key=lambda r: r.start)
            lo, hi = root.start, root.start + root.seconds
            spans = tuple(
                r for r in tracer.records
                if lo <= r.start <= hi and (r is root or r.depth > 0)
            )
            for rec in sorted(spans, key=lambda r: r.start):
                if rec.depth == 1 and rec.parent_path == ROOT_SPAN:
                    phase_seconds[rec.name] = rec.seconds
                if (rec.depth == 2 and rec.parent_path == f"{ROOT_SPAN}/refine"
                        and "inserted" in rec.attrs):
                    refine_insertions.append(int(rec.attrs["inserted"]))
        baseline = counters_baseline or {}
        counters = {
            name: int(value) - baseline.get(name, 0)
            for name, value in obs.metrics.section(counters_prefix).items()
            if isinstance(value, (int, np.integer))
        }
        leaf_stats = {
            name: float(value)
            for name, value in obs.metrics.section("forest/").items()
            if isinstance(value, (int, float))
        }
        return cls(
            phase_seconds=phase_seconds,
            counters=counters,
            refine_insertions=refine_insertions,
            leaf_stats=leaf_stats,
            spans=spans,
            metrics=obs.metrics.as_dict(),
            metric=metric,
            strategy=strategy,
            parallel=dict(parallel or {}),
        )

    @property
    def total_seconds(self) -> float:
        return float(sum(self.phase_seconds.values()))

    def as_dict(self) -> dict[str, Any]:
        return {
            "phase_seconds": dict(self.phase_seconds),
            "total_seconds": self.total_seconds,
            "counters": dict(self.counters),
            "refine_insertions": list(self.refine_insertions),
            "leaf_stats": dict(self.leaf_stats),
            "metric": self.metric,
            "strategy": self.strategy,
            "parallel": dict(self.parallel),
        }


class WKNNGBuilder:
    """Builds approximate K-NN graphs with the w-KNNG algorithm.

    Usage::

        from repro import BuildConfig, WKNNGBuilder
        builder = WKNNGBuilder(BuildConfig(k=16, strategy="tiled", seed=0))
        graph, report = builder.build(points, return_report=True)
        graph.ids, graph.dists                 # (n, 16) neighbour matrices
        report.phase_seconds                   # where the time went

    The report is also attached as ``graph.report``.  Pass an
    :class:`~repro.obs.Observability` to capture the full span trace,
    subscribe profiling hooks, or disable tracing::

        obs = Observability()
        obs.hooks.subscribe("kernel_dispatch:after", my_callback)
        graph = WKNNGBuilder(config, obs=obs).build(points)

    The builder is reusable: each :meth:`build` call derives fresh RNG
    streams from the configured seed, so repeated builds on the same data
    are identical.  Without an explicit ``obs``, every build gets a fresh
    observability session (available afterwards as :attr:`last_obs`).
    """

    def __init__(self, config: BuildConfig | None = None, *,
                 obs: Observability | None = None, **kwargs) -> None:
        """``kwargs`` are a convenience for ``BuildConfig(**kwargs)``."""
        if config is not None and kwargs:
            raise TypeError("pass either a BuildConfig or keyword options, not both")
        self.config = config if config is not None else BuildConfig(**kwargs)
        self.obs = obs
        self.last_obs: Observability | None = None
        self.last_forest: RPForest | None = None

    # -- pipeline ---------------------------------------------------------------

    def build(
        self, points: np.ndarray, return_report: bool = False
    ) -> KNNGraph | tuple[KNNGraph, BuildReport]:
        """Construct the K-NN graph of ``points`` (``(n, d)``, any float).

        With ``return_report=True`` returns ``(graph, report)``; either
        way the :class:`BuildReport` is attached as ``graph.report``.

        Under ``metric="cosine"`` the points are L2-normalised first and
        the graph's ``dists`` are squared L2 in the normalised space
        (exactly twice the cosine distance); neighbour sets are identical
        to true cosine ranking.
        """
        x = check_points_matrix(points, "points")
        cfg = self.config
        check_k_fits(cfg.k, x.shape[0])
        x, metric_info = prepare_points(x, cfg.metric)
        resolved = self._resolve_strategy(x.shape[1])
        if resolved != cfg.strategy:
            cfg = replace(cfg, strategy=resolved)
        obs = self.obs if self.obs is not None else Observability()
        self.last_obs = obs
        if cfg.backend == "simt":
            from repro.simt_kernels.pipeline import device_lists

            lists = device_lists(x, cfg, obs)
        else:
            lists = _HostLists(x, cfg, obs)
        graph, report, self.last_forest = run_build(x, cfg, obs, lists)
        graph.meta["metric"] = cfg.metric
        graph.meta["metric_info"] = metric_info
        if return_report:
            return graph, report
        return graph

    def _resolve_strategy(self, dim: int) -> str:
        """Resolve ``strategy="auto"`` via the device cost model."""
        cfg = self.config
        if cfg.strategy != "auto":
            return cfg.strategy
        from repro.bench.costmodel import preferred_strategy
        from repro.kernels.tiled import DEFAULT_TILE_SIZE

        return preferred_strategy(
            dim, cfg.k, cfg.leaf_size,
            tile_size=cfg.strategy_kwargs.get("tile_size", DEFAULT_TILE_SIZE),
        )


class _HostLists:
    """The vectorised backend: a host :class:`KnnState` and a strategy.

    The leaf phase runs through :func:`run_leaf_phase_sharded` at every
    ``n_jobs`` (one shard runs inline) and a refine round is
    :func:`repro.core.refine.refine_round`.
    """

    backend = "vectorized"
    counters_prefix = KERNEL_PREFIX

    def __init__(self, x: np.ndarray, cfg: BuildConfig, obs: Observability) -> None:
        self.strategy: Strategy = get_strategy(cfg.strategy, **cfg.strategy_kwargs)
        self.strategy.obs = obs
        self.state = KnnState(x.shape[0], cfg.k)
        #: worker processes of the leaf and refine phases
        self.n_jobs = cfg.n_jobs if cfg.n_jobs > 1 and fork_available() else 1
        # spill trees overlap, so a batch may repeat a pair
        self.dedupe = cfg.spill > 0.0

    def leaf_phase(self, x: np.ndarray, forest: RPForest) -> dict[str, Any]:
        return run_leaf_phase_sharded(
            self.state, x, forest_leaf_batches(forest), self.strategy,
            self.n_jobs, dedupe=self.dedupe,
        )

    def refine_round(self, x: np.ndarray, rng: np.random.Generator, sample: int,
                     refine_state: RefineState) -> int:
        return refine_round_sharded(
            self.state, x, self.strategy, rng, sample, refine_state, n_jobs=self.n_jobs,
        )

    def to_state(self) -> KnnState:
        return self.state

    def finish(self, obs: Observability) -> dict[str, Any]:
        """Pour the work counters into ``obs``; return the extra graph meta."""
        self.strategy.counters.emit(obs.metrics)
        return {}


def run_build(
    x: np.ndarray, cfg: BuildConfig, obs: Observability, lists: Any
) -> tuple[KNNGraph, BuildReport, RPForest]:
    """Run the pipeline phases on one backend; the only build driver.

    The driver owns the phase order and everything common to the
    backends: the spans, the forest and its gauges, the refine stop rule
    (a round inserting at most ``refine_delta * n * k`` entries ends the
    phase), the report and the graph meta.  ``lists`` supplies the list
    storage and kernels: :class:`_HostLists` (vectorised) or
    :class:`repro.simt_kernels.pipeline._DeviceLists` (simt).  It has a
    ``backend`` name, a ``counters_prefix``, a worker count ``n_jobs``,
    and the methods ``leaf_phase(x, forest)``, ``refine_round(x, rng,
    sample, refine_state) -> inserted``, ``to_state()`` and
    ``finish(obs) -> extra meta``.
    """
    n = x.shape[0]
    counters_before = BuildReport.counters_snapshot(obs, lists.counters_prefix)
    forest_rng, refine_rng = spawn_streams(cfg.seed, 2)
    parallel_info: dict[str, Any] = {"n_jobs": cfg.n_jobs, "workers": lists.n_jobs}
    sharded = lists.n_jobs > 1
    with obs.trace.span(ROOT_SPAN, backend=lists.backend, n=n,
                        dim=int(x.shape[1]), k=cfg.k, strategy=cfg.strategy,
                        metric=cfg.metric, n_jobs=cfg.n_jobs):
        with obs.trace.span("forest"):
            forest = build_forest(x, cfg.n_trees, cfg.leaf_size, forest_rng,
                                  n_jobs=cfg.n_jobs, spill=cfg.spill, obs=obs)
            sizes = forest.leaf_sizes()
            obs.metrics.gauge("forest/n_leaves").set(float(sizes.size))
            obs.metrics.gauge("forest/mean_leaf_size").set(float(sizes.mean()))
            obs.metrics.gauge("forest/max_leaf_size").set(float(sizes.max()))

        with obs.trace.span("leaf_pairs"):
            leaf_info = lists.leaf_phase(x, forest)
            if sharded:
                parallel_info["leaf"] = {
                    key: leaf_info[key]
                    for key in ("shards", "shard_seconds", "merge_seconds")
                }
                for sec in leaf_info["shard_seconds"]:
                    obs.metrics.histogram("parallel/leaf_shard_seconds").observe(sec)
                obs.metrics.gauge("parallel/leaf_merge_seconds").set(
                    leaf_info["merge_seconds"])

        with obs.trace.span("refine"):
            sample = cfg.effective_refine_sample()
            rng = as_generator(refine_rng)
            refine_state = RefineState()
            threshold = cfg.refine_delta * n * cfg.k
            refine_t0 = time.perf_counter()
            for round_idx in range(cfg.refine_iters):
                with obs.trace.span(f"round-{round_idx}") as round_span:
                    obs.hooks.emit(Events.REFINE_ROUND_BEFORE, round=round_idx,
                                   sample=sample)
                    inserted = lists.refine_round(x, rng, sample, refine_state)
                    candidates = refine_state.candidates[-1]
                    obs.metrics.counter("refine/candidate_pairs").inc(candidates)
                    obs.metrics.counter("refine/insertions").inc(inserted)
                    obs.hooks.emit(Events.REFINE_ROUND_AFTER, round=round_idx,
                                   candidates=candidates, inserted=inserted)
                    round_span.set(inserted=inserted)
                if inserted <= threshold:
                    break
            if sharded:
                shard_seconds = refine_state.shard_seconds
                parallel_info["refine"] = {
                    "shard_seconds": shard_seconds,
                    "merge_seconds": max(
                        0.0, time.perf_counter() - refine_t0 - sum(shard_seconds),
                    ),
                }
                for sec in shard_seconds:
                    obs.metrics.histogram("parallel/refine_shard_seconds").observe(sec)

        with obs.trace.span("finalize"):
            ids, dists = lists.to_state().sorted_arrays()

    obs.metrics.gauge("parallel/n_jobs").set(float(cfg.n_jobs))
    obs.metrics.gauge("parallel/workers").set(float(lists.n_jobs))
    extra_meta = lists.finish(obs)
    report = BuildReport.from_obs(
        obs, counters_prefix=lists.counters_prefix,
        counters_baseline=counters_before, metric=cfg.metric,
        strategy=cfg.strategy, parallel=parallel_info,
    )
    meta = {
        "algorithm": "w-knng",
        "strategy": cfg.strategy,
        "backend": lists.backend,
        "config": cfg,
        "report": report.as_dict(),
        **extra_meta,
    }
    return KNNGraph(ids=ids, dists=dists, meta=meta, report=report), report, forest
