"""End-to-end w-KNNG construction on the SIMT simulator backend.

Same pipeline as the vectorised builder (forest -> leaf all-pairs ->
refinement), with the two kernel phases executed warp-by-warp on
:class:`repro.simt.device.Device`.  RP-forest construction and refinement
candidate *generation* (the candidate stage of
:func:`repro.core.refine.refine_round`) stay on the host, as they do in
the paper (tree construction is a preprocessing step; the kernels are the
contribution).

Use :func:`build_knng_simt` through
``WKNNGBuilder(BuildConfig(backend="simt"))``; use :func:`simt_leaf_metrics`
to collect per-strategy microarchitecture counters for one leaf workload
(experiment F6).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import BuildConfig
from repro.core.graph import KNNGraph
from repro.core.refine import RefineState, join_candidates
from repro.core.rpforest import build_forest
from repro.errors import ConfigurationError
from repro.kernels.knn_state import EMPTY_ID, KnnState
from repro.simt.atomics import EMPTY_PACKED, unpack_dist_id
from repro.simt.config import DeviceConfig
from repro.simt.device import Device
from repro.simt.metrics import KernelMetrics
from repro.simt_kernels import leaf_kernels, pairs_kernels
from repro.utils.arrays import segment_lengths
from repro.utils.rng import as_generator, spawn_streams
from repro.utils.validation import check_points_matrix


class _DeviceLists:
    """Strategy-appropriate device-resident k-NN list buffers."""

    def __init__(self, device: Device, n: int, k: int, strategy: str) -> None:
        self.strategy = strategy
        self.n, self.k = n, k
        if strategy == "atomic":
            self.packed = device.empty(
                (n * k,), np.uint64, "knn_packed", fill=np.uint64(EMPTY_PACKED)
            )
        else:
            self.dists = device.empty((n * k,), np.float32, "knn_dists", fill=np.inf)
            self.ids = device.empty((n * k,), np.int32, "knn_ids", fill=EMPTY_ID)
            if strategy == "baseline":
                self.locks = device.empty((n,), np.int32, "knn_locks")

    def to_state(self) -> KnnState:
        """Copy the device lists back into a host KnnState."""
        state = KnnState(self.n, self.k)
        if self.strategy == "atomic":
            dists, ids = unpack_dist_id(self.packed.to_host())
            state.dists[...] = dists.reshape(self.n, self.k)
            state.ids[...] = ids.reshape(self.n, self.k)
        else:
            state.dists[...] = self.dists.to_host().reshape(self.n, self.k)
            state.ids[...] = self.ids.to_host().reshape(self.n, self.k)
        return state


def _launch_leaf(
    device: Device,
    lists: _DeviceLists,
    xbuf,
    leaf: np.ndarray,
    dim: int,
    k: int,
) -> None:
    leaf_len = int(leaf.shape[0])
    if leaf_len < 2:
        return
    leaf_buf = device.to_device(leaf.astype(np.int64), "leaf", const=True)
    if lists.strategy == "baseline":
        device.launch(
            leaf_kernels.leaf_kernel_baseline,
            grid_blocks=leaf_len,
            block_warps=1,
            args=(xbuf, lists.dists, lists.ids, lists.locks, leaf_buf, leaf_len, dim, k),
        )
    elif lists.strategy == "atomic":
        device.launch(
            leaf_kernels.leaf_kernel_atomic,
            grid_blocks=leaf_len,
            block_warps=1,
            args=(xbuf, lists.packed, leaf_buf, leaf_len, dim, k),
        )
    else:
        device.launch(
            leaf_kernels.leaf_kernel_tiled,
            grid_blocks=1,
            block_warps=leaf_len,
            args=(xbuf, lists.dists, lists.ids, leaf_buf, leaf_len, dim, k),
        )


def _launch_pairs(
    device: Device,
    lists: _DeviceLists,
    xbuf,
    rows: np.ndarray,
    cols: np.ndarray,
    dim: int,
    k: int,
) -> None:
    order = np.argsort(rows, kind="stable")
    srows, scols = rows[order], cols[order]
    urows, starts, counts = segment_lengths(srows)
    n_groups = int(urows.size)
    if n_groups == 0:
        return
    rows_buf = device.to_device(urows.astype(np.int64), "ref_rows", const=True)
    cols_buf = device.to_device(scols.astype(np.int64), "ref_cols", const=True)
    starts_buf = device.to_device(starts.astype(np.int64), "ref_starts", const=True)
    counts_buf = device.to_device(counts.astype(np.int64), "ref_counts", const=True)
    if lists.strategy == "baseline":
        device.launch(
            pairs_kernels.pairs_kernel_baseline,
            grid_blocks=n_groups,
            block_warps=1,
            args=(
                xbuf, lists.dists, lists.ids, lists.locks,
                rows_buf, cols_buf, starts_buf, counts_buf, n_groups, dim, k,
            ),
        )
    elif lists.strategy == "atomic":
        device.launch(
            pairs_kernels.pairs_kernel_atomic,
            grid_blocks=n_groups,
            block_warps=1,
            args=(
                xbuf, lists.packed,
                rows_buf, cols_buf, starts_buf, counts_buf, n_groups, dim, k,
            ),
        )
    else:
        device.launch(
            pairs_kernels.pairs_kernel_tiled,
            grid_blocks=n_groups,
            block_warps=1,
            args=(
                xbuf, lists.dists, lists.ids,
                rows_buf, cols_buf, starts_buf, counts_buf, n_groups, dim, k,
            ),
        )


def build_knng_simt(points: np.ndarray, config: BuildConfig,
                    device: Device | None = None, obs=None):
    """Run the full w-KNNG pipeline on the simulator.

    Returns ``(KNNGraph, BuildReport)``; the graph's ``meta["simt_metrics"]``
    holds the accumulated :class:`~repro.simt.metrics.KernelMetrics` dict and
    ``meta["estimated_cycles"]`` the cost-model total.  The report's
    ``counters`` are the device metrics (the simt analogue of the
    vectorised backend's op counters); an explicit
    :class:`~repro.obs.Observability` additionally exposes every simulated
    kernel launch through the ``kernel_dispatch`` hooks.
    """
    from repro.core.builder import BuildReport  # local: avoid import cycle
    from repro.obs import Observability
    from repro.simt.metrics import METRICS_PREFIX as SIMT_PREFIX

    x = check_points_matrix(points, "points")
    n, dim = x.shape
    obs = obs if obs is not None else Observability()
    device = device or Device(DeviceConfig())
    if device.obs is None:
        device.obs = obs
    if config.k > device.config.warp_size:
        raise ConfigurationError(
            f"the simt backend requires k <= warp_size "
            f"({device.config.warp_size}), got k={config.k}"
        )
    forest_rng, refine_rng = spawn_streams(config.seed, 2)
    counters_before = BuildReport.counters_snapshot(obs, SIMT_PREFIX)

    with obs.trace.span("build", backend="simt", n=n, dim=dim, k=config.k,
                        strategy=config.strategy):
        with obs.trace.span("forest"):
            forest = build_forest(x, config.n_trees, config.leaf_size,
                                  forest_rng, obs=obs)
            sizes = forest.leaf_sizes()
            obs.metrics.gauge("forest/n_leaves").set(float(sizes.size))
            obs.metrics.gauge("forest/mean_leaf_size").set(float(sizes.mean()))
            obs.metrics.gauge("forest/max_leaf_size").set(float(sizes.max()))

        with obs.trace.span("leaf_pairs"):
            # the point matrix is kernel input only: const skips conflict
            # tracking (it is the hot gather path under the sanitizer)
            xbuf = device.to_device(x.reshape(-1), "points", const=True)
            lists = _DeviceLists(device, n, config.k, config.strategy)
            for _ti, leaf in forest.iter_leaves():
                _launch_leaf(device, lists, xbuf, leaf, dim, config.k)

        with obs.trace.span("refine"):
            rng = as_generator(refine_rng)
            sample = config.effective_refine_sample()
            refine_state = RefineState()
            for round_idx in range(config.refine_iters):
                with obs.trace.span(f"round-{round_idx}") as round_span:
                    state = lists.to_state()
                    rows, cols, _ = join_candidates(
                        state, refine_state, rng, sample)
                    refine_state.rounds_run += 1
                    if rows.size == 0:
                        round_span.set(converged=True)
                        break
                    before = lists.to_state().filled_counts().sum()
                    _launch_pairs(device, lists, xbuf, rows, cols, dim, config.k)
                    inserted = int(lists.to_state().filled_counts().sum() - before)
                    round_span.set(inserted=inserted,
                                   candidates=int(rows.size))
                    obs.metrics.counter("refine/candidate_pairs").inc(int(rows.size))
                    obs.metrics.counter("refine/insertions").inc(inserted)

        with obs.trace.span("finalize"):
            state = lists.to_state()
            ids, dists = state.sorted_arrays()

    device.metrics.emit(obs.metrics, prefix=SIMT_PREFIX)
    report = BuildReport.from_obs(
        obs, counters_prefix=SIMT_PREFIX, counters_baseline=counters_before,
        metric=config.metric, strategy=config.strategy,
        parallel={"n_jobs": 1, "workers": 1},
    )
    meta = {
        "algorithm": "w-knng",
        "strategy": config.strategy,
        "backend": "simt",
        "config": config,
        "simt_metrics": device.metrics.as_dict(),
        "estimated_cycles": device.metrics.estimated_cycles(device.config),
        "report": report.as_dict(),
    }
    if device.sanitizer is not None:
        # raise mode would have aborted the build at the first finding, so
        # this summary is the report-mode record of what wksan saw
        meta["sanitizer"] = device.sanitizer.report().as_dict()
    graph = KNNGraph(
        ids=ids,
        dists=dists,
        meta=meta,
        report=report,
    )
    return graph, report


def simt_leaf_metrics(
    x: np.ndarray,
    leaf: np.ndarray,
    k: int,
    strategy: str,
    device_config: DeviceConfig | None = None,
) -> KernelMetrics:
    """Run one leaf all-pairs kernel and return its metric counters.

    The F6 bench sweeps this over strategies and dimensionalities to show
    *why* the atomic/tiled crossover happens (transactions vs atomics).
    """
    x = check_points_matrix(x, "points")
    device = Device(device_config or DeviceConfig())
    xbuf = device.to_device(x.reshape(-1), "points")
    lists = _DeviceLists(device, x.shape[0], k, strategy)
    _launch_leaf(device, lists, xbuf, np.asarray(leaf, dtype=np.int64), x.shape[1], k)
    return device.metrics.copy()
