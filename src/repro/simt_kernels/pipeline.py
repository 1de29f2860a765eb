"""The simt backend of the w-KNNG build: kernels on the SIMT simulator.

:func:`repro.core.builder.run_build` drives the same pipeline for both
backends (forest -> leaf all-pairs -> refinement -> finalize).  This
module supplies the simt list storage and kernels, :class:`_DeviceLists`:
the two kernel phases execute warp-by-warp on
:class:`repro.simt.device.Device`.  RP-forest construction and refinement
candidate *generation* (:func:`repro.core.refine.join_candidates`) stay
on the host, as they do in the paper (tree construction is a
preprocessing step; the kernels are the contribution).

Use the backend through ``WKNNGBuilder(BuildConfig(backend="simt"))``, or
:func:`build_knng_simt` to pass an explicit :class:`Device`; use
:func:`simt_leaf_metrics` to collect per-strategy microarchitecture
counters for one leaf workload (experiment F6).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import BuildConfig
from repro.core.refine import RefineState, _new_flags, join_candidates, pair_directions
from repro.core.rpforest import RPForest
from repro.errors import ConfigurationError
from repro.kernels.knn_state import EMPTY_ID, KnnState
from repro.simt.atomics import EMPTY_PACKED, unpack_dist_id
from repro.simt.config import DeviceConfig
from repro.simt.device import Device
from repro.simt.metrics import METRICS_PREFIX as SIMT_PREFIX
from repro.simt.metrics import KernelMetrics
from repro.simt_kernels import leaf_kernels, pairs_kernels
from repro.utils.arrays import segment_lengths
from repro.utils.validation import check_points_matrix


class _DeviceLists:
    """Strategy-appropriate device-resident k-NN list buffers.

    With the uploaded point buffer ``xbuf`` it is also the simt backend
    of :func:`repro.core.builder.run_build` (see :func:`device_lists`).
    """

    backend = "simt"
    counters_prefix = SIMT_PREFIX
    #: the simulator runs every kernel in this process
    n_jobs = 1

    def __init__(self, device: Device, n: int, k: int, strategy: str,
                 xbuf=None) -> None:
        self.device, self.xbuf = device, xbuf
        self.strategy = strategy
        self.n, self.k = n, k
        if strategy == "atomic":
            self.packed = device.empty(
                (n * k,), np.uint64, "knn_packed", fill=np.uint64(EMPTY_PACKED)
            )
            #: the list buffers the strategy's kernels take after the points
            self.buffers = (self.packed,)
        else:
            self.dists = device.empty((n * k,), np.float32, "knn_dists", fill=np.inf)
            self.ids = device.empty((n * k,), np.int32, "knn_ids", fill=EMPTY_ID)
            self.buffers = (self.dists, self.ids)
            if strategy == "baseline":
                self.locks = device.empty((n,), np.int32, "knn_locks")
                self.buffers += (self.locks,)

    def to_state(self) -> KnnState:
        """Copy the device lists back into a host KnnState."""
        shape = (self.n, self.k)
        if self.strategy == "atomic":
            dists, ids = unpack_dist_id(self.packed.to_host())
        else:
            dists, ids = self.dists.to_host(), self.ids.to_host()
        return KnnState.from_lists(ids.reshape(shape), dists.reshape(shape))

    def leaf_phase(self, x: np.ndarray, forest: RPForest) -> None:
        """One leaf all-pairs launch per leaf, tree by tree."""
        for _ti, leaf in forest.iter_leaves():
            _launch_leaf(self.device, self, self.xbuf, leaf, x.shape[1], self.k)

    def refine_round(self, x: np.ndarray, rng: np.random.Generator, sample: int,
                     refine_state: RefineState) -> int:
        """Host local join, then the pairs kernel; returns the insertions.

        An insertion is an entry new to its row after the launch, the
        count the vectorised round reports.
        """
        before = self.to_state()
        pairs, _ = join_candidates(before, refine_state, rng, sample)
        rows, cols = pair_directions(pairs, self.n)
        _launch_pairs(self.device, self, self.xbuf, rows, cols, x.shape[1], self.k)
        inserted = int(_new_flags(self.to_state(), before.ids).sum())
        refine_state.record(int(rows.size), inserted)
        return inserted

    def finish(self, obs) -> dict:
        """Pour the device metrics into ``obs``; return the extra graph meta."""
        self.device.metrics.emit(obs.metrics, prefix=SIMT_PREFIX)
        meta = {
            "simt_metrics": self.device.metrics.as_dict(),
            "estimated_cycles": self.device.metrics.estimated_cycles(self.device.config),
        }
        if self.device.sanitizer is not None:
            # raise mode would have aborted the build at the first finding,
            # so this summary is the report-mode record of what wksan saw
            meta["sanitizer"] = self.device.sanitizer.report().as_dict()
        return meta


def device_lists(x: np.ndarray, config: BuildConfig, obs,
                 device: Device | None = None) -> _DeviceLists:
    """The simt backend for one build of ``x`` on ``device``."""
    device = device or Device(DeviceConfig())
    if device.obs is None:
        device.obs = obs
    if config.k > device.config.warp_size:
        raise ConfigurationError(
            f"the simt backend requires k <= warp_size "
            f"({device.config.warp_size}), got k={config.k}"
        )
    # the point matrix is kernel input only: const skips conflict
    # tracking (it is the hot gather path under the sanitizer)
    xbuf = device.to_device(x.reshape(-1), "points", const=True)
    return _DeviceLists(device, x.shape[0], config.k, config.strategy, xbuf)


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
    # tiled: one block, a warp per leaf row; the others: a block per row
    grid, warps = (1, leaf_len) if lists.strategy == "tiled" else (leaf_len, 1)
    device.launch(
        getattr(leaf_kernels, f"leaf_kernel_{lists.strategy}"),
        grid_blocks=grid,
        block_warps=warps,
        args=(xbuf, *lists.buffers, leaf_buf, leaf_len, dim, k),
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
    device.launch(
        getattr(pairs_kernels, f"pairs_kernel_{lists.strategy}"),
        grid_blocks=n_groups,
        block_warps=1,
        args=(xbuf, *lists.buffers, rows_buf, cols_buf, starts_buf, counts_buf,
              n_groups, dim, k),
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
    from repro.core.builder import run_build  # local: avoid import cycle
    from repro.obs import Observability

    x = check_points_matrix(points, "points")
    obs = obs if obs is not None else Observability()
    graph, report, _forest = run_build(x, config, obs, device_lists(x, config, obs, device))
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
