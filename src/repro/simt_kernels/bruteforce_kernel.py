"""Warp-centric exact brute-force KNNG kernel (the GPU-Flat reference).

The exact counterpart of FAISS's ``IndexFlat`` on the simulator: one warp
per query point, the database streamed in shared-memory tiles (each block
stages a tile cooperatively, then its warps score the tile against their
query), candidates bulk-merged into the query's list with the same tiled
inserter the w-KNNG tiled strategy uses.

This is the cost *ceiling* every approximate method is judged against;
running it on the simulator grounds the analytic
:func:`repro.bench.costmodel.bruteforce_cycles` formula with event-level
counts (asserted in the tests).
"""

from __future__ import annotations

import numpy as np

from repro.simt.config import DeviceConfig
from repro.simt.device import Device
from repro.simt.memory import GlobalBuffer
from repro.simt.warp import WarpContext
from repro.simt_kernels.device_fns import TiledInserter
from repro.kernels.knn_state import EMPTY_ID, KnnState
from repro.utils.validation import check_k_fits, check_points_matrix


def bruteforce_kernel(
    ctx: WarpContext,
    xbuf: GlobalBuffer,
    dist_buf: GlobalBuffer,
    id_buf: GlobalBuffer,
    n: int,
    dim: int,
    k: int,
    queries_per_block: int,
):
    """Exact all-pairs scan: block stages database tiles, warps own queries.

    Geometry: block ``b`` serves queries ``b * queries_per_block + warp``;
    the database is processed in tiles of ``warp_size`` points staged into
    shared memory once per block (reuse factor = warps per block x
    warp_size lanes).
    """
    w = ctx.warp_size
    lane = ctx.lane_id
    query = ctx.block_id * queries_per_block + ctx.warp_id
    active_query = query < n
    stride = dim + 1  # padded against bank conflicts
    tile_coords = ctx.shared("bf_tile", (w * stride,), np.float32)
    tile_ids = ctx.shared("bf_ids", (w,), np.int64)

    inserter = None
    if active_query:
        inserter = TiledInserter(
            ctx, dist_buf, id_buf, query, k, tile_name=f"bf_q{ctx.warp_id}"
        )
        xq = []
        for c in range(0, dim, w):
            mask = (c + lane) < dim
            xq.append(ctx.load(xbuf, query * dim + c + lane, mask))

    for t0 in range(0, n, w):
        tile_len = min(w, n - t0)
        # --- cooperative staging: warps split the tile's rows --------------
        for row in range(ctx.warp_id, tile_len, ctx.block_warps):
            pid = t0 + row
            ctx.shared_store(tile_ids, np.full(w, row), np.int64(pid),
                             lane == 0)
            for c in range(0, dim, w):
                mask = (c + lane) < dim
                vals = ctx.load(xbuf, pid * dim + c + lane, mask)
                ctx.shared_store(tile_coords, row * stride + c + lane, vals, mask)
        yield ctx.barrier()

        if active_query:
            # --- lane-parallel distances to the staged tile -----------------
            jmask = (lane < tile_len) & ((t0 + lane) != query)
            safe_j = np.where(lane < tile_len, lane, 0)
            acc = np.zeros(w, dtype=np.float64)
            for c in range(dim):
                xq_c = ctx.shfl(xq[c // w], c % w)
                xj_c = ctx.shared_load(tile_coords, safe_j * stride + c, jmask)
                diff = np.where(jmask, xq_c.astype(np.float64) - xj_c, 0.0)
                acc += diff * diff
                ctx.alu(2)
            cand_ids = ctx.shared_load(tile_ids, safe_j, jmask)
            inserter.offer_vector(acc, cand_ids, jmask)
        yield ctx.barrier()  # tile reuse: all warps done before restaging

    if inserter is not None:
        inserter.flush()


def bruteforce_knng_simt(
    points: np.ndarray,
    k: int,
    device: Device | None = None,
    queries_per_block: int = 4,
) -> tuple[KnnState, Device]:
    """Run the exact kernel over all points; returns ``(state, device)``."""
    x = check_points_matrix(points, "points")
    n, dim = x.shape
    check_k_fits(k, n)
    device = device or Device(DeviceConfig())
    if k > device.config.warp_size:
        raise ValueError(f"k={k} exceeds warp_size={device.config.warp_size}")
    xbuf = device.to_device(x.reshape(-1), "points", const=True)
    dist_buf = device.empty((n * k,), np.float32, "bf_dists", fill=np.inf)
    id_buf = device.empty((n * k,), np.int32, "bf_ids", fill=EMPTY_ID)
    blocks = (n + queries_per_block - 1) // queries_per_block
    device.launch(
        bruteforce_kernel,
        grid_blocks=blocks,
        block_warps=queries_per_block,
        args=(xbuf, dist_buf, id_buf, n, dim, k, queries_per_block),
    )
    state = KnnState.from_lists(
        id_buf.to_host().reshape(n, k), dist_buf.to_host().reshape(n, k)
    )
    return state, device
