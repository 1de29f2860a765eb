"""w-KNNG **tiled** strategy: shared-memory candidate tiles + bulk merge.

The paper's *tiled w-KNNG* variant decouples candidate generation from list
maintenance: a warp accumulates candidates for a point into a fixed-size
tile staged in shared memory; when the tile fills, it is sorted in-register
(bitonic) and **bulk-merged** with the point's global-memory list in one
pass (see :func:`repro.simt.intrinsics.warp_sorted_merge_max`).

Two properties make this the winner for high-dimensional points:

* distance computation uses the blocked GEMM schedule
  (:func:`repro.kernels.distance.pairwise_sq_l2_gemm`), i.e. point
  coordinates tiled through shared memory are reused across many pairs, so
  global traffic per distance falls with the tile size;
* list maintenance touches global memory once per *tile*, not once per
  candidate, amortising the O(k) scan across ``tile_size`` insertions.

The price is fixed tile overhead (sorting, padding), which is why the
atomic strategy - one cheap CAS per candidate - wins when distances are
cheap (low dimensionality).

The vectorised analogue pads each row's candidate group to ``tile_size``
packed keys and merges whole batches with one row sort per tile round.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels.knn_state import EMPTY_KEY, KnnState
from repro.kernels.strategy import Strategy, register_strategy
from repro.utils.arrays import segment_lengths

#: default candidates buffered per point before a bulk merge
DEFAULT_TILE_SIZE = 32


@register_strategy
class TiledStrategy(Strategy):
    """Tile-buffered bulk-merge maintenance (see module docstring).

    Parameters
    ----------
    tile_size:
        Candidates buffered per point per merge round.  Matches the warp
        width on the GPU (a tile is sorted by one warp-level bitonic pass);
        larger tiles amortise merges further at the cost of shared memory.
    """

    name = "tiled"
    distance_method = "gemm"
    pair_mode = "directed"

    def __init__(self, tile_size: int = DEFAULT_TILE_SIZE) -> None:
        super().__init__()
        if tile_size < 1:
            raise ConfigurationError(f"tile_size must be >= 1, got {tile_size}")
        self.tile_size = int(tile_size)

    def obs_attrs(self) -> dict:
        """Dispatch payload: bulk-merge discipline plus the tile width."""
        return {**super().obs_attrs(), "discipline": "bulk-merge",
                "tile_size": self.tile_size}

    def _insert(self, state: KnnState, rows: np.ndarray, keys: np.ndarray) -> int:
        order = np.argsort(rows, kind="stable")
        srows = rows[order]
        skeys = keys[order]
        urows, starts, counts = segment_lengths(srows)
        tile = self.tile_size
        max_count = int(counts.max())
        inserted = 0
        col_offsets = np.arange(tile)
        for c0 in range(0, max_count, tile):
            remaining = counts - c0
            sel = remaining > 0
            if not sel.any():
                break
            rsel = urows[sel]
            width = np.minimum(remaining[sel], tile)
            pos = starts[sel, None] + c0 + col_offsets[None, :]
            valid = col_offsets[None, :] < width[:, None]
            pos = np.where(valid, pos, 0)  # clamp; masked out below
            cand = np.where(valid, skeys[pos], EMPTY_KEY)
            self.counters.merge_rounds += 1
            self.counters.merge_slots += int(cand.size)
            inserted += state.merge_rows(rsel, cand)
        return inserted
