"""Vectorised "device" kernels: the three w-KNNG maintenance strategies.

The paper contributes three warp-centric ways to search and maintain k-NN
sets *in global memory*.  This package implements the same three strategies
as batched NumPy computations, where "one warp processes one point's list"
maps to "one row of a batched array operation":

============  ==============================================================
Strategy      Vectorised analogue (and what the wall-clock reflects)
============  ==============================================================
``baseline``  per-point lock + linear scan-and-replace-max.  Rows are
              processed one at a time within a batch (the lock serialises),
              so insertion cost grows with the number of *rows touched*.
``atomic``    lock-free insertion with 64-bit packed (distance, id) words
              and compare-and-swap retries.  Emulated as vectorised
              "replace the row maximum" passes over the whole candidate
              batch; the number of passes equals the depth of contention,
              and every pass re-attempts all still-pending candidates -
              the same retry traffic hardware serialises on.
``tiled``     candidates staged through shared memory in fixed-size tiles,
              then bulk-merged into the global list with a warp bitonic
              merge.  Emulated as a fully-batched pad-to-tile +
              sorted-key merge, and its leaf distance computation uses the
              blocked GEMM decomposition (the shared-memory tiling analogue),
              which is what makes it win at high dimensionality.
============  ==============================================================

Every list row is one sorted array of packed ``(dist, id)`` keys
(:class:`~repro.kernels.knn_state.KnnState`), so all three leave the same
canonical rows for the same offers.

Exact bit-level warp implementations of the same strategies live in
:mod:`repro.simt_kernels` (run on the simulator for microarchitecture
metrics); both layers produce identical k-NN lists for identical inputs,
which the integration tests assert.
"""

from repro.kernels.counters import OpCounters
from repro.kernels.knn_state import KnnState
from repro.kernels.strategy import Strategy, get_strategy, available_strategies
from repro.kernels.baseline import BaselineStrategy
from repro.kernels.atomic import AtomicStrategy
from repro.kernels.tiled import TiledStrategy
from repro.kernels.distance import (
    pairwise_sq_l2,
    pairwise_sq_l2_direct,
    pairwise_sq_l2_gemm,
    sq_l2_pairs,
)

__all__ = [
    "OpCounters",
    "KnnState",
    "Strategy",
    "get_strategy",
    "available_strategies",
    "BaselineStrategy",
    "AtomicStrategy",
    "TiledStrategy",
    "pairwise_sq_l2",
    "pairwise_sq_l2_direct",
    "pairwise_sq_l2_gemm",
    "sq_l2_pairs",
]
