"""The per-query heapq search loop: a reference oracle for the batched engine.

Best-first graph search one query at a time, over a fitted
:class:`~repro.apps.search.GraphSearchIndex`.  With ``frontier=1`` the
batched engine (:meth:`~repro.apps.search.GraphSearchIndex.search`) expands
nodes in exactly this order and returns identical results on tie-free
inputs, so this loop is the parity oracle of the search tests and the
single-query baseline of the T3 throughput benchmark.  It is not part of
the library.

Benchmarks import it by file placement (``from search_oracle import
search_legacy``); tests load it by path.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.apps.search import GraphSearchIndex
from repro.kernels.distance import rowwise_sq_norm
from repro.utils.validation import check_positive_int


def _seed_candidates(index: GraphSearchIndex, query: np.ndarray) -> np.ndarray:
    """Entry points: members of the query's leaf in every tree."""
    seeds: list[np.ndarray] = []
    q = query[None, :]
    for tree in index.forest.trees:
        leaf_idx = int(tree.leaf_for(q)[0])
        members = tree.leaves[leaf_idx]
        seeds.append(members[: index.config.seeds_per_tree])
    return np.unique(np.concatenate(seeds)) if seeds else np.arange(
        min(index.config.ef, index.n)
    )


def _search_one(
    index: GraphSearchIndex, query: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    x = index.points
    cfg = index.config
    seeds = _seed_candidates(index, query)
    d = rowwise_sq_norm(x[seeds] - query)
    visited = set(int(s) for s in seeds)
    # beam: max-heap of size ef over (-dist, id); frontier: min-heap
    beam: list[tuple[float, int]] = []
    frontier: list[tuple[float, int]] = []
    for dist, sid in zip(d, seeds):
        heapq.heappush(frontier, (float(dist), int(sid)))
        heapq.heappush(beam, (-float(dist), int(sid)))
    while len(beam) > cfg.ef:
        heapq.heappop(beam)

    expansions = 0
    while frontier and expansions < cfg.max_expansions:
        dist, node = heapq.heappop(frontier)
        worst = -beam[0][0] if len(beam) >= cfg.ef else np.inf
        if dist > worst:
            break  # nearest frontier node cannot improve the beam
        expansions += 1
        neigh = index.graph.neighbors(node)
        fresh = np.array(
            [n for n in neigh if int(n) not in visited], dtype=np.int64
        )
        if fresh.size == 0:
            continue
        visited.update(int(n) for n in fresh)
        nd = rowwise_sq_norm(x[fresh] - query)
        for ndist, nid in zip(nd, fresh):
            worst = -beam[0][0] if len(beam) >= cfg.ef else np.inf
            if ndist < worst or len(beam) < cfg.ef:
                heapq.heappush(beam, (-float(ndist), int(nid)))
                if len(beam) > cfg.ef:
                    heapq.heappop(beam)
                heapq.heappush(frontier, (float(ndist), int(nid)))
    best = sorted((-nd, nid) for nd, nid in beam)
    best = best[:k]
    ids = np.full(k, -1, dtype=np.int32)
    dists = np.full(k, np.inf, dtype=np.float32)
    for i, (nd, nid) in enumerate(best):
        ids[i] = nid
        dists[i] = nd
    return ids, dists


def search_legacy(
    index: GraphSearchIndex, queries: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Answer ``queries`` one at a time with the heapq best-first loop."""
    index._require_fitted()
    q = index._prepare_queries(queries)
    k = check_positive_int(k, "k")
    ids = np.empty((q.shape[0], k), dtype=np.int32)
    dists = np.empty((q.shape[0], k), dtype=np.float32)
    for i in range(q.shape[0]):
        ids[i], dists[i] = _search_one(index, q[i], k)
    return ids, dists
