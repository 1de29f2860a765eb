"""NN-descent (Dong et al., WWW'11) - the classical CPU KNNG baseline.

NN-descent starts from a random graph and repeatedly applies the *local
join*: neighbours of neighbours are proposed as candidates, and each
point's list keeps the best ``k`` seen.  It converges in a handful of
rounds on most data and is the algorithm behind pynndescent/kgraph.

This implementation runs the w-KNNG refinement round itself
(:func:`repro.core.refine.refine_round`) - the two are the same
mathematical operator - but from a random start to convergence,
with the plain bulk-merge maintenance (no warp-centric discipline), which
is what a CPU implementation does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.graph import KNNGraph
from repro.core.refine import RefineState, refine_round
from repro.kernels.knn_state import KnnState
from repro.kernels.strategy import get_strategy
from repro.kernels.distance import sq_l2_pairs
from repro.utils.rng import RngStream, as_generator
from repro.utils.validation import (
    check_k_fits,
    check_points_matrix,
    check_query_matrix,
)


@dataclass
class NNDescent:
    """NN-descent KNNG builder.

    Attributes
    ----------
    k:
        Neighbours per point.
    max_iters:
        Local-join rounds before giving up on convergence.
    sample:
        Candidate pairs examined per point per round (``None`` -> ``2k``,
        the rho=1 setting of the paper scaled to list size).
    delta:
        Convergence threshold: stop when fewer than ``delta * n * k``
        insertions happened in a round.
    seed:
        Random source.
    """

    k: int = 16
    max_iters: int = 12
    sample: int | None = None
    delta: float = 0.001
    seed: RngStream = None

    def __post_init__(self) -> None:
        self._x: np.ndarray | None = None
        self._graph: KNNGraph | None = None
        #: work counters of the most recent :meth:`query` call
        self.last_search_stats: dict[str, int] = {}

    def fit(self, points: np.ndarray) -> "NNDescent":
        """Build the KNNG and keep it (plus the points) for :meth:`query`."""
        x = check_points_matrix(points, "points")
        self._graph = self.build(x)
        self._x = x
        return self

    @property
    def is_fitted(self) -> bool:
        return self._graph is not None

    def query(
        self, queries: np.ndarray, k: int, *,
        ef: int | None = None, pool_size: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Answer out-of-sample queries by greedy graph descent.

        The standard way an NN-descent graph serves search: seed a
        candidate pool with random points, then repeatedly expand the
        nearest not-yet-expanded candidate along its graph edges, keeping
        the best ``pool_size`` (default ``max(2k, 16)``) seen, until the
        whole pool has been expanded.  Returns ``(ids, dists)`` - ``(m,
        k)``, squared-L2, ascending.

        ``ef`` (the protocol's per-call quality dial) maps onto this
        engine's pool size and wins over ``pool_size`` when both are
        given.
        """
        if self._graph is None or self._x is None:
            raise ValueError("query() before fit(): no graph built")
        x = self._x
        graph_ids = self._graph.ids
        q = check_query_matrix(queries, x.shape[1], "queries")
        n = x.shape[0]
        k = min(int(k), n)
        if ef is not None:
            pool_size = ef
        pool = max(pool_size or 0, 2 * k, 16)
        rng = as_generator(self.seed)
        m = q.shape[0]
        out_ids = np.full((m, k), -1, dtype=np.int32)
        out_dists = np.full((m, k), np.inf, dtype=np.float32)
        n_seeds = min(n, pool)
        distance_evals = 0
        hops = 0
        for qi in range(m):
            qv = q[qi]
            seeds = rng.choice(n, size=n_seeds, replace=False)
            visited = np.zeros(n, dtype=bool)
            visited[seeds] = True
            d = ((x[seeds] - qv) ** 2).sum(axis=1)
            distance_evals += int(seeds.size)
            order = np.argsort(d, kind="stable")[:pool]
            cand_ids, cand_d = seeds[order], d[order]
            expanded = np.zeros(n, dtype=bool)
            while True:
                unexpanded = cand_ids[~expanded[cand_ids]]
                if unexpanded.size == 0:
                    break
                c = int(unexpanded[0])  # pool is sorted: nearest first
                expanded[c] = True
                hops += 1
                nbrs = graph_ids[c]
                nbrs = nbrs[nbrs >= 0]
                new = nbrs[~visited[nbrs]]
                if new.size == 0:
                    continue
                visited[new] = True
                nd = ((x[new] - qv) ** 2).sum(axis=1)
                distance_evals += int(new.size)
                cand_ids = np.concatenate([cand_ids, new])
                cand_d = np.concatenate([cand_d, nd])
                order = np.argsort(cand_d, kind="stable")[:pool]
                cand_ids, cand_d = cand_ids[order], cand_d[order]
            take = min(k, cand_ids.size)
            out_ids[qi, :take] = cand_ids[:take].astype(np.int32)
            out_dists[qi, :take] = cand_d[:take].astype(np.float32)
        self.last_search_stats = {
            "queries": m,
            "distance_evals": distance_evals,
            "graph_hops": hops,
        }
        return out_ids, out_dists

    def stats(self) -> dict:
        """Build convergence info plus the most recent query's counters."""
        out: dict = {"engine": "nn-descent"}
        if self._graph is not None:
            out["iters_run"] = self._graph.meta.get("iters_run")
            out["insertions"] = int(sum(self._graph.meta.get("insertions", [])))
        out.update(self.last_search_stats)
        return out

    def build(self, points: np.ndarray) -> KNNGraph:
        """Run NN-descent and return the resulting graph."""
        x = check_points_matrix(points, "points")
        n = x.shape[0]
        check_k_fits(self.k, n)
        rng = as_generator(self.seed)
        state = self._random_init(x, rng)
        strategy = get_strategy("tiled")  # plain bulk merge maintenance
        sample = self.sample if self.sample is not None else max(4, self.k // 2)
        threshold = self.delta * n * self.k
        iters_run = 0
        insertions: list[int] = []
        refine_state = RefineState()
        for _ in range(self.max_iters):
            inserted = refine_round(state, x, strategy, rng, sample, refine_state)
            insertions.append(inserted)
            iters_run += 1
            if inserted <= threshold:
                break
        ids, dists = state.sorted_arrays()
        return KNNGraph(
            ids=ids,
            dists=dists,
            meta={
                "algorithm": "nn-descent",
                "iters_run": iters_run,
                "insertions": insertions,
            },
        )

    def _random_init(self, x: np.ndarray, rng: np.random.Generator) -> KnnState:
        """Fill every list with ``k`` distinct random non-self neighbours."""
        n = x.shape[0]
        state = KnnState(n, self.k)
        # draw k+1 non-self ids per row (the +1 slack absorbs duplicates)
        cand = rng.integers(0, n - 1, size=(n, self.k + 1), dtype=np.int64)
        # map to "exclude self" range: values >= row shift by one
        rows = np.arange(n, dtype=np.int64)[:, None]
        cand = cand + (cand >= rows)
        # dedupe within row by re-drawing collisions via sort trick
        cand_sorted = np.sort(cand, axis=1)
        dup = np.zeros_like(cand_sorted, dtype=bool)
        dup[:, 1:] = cand_sorted[:, 1:] == cand_sorted[:, :-1]
        # rows with duplicates: patch sequentially (rare for k << n)
        bad_rows = np.flatnonzero(dup.any(axis=1))
        for r in bad_rows:
            seen: set[int] = set()
            for j in range(self.k + 1):
                while int(cand[r, j]) in seen or int(cand[r, j]) == r:
                    cand[r, j] = int(rng.integers(0, n))
                seen.add(int(cand[r, j]))
        cols = cand[:, : self.k].reshape(-1)
        rows_flat = np.repeat(np.arange(n, dtype=np.int64), self.k)
        dists = sq_l2_pairs(x, rows_flat, cols)
        state.ids[...] = cols.reshape(n, self.k).astype(np.int32)
        state.dists[...] = dists.reshape(n, self.k)
        return state


def nn_descent_graph(points: np.ndarray, k: int, **kwargs) -> KNNGraph:
    """One-shot NN-descent KNNG (see :class:`NNDescent`)."""
    return NNDescent(k=k, **kwargs).build(points)
