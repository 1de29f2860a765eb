"""Seeded inputs and the exact oracle every answer is checked against.

The inputs are generated here, not by the program, so a change to the
program's own dataset helpers cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import numpy as np

#: points per mixture component (the issue's ``n_clusters = n / 300``)
POINTS_PER_CLUSTER = 300

#: the mixture's centres come from this fixed stream, not from the workload
#: seed: a seed resamples points from one distribution instead of drawing a
#: new cluster geometry, whose difficulty moved serving latency by ~30 %
#: between seeds
CENTRES_SEED = 0


def gaussian_mixture(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Isotropic unit-variance blobs around fixed centres drawn at scale 5;
    ``rng`` draws the component of each point and its offset."""
    n_clusters = max(1, n // POINTS_PER_CLUSTER)
    centers = np.random.default_rng(CENTRES_SEED).standard_normal((n_clusters, dim)) * 5.0
    labels = rng.integers(0, n_clusters, n)
    return (centers[labels] + rng.standard_normal((n, dim))).astype(np.float32)


def make_inputs(seed: int, n: int, dim: int, n_queries: int, n_pool: int) -> dict:
    """Index points, held-out queries and a held-out insert pool, all drawn
    from one mixture so queries and inserts follow the indexed distribution."""
    rng = np.random.default_rng(seed)
    pts = gaussian_mixture(n + n_queries + n_pool, dim, rng)
    pts = pts[rng.permutation(pts.shape[0])]
    return {
        "base": np.ascontiguousarray(pts[:n]),
        "queries": np.ascontiguousarray(pts[n:n + n_queries]),
        "pool": np.ascontiguousarray(pts[n + n_queries:]),
        "order": rng.permutation(n_queries),
    }


def exact_topk(queries: np.ndarray, points: np.ndarray, k: int, *,
               exclude_self: bool = False, block: int = 256) -> np.ndarray:
    """Exact k nearest ids by squared L2, in float64, ascending, blockwise.

    With ``exclude_self`` the queries are ``points`` itself and row ``i``
    never lists ``i``.
    """
    x = points.astype(np.float64)
    sq = np.einsum("ij,ij->i", x, x)
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    for lo in range(0, queries.shape[0], block):
        q = queries[lo:lo + block].astype(np.float64)
        d = np.einsum("ij,ij->i", q, q)[:, None] - 2.0 * q @ x.T + sq[None, :]
        if exclude_self:
            rows = np.arange(q.shape[0])
            d[rows, lo + rows] = np.inf
        part = np.argpartition(d, k - 1, axis=1)[:, :k]
        order = np.argsort(np.take_along_axis(d, part, axis=1), axis=1,
                           kind="stable")
        out[lo:lo + block] = np.take_along_axis(part, order, axis=1)
    return out


def recall(approx: np.ndarray, exact: np.ndarray) -> float:
    """Mean fraction of each exact row found in the approximate row."""
    k = exact.shape[1]
    hits = sum(len(np.intersect1d(a, e, assume_unique=False))
               for a, e in zip(approx, exact))
    return hits / float(k * exact.shape[0])
