"""Compressed memory tier: quantized vectors, ADC scoring, exact rerank.

Run:  python examples/quant_demo.py

Builds one graph index and serves it from three vector tiers — full
float32, scalar-quantized (``sq8``) and product-quantized (``pq8``) —
sharing the same graph and forest.  The demo shows:

* the memory ledger: uint8 codes shrink the vector store 4x (sq8) to
  ``4d/M``x (pq) while the graph walk still works;
* recall against exact brute force barely moves — the quantized codes
  only steer the walk, they never score the final answer;
* emitted distances are bit-for-bit full precision for every tier,
  because the top beam is re-ranked against the float32 vectors.
"""

import numpy as np

from repro.apps.search import GraphSearchIndex, SearchConfig
from repro.baselines.bruteforce import BruteForceKNN
from repro.data import gaussian_mixture
from repro.kernels.distance import sq_l2_query_gather


def recall(ids: np.ndarray, gt: np.ndarray) -> float:
    k = gt.shape[1]
    return float(np.mean([
        np.intersect1d(ids[i], gt[i]).size / k for i in range(ids.shape[0])
    ]))


def main() -> None:
    n, d, k = 4000, 32, 10
    x = gaussian_mixture(n, d, n_clusters=16, seed=0)
    queries = gaussian_mixture(200, d, n_clusters=16, seed=1)
    gt, _ = BruteForceKNN(x).search(queries, k)

    print(f"building graph index over {n} points (d={d})...")
    base = GraphSearchIndex.build(
        x, k=16, search_config=SearchConfig(ef=128), seed=0
    )

    print(f"\n{'tier':>8}  {'vector MB':>10}  {'reduction':>9}  "
          f"{'recall@10':>9}  {'rerank evals':>12}")
    for spec in ("none", "sq8", "pq8"):
        if spec == "none":
            index = base
        else:
            # same graph + forest, different vector tier
            index = GraphSearchIndex.from_parts(
                x, base.graph, base.forest,
                SearchConfig(ef=128, quantization=spec),
            )
        ids, dists = index.search(queries, k)
        mem = index.memory_stats()
        stats = index.stats()
        print(f"{spec:>8}  {mem['vector_bytes'] / 1e6:>10.2f}  "
              f"{mem['reduction']:>8.1f}x  {recall(ids, gt):>9.4f}  "
              f"{stats['rerank_evals']:>12d}")

        # emitted distances are exact regardless of tier: recompute the
        # returned pairs against the full-precision vectors
        exact = sq_l2_query_gather(
            index._prepare_queries(queries), index.points,
            ids.astype(np.int64),
        )
        assert np.allclose(dists, exact, rtol=1e-5, atol=1e-5)

    print("\nall emitted distances verified exact against float32 vectors")
    print("(quantized codes steer the walk; the rerank stage scores it)")


if __name__ == "__main__":
    main()
