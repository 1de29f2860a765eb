"""Similarity search on top of a w-KNNG graph + RP forest.

The paper motivates K-NN graph construction with similarity search: once
the graph exists, unseen queries can be answered by **graph-guided greedy
search** (the idea behind HNSW/NSG-style engines):

1. *entry points*: route the query down each retained RP tree to a leaf
   (:meth:`repro.core.rpforest.RPTree.leaf_for`) and take a handful of
   leaf members as seeds - cheap and already well-located;
2. *best-first expansion*: maintain a beam of the best candidates seen;
   repeatedly expand the nearest unexpanded candidate by scoring its graph
   neighbours, until the beam stops improving;
3. return the top ``k`` of everything scored.

Recall is controlled by the beam width (``ef``), exactly like ``efSearch``
in HNSW - giving the same accuracy/time dial the benchmarks use.

:class:`GraphSearchIndex` owns the index state (prepared points, graph,
forest, optional quantized store) and answers queries with a lock-step
engine: all live queries advance in **rounds**; each round selects every
query's best unexpanded beam entries, gathers their graph neighbours as
one ``(m, frontier, k)`` index matrix, masks already-visited nodes with
per-query visited filters, scores all fresh candidates with a single
batched gather (:func:`repro.kernels.distance.sq_l2_query_gather`) and
merges them into the per-query beams with the same ``argpartition``
select-k the build-time :meth:`~repro.kernels.knn_state.KnnState.merge_rows`
uses.  Large batches shard across forked workers
(:func:`repro.utils.parallel.map_forked`).  The per-query heapq loop -
best-first expansion one query at a time - is kept outside the library as
the tests' and T3 bench's reference oracle (``benchmarks/search_oracle.py``);
with ``frontier=1`` the engine expands nodes in exactly the same order and
returns identical results on tie-free inputs.

Beam entries and cross-shard merges share one packed-key codec
(:func:`pack_keys` / :func:`unpack_keys`): an int64 whose high 32 bits are
the float32 distance's bit pattern and whose low 31 bits are the id.

**Metric handling**: the builder constructs graph and forest in the
*prepared* space of ``BuildConfig.metric`` (L2-normalised for cosine, see
:mod:`repro.core.metric`), so the index transforms its stored points and
every incoming query batch the same way - routing, seeding and beam
scoring all happen in the space the graph's edges live in.  Returned
distances are squared L2 in that space (for cosine: exactly twice the
cosine distance).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.core.builder import WKNNGBuilder
from repro.core.config import BuildConfig
from repro.core.graph import KNNGraph
from repro.core.metric import check_metric, prepare_points
from repro.core.quant import QuantizedStore, parse_quantization
from repro.core.rpforest import RPForest
from repro.errors import ConfigurationError
from repro.kernels.distance import (
    adc_l2_query_gather,
    sq8_l2_query_gather,
    sq_l2_query_gather,
)
from repro.obs import Events, Observability
from repro.utils.arrays import blockwise_ranges, dedupe_per_row
from repro.utils.parallel import map_forked, shard_ranges
from repro.utils.validation import (
    check_points_matrix,
    check_positive_int,
    check_query_matrix,
)

#: queries processed per lock-step block (bounds the candidate/bitset
#: temporaries at roughly block * ef and block * ceil(n/64) entries)
_QUERY_BLOCK = 4096

#: registry namespace the query engine's metrics emit under
QUERY_METRICS_PREFIX = "query/"

# Packed-key layout (see pack_keys): the high 32 bits hold the float32
# distance's bit pattern (order-preserving for the non-negative squared
# distances this library uses), bits 0..30 hold the id.  Inside the
# engine's beams bit 31 flags an expanded entry.
_EXPANDED_BIT = np.int64(1) << 31
_ID_MASK = np.int64((1 << 31) - 1)
_ID_CAPACITY = 1 << 31
#: any key at or above this has a non-finite distance (inf bit pattern)
_INF_KEY = np.int64(0x7F800000) << 32
#: empty slot: quiet-NaN distance bits, sorts after every real entry
_EMPTY_KEY = np.int64(0x7FC00000) << 32
#: visited-filter budget: dense boolean matrix below, uint64 bitsets above
_DENSE_VISITED_BYTES = 1 << 27
#: byte budget for a chunk's ADC lookup tables; quantized chunks shrink
#: below _QUERY_BLOCK so per-query (M, ksub) tables stay cache-resident
_LUT_BYTE_BUDGET = 1 << 27


@dataclass
class SearchConfig:
    """Query-time parameters.

    Attributes
    ----------
    ef:
        Beam width (candidates kept alive); recall rises with ``ef``.
    seeds_per_tree:
        Entry points sampled from each tree's leaf.
    max_expansions:
        Safety cap on node expansions per query.
    frontier:
        Beam entries expanded per query per lock-step round.  ``1``
        reproduces the legacy best-first expansion order exactly; larger
        values trade a few wasted expansions for fewer, fatter rounds.
    n_jobs:
        Fork-shard query batches across this many worker processes
        (``1`` = serial, results are identical).
    quantization:
        Compressed-tier spec for candidate scoring: ``"none"`` (score
        float32 vectors, the default), ``"sq8"`` or ``"pq<M>"`` (score
        uint8 codes with the ADC lookup-table kernel; see
        :mod:`repro.core.quant`).  Quantized beams are re-ranked with
        full-precision vectors before results are emitted, so returned
        distances are always exact.
    rerank:
        Beam entries re-scored in the full-precision rerank stage when
        quantization is on.  ``0`` (default) reranks the whole ``ef``
        beam; smaller values trade rerank gathers for a little recall.
        Values below ``k`` are raised to ``k`` at query time.
    """

    ef: int = 32
    seeds_per_tree: int = 4
    max_expansions: int = 512
    frontier: int = 1
    n_jobs: int = 1
    quantization: str = "none"
    rerank: int = 0

    def __post_init__(self) -> None:
        self.ef = check_positive_int(self.ef, "ef")
        self.seeds_per_tree = check_positive_int(self.seeds_per_tree, "seeds_per_tree")
        self.max_expansions = check_positive_int(self.max_expansions, "max_expansions")
        self.frontier = check_positive_int(self.frontier, "frontier")
        self.n_jobs = check_positive_int(self.n_jobs, "n_jobs")
        # canonicalize (fail fast on bad specs): keeping the raw string
        # ("NONE", " sq8 ") used to defeat every `!= "none"` / persisted-
        # spec equality check downstream
        self.quantization = parse_quantization(self.quantization).spec
        self.rerank = int(self.rerank)
        if self.rerank < 0:
            raise ConfigurationError(f"rerank must be >= 0, got {self.rerank}")


# -- the packed-key codec -------------------------------------------------------


def pack_keys(ids: np.ndarray, dists: np.ndarray) -> np.ndarray:
    """Pack ``(id, dist)`` matrices into int64 sort keys.

    ``key = float32_bits(dist) << 32 | id``.  The IEEE-754 bit pattern of
    a non-negative float is monotone in its value, so comparing keys
    compares ``(dist, id)`` lexicographically: one sort or partition of a
    key matrix is a select-k with id tie-break and no index gathers.
    Slots with ``id < 0`` become the empty key, which sorts after every
    real entry (even ``+inf``).
    """
    ids64 = np.asarray(ids, dtype=np.int64)
    bits = np.ascontiguousarray(
        np.asarray(dists, dtype=np.float32)
    ).view(np.uint32).astype(np.int64)
    return np.where(ids64 >= 0, (bits << 32) | (ids64 & _ID_MASK), _EMPTY_KEY)


def unpack_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_keys`: ``(ids int32, dists float32)``.

    Keys with a non-finite distance (empty slots and ``+inf`` entries)
    decode to ``-1`` / ``+inf``, the library-wide unfilled-slot marker.
    """
    dists = (keys >> 32).astype(np.uint32).view(np.float32)
    found = np.isfinite(dists)
    ids = np.where(found, (keys & _ID_MASK).astype(np.int32), np.int32(-1))
    return ids, np.where(found, dists, np.float32(np.inf))


# -- work counters --------------------------------------------------------------


def _empty_stats(queries: int = 0) -> dict[str, Any]:
    return {"queries": queries, "rounds": 0, "expansions": 0,
            "distance_evals": 0, "rerank_evals": 0, "round_expansions": []}


def _concat_parts(
    parts: list[tuple[np.ndarray, np.ndarray, dict[str, Any]]],
) -> tuple[np.ndarray, np.ndarray, dict[str, Any]]:
    """Stack per-block/per-shard results row-wise and add their counters.

    Rounds overlap across parts, so the per-round expansion lists add
    elementwise and ``rounds`` is their length.
    """
    if len(parts) == 1:
        return parts[0]
    stats = _empty_stats()
    rounds = stats["round_expansions"]
    for _, _, part in parts:
        for key in ("queries", "expansions", "distance_evals", "rerank_evals"):
            stats[key] += part[key]
        b = part["round_expansions"]
        rounds.extend([0] * max(0, len(b) - len(rounds)))
        for i, v in enumerate(b):
            rounds[i] += v
    stats["rounds"] = len(rounds)
    ids = np.concatenate([p[0] for p in parts], axis=0)
    dists = np.concatenate([p[1] for p in parts], axis=0)
    return ids, dists, stats


class GraphSearchIndex:
    """Graph-guided approximate nearest-neighbour search index.

    Usage::

        index = GraphSearchIndex.build(points, k=16, seed=0)
        ids, dists = index.search(queries, k=10)

    or through the :class:`~repro.baselines.KNNIndex` engine protocol::

        index = GraphSearchIndex().fit(points)
        ids, dists = index.query(queries, k=10)
        index.stats()

    The index stores its points (:attr:`points`) in the *prepared* space
    of the graph's build metric (``graph.meta["metric"]``; see
    :mod:`repro.core.metric`) and transforms incoming queries the same
    way, so tree routing and beam scoring happen in the space the graph
    was built in.

    Per-query state during a search: a beam of ``ef`` ``(id, dist,
    expanded)`` slots and a visited filter over the ``n`` points.  All
    queries of a block advance together; a query leaves the lock-step as
    soon as every beam entry is expanded (nothing left that could improve
    its result) or its expansion budget is exhausted.

    With a :class:`~repro.core.quant.QuantizedStore` attached
    (:attr:`store`), beam scoring runs over uint8 codes via the
    asymmetric-distance kernel
    (:func:`repro.kernels.distance.adc_l2_query_gather`): per-chunk
    lookup tables replace the float32 gathers, and a final *rerank*
    stage re-scores the top beam with the full-precision matrix so the
    emitted ``(ids, dists)`` carry exact distances.
    """

    def __init__(self, points: np.ndarray | None = None,
                 graph: KNNGraph | None = None, forest: RPForest | None = None,
                 config: SearchConfig | None = None, *,
                 build_config: BuildConfig | None = None,
                 obs: Observability | None = None) -> None:
        self.config = config or SearchConfig()
        self.obs = obs
        self._build_config = build_config
        self.graph: KNNGraph | None = None
        self.forest: RPForest | None = None
        #: the attached compressed tier (``None`` when serving float32)
        self.store: QuantizedStore | None = None
        self._x: np.ndarray | None = None
        self._metric_info: dict = {}
        self.metric = "sqeuclidean"
        #: work counters of the most recent :meth:`search` call
        self.last_query_stats: dict[str, Any] = {}
        if points is not None:
            if graph is None or forest is None:
                raise ConfigurationError(
                    "constructing from points requires graph and forest "
                    "(use GraphSearchIndex.build or fit to create them)"
                )
            self._attach(points, graph, forest)

    def _attach(self, points: np.ndarray, graph: KNNGraph, forest: RPForest,
                *, prepared: bool = False,
                store: QuantizedStore | None = None) -> None:
        x = check_points_matrix(points, "points")
        metric = check_metric(str(graph.meta.get("metric", "sqeuclidean")))
        if metric == "inner_product":
            raise ConfigurationError(
                "inner_product graphs are not supported by graph-guided "
                "search (the build pipeline rejects the metric)"
            )
        self.metric = metric
        if prepared:
            # points are already in prepared space (the persisted form);
            # re-preparing would renormalise cosine data by a norm of
            # 1.0±ulp and break byte-identical load round-trips
            self._metric_info = {"normalized": True} if metric == "cosine" else {}
        else:
            x, self._metric_info = prepare_points(x, metric)
        if graph.n != x.shape[0]:
            raise ConfigurationError(
                f"graph has {graph.n} nodes but points has {x.shape[0]} rows"
            )
        if store is not None and (store.n, store.dim) != x.shape:
            raise ConfigurationError(
                f"quantized store shape ({store.n}, {store.dim}) does not "
                f"match points {x.shape}"
            )
        if store is None and self.config.quantization != "none":
            # codes live in the prepared (kernel) space, same as the graph's
            # edges - fit here so routing, ADC scoring and rerank agree
            store = QuantizedStore.fit(x, self.config.quantization, seed=0)
        self._x = x
        self.graph = graph
        self.forest = forest
        self.store = store

    def _require_fitted(self) -> "GraphSearchIndex":
        if self._x is None:
            raise ConfigurationError("search() before fit()/build(): no index data")
        return self

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls,
        points: np.ndarray,
        k: int = 16,
        build_config: BuildConfig | None = None,
        search_config: SearchConfig | None = None,
        seed=None,
        *,
        obs: Observability | None = None,
    ) -> "GraphSearchIndex":
        """Build the K-NN graph (keeping the forest) and wrap it for search.

        ``obs`` is handed to the builder as well, so one session records
        the build spans and every later ``query`` span.
        """
        cfg = build_config or BuildConfig(k=k, strategy="tiled", seed=seed)
        return cls(config=search_config, build_config=cfg, obs=obs).fit(points)

    @classmethod
    def from_parts(
        cls,
        points: np.ndarray,
        graph: KNNGraph,
        forest: RPForest,
        config: SearchConfig | None = None,
        *,
        prepared: bool = False,
        store: QuantizedStore | None = None,
        obs: Observability | None = None,
    ) -> "GraphSearchIndex":
        """Wrap an existing ``(points, graph, forest)`` triple for search.

        With ``prepared=True`` the points are taken as already transformed
        into the graph metric's kernel space and are *not* re-prepared -
        the constructor the mutable index uses to publish a new snapshot
        without renormalising (and therefore without perturbing) the
        stored vectors.  An explicit ``store`` attaches an existing
        quantized tier instead of fitting a fresh one - how the mutable
        index keeps codebooks frozen across insert flips.
        """
        index = cls(config=config, obs=obs)
        index._attach(points, graph, forest, prepared=prepared, store=store)
        return index

    def fit(self, points: np.ndarray) -> "GraphSearchIndex":
        """Engine-protocol ingest: build graph + forest over ``points``."""
        cfg = self._build_config or BuildConfig(k=16, strategy="tiled", seed=0)
        builder = WKNNGBuilder(cfg, obs=self.obs)
        graph = builder.build(points)
        assert builder.last_forest is not None
        self._attach(points, graph, builder.last_forest)
        return self

    # -- persistence -----------------------------------------------------------

    def save(self, directory) -> None:
        """Persist points, graph (with its metric metadata) and forest.

        The stored points are in prepared space; since metric preparation
        is idempotent for the graph-supported metrics, :meth:`load`
        re-applies it safely.  The search configuration (``ef`` and
        friends) is persisted alongside in ``search_config.json`` so a
        loaded index serves with the same defaults - ``repro serve
        --load-index`` depends on this for byte-identical results.
        """
        import dataclasses
        import json
        from pathlib import Path

        self._require_fitted()
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        np.save(d / "points.npy", self._x)
        assert self.graph is not None and self.forest is not None
        self.graph.save(d / "graph.npz")
        self.forest.save(d / "forest.npz")
        if self.store is not None:
            self.store.save(d / "quant.npz")
        (d / "search_config.json").write_text(
            json.dumps(dataclasses.asdict(self.config), indent=2)
        )

    @classmethod
    def load(cls, directory, config: SearchConfig | None = None,
             *, obs: Observability | None = None) -> "GraphSearchIndex":
        """Inverse of :meth:`save`.

        The graph's persisted ``meta`` carries the build metric, so the
        restored index scores queries in the same prepared space as the
        original (the cosine-correctness fix depends on this).  An
        explicit ``config`` overrides the persisted search defaults;
        indexes saved before ``search_config.json`` existed load with
        stock defaults.
        """
        import json
        from pathlib import Path

        d = Path(directory)
        if config is None and (d / "search_config.json").exists():
            config = SearchConfig(
                **json.loads((d / "search_config.json").read_text())
            )
        index = cls(config=config, obs=obs)
        store = None
        if index.config.quantization != "none" and (d / "quant.npz").exists():
            store = QuantizedStore.load(d / "quant.npz")
            if store.spec != index.config.quantization:
                store = None  # spec changed since save: refit in _attach
        index._attach(
            np.load(d / "points.npy"),
            KNNGraph.load(d / "graph.npz"),
            RPForest.load(d / "forest.npz"),
            prepared=True,
            store=store,
        )
        return index

    # -- read surface ------------------------------------------------------------

    @property
    def points(self) -> np.ndarray:
        """The indexed points in prepared (kernel) space, read-only.

        These are the rows the engine scores and :meth:`save` writes to
        ``points.npy`` (unit-norm under cosine).
        """
        view = self._require_fitted()._x.view()
        view.flags.writeable = False
        return view

    @property
    def dim(self) -> int:
        """Dimensionality of the indexed points (prepared space)."""
        return self._require_fitted()._x.shape[1]

    @property
    def n(self) -> int:
        """Number of indexed points."""
        return self._require_fitted()._x.shape[0]

    def _prepare_queries(self, queries: np.ndarray) -> np.ndarray:
        q = check_query_matrix(queries, self.dim, "queries")
        prepared, _ = prepare_points(
            q, self.metric, is_query=True,
            max_norm=self._metric_info.get("max_norm"),
        )
        return prepared

    # -- queries -----------------------------------------------------------------

    def search(self, queries: np.ndarray, k: int, *,
               ef: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Approximate k-NN for each query row.

        Returns ``(ids, dists)`` of shape ``(m, k)``, ascending by
        distance; unfilled slots carry ``-1`` / ``+inf``; ``dists`` are
        squared L2 in the index's prepared metric space, like everywhere
        in the library.  ``ef`` overrides the configured beam width for
        this call only - the dial the serving layer's degradation policy
        turns under load.  With ``config.n_jobs > 1`` the query matrix is
        sharded across forked workers; results (and stats) are identical
        to the serial run.
        """
        q = self._prepare_queries(queries)
        k = check_positive_int(k, "k")
        cfg = self.config
        if ef is not None and ef != cfg.ef:
            cfg = replace(cfg, ef=check_positive_int(ef, "ef"))
        obs = self.obs
        m = q.shape[0]
        t0 = time.perf_counter()
        shards = [(s, e, k, cfg) for s, e in shard_ranges(m, cfg.n_jobs)]
        if obs is None:
            ids, dists, stats = _concat_parts(
                map_forked(self._search_block, q, shards, cfg.n_jobs))
        else:
            obs.hooks.emit(Events.QUERY_BATCH_BEFORE,
                           queries=m, k=k, ef=cfg.ef, n_jobs=cfg.n_jobs)
            with obs.trace.span("query", queries=m, k=k, ef=cfg.ef) as sp:
                ids, dists, stats = _concat_parts(
                    map_forked(self._search_block, q, shards, cfg.n_jobs))
                sp.set(rounds=stats["rounds"], expansions=stats["expansions"],
                       round_expansions=list(stats["round_expansions"]))
        stats["seconds"] = time.perf_counter() - t0
        self.last_query_stats = stats
        if obs is not None:
            qm = obs.metrics.scoped(QUERY_METRICS_PREFIX)
            qm.counter("batches").inc()
            qm.counter("queries").inc(stats["queries"])
            qm.counter("rounds").inc(stats["rounds"])
            qm.counter("expansions").inc(stats["expansions"])
            qm.counter("distance_evals").inc(stats["distance_evals"])
            qm.counter("rerank_evals").inc(stats["rerank_evals"])
            qm.histogram("batch_seconds").observe(stats["seconds"])
            obs.hooks.emit(Events.QUERY_BATCH_AFTER,
                           queries=m, k=k, ef=cfg.ef, seconds=stats["seconds"],
                           rounds=stats["rounds"], expansions=stats["expansions"],
                           distance_evals=stats["distance_evals"])
        return ids, dists

    def query(self, queries: np.ndarray, k: int, *,
              ef: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """:class:`~repro.baselines.KNNIndex` protocol alias of :meth:`search`.

        ``ef`` is the protocol-wide per-call quality dial; here it is the
        beam width, exactly as in :meth:`search`.
        """
        return self.search(queries, k, ef=ef)

    def stats(self) -> dict[str, Any]:
        """Work counters of the most recent search (engine protocol)."""
        self._require_fitted()
        out: dict[str, Any] = {"engine": "wknng-graph", "metric": self.metric}
        for key, value in self.last_query_stats.items():
            if key != "round_expansions":
                out[key] = value
        return out

    def memory_stats(self) -> dict[str, Any]:
        """Bytes held per component, including the compressed tier.

        ``vector_bytes`` is what candidate scoring gathers from each
        round: the quantized codes (+ parameters) when a store is
        attached, the float32 matrix otherwise.  ``reduction`` compares
        the two - the memory gate BENCH_T8 publishes.
        """
        full = int(self.points.nbytes)
        assert self.graph is not None
        out: dict[str, Any] = {
            "quantization": self.config.quantization,
            "float32_bytes": full,
            "graph_bytes": int(self.graph.ids.nbytes + self.graph.dists.nbytes),
            "vector_bytes": full,
            "reduction": 1.0,
        }
        if self.store is not None:
            quant = self.store.memory_stats()
            out["vector_bytes"] = quant["quantized_bytes"]
            out["code_bytes"] = quant["code_bytes"]
            out["param_bytes"] = quant["param_bytes"]
            out["reduction"] = quant["reduction"]
        return out

    # -- the lock-step engine ----------------------------------------------------

    def _seed_matrix(self, q: np.ndarray, config: SearchConfig) -> np.ndarray:
        """Per-query entry points: ``(m, n_trees * seeds_per_tree)`` ids.

        Routes the whole query block down every tree at once; invalid
        slots (short leaves, intra-row duplicates) carry ``-1``.
        """
        m = q.shape[0]
        spt = config.seeds_per_tree
        if not self.forest.trees:
            fallback = np.arange(min(config.ef, self._x.shape[0]), dtype=np.int64)
            return np.broadcast_to(fallback, (m, fallback.size)).copy()
        columns: list[np.ndarray] = []
        for tree in self.forest.trees:
            leaf_idx = tree.leaf_for(q)
            uniq, inverse = np.unique(leaf_idx, return_inverse=True)
            padded = np.full((uniq.size, spt), -1, dtype=np.int64)
            for j, leaf in enumerate(uniq):
                members = tree.leaves[int(leaf)][:spt]
                padded[j, : members.size] = members
            columns.append(padded[inverse])
        return dedupe_per_row(np.concatenate(columns, axis=1))

    def _search_block(
        self, q: np.ndarray, start: int, end: int, k: int, config: SearchConfig
    ) -> tuple[np.ndarray, np.ndarray, dict[str, Any]]:
        """Run the lock-step rounds for query rows ``[start, end)`` - one
        fork shard - in chunks (no obs side effects)."""
        q = q[start:end]
        block = _QUERY_BLOCK
        if self.store is not None and self.store.kind != "sq8":
            # keep the chunk's per-query (M, ksub) ADC tables within budget
            # (sq8 scores by decode-gather and builds no tables)
            lut_bytes = 4 * self.store.subspaces * self.store.ksub
            block = max(64, min(block, _LUT_BYTE_BUDGET // max(1, lut_bytes)))
        return _concat_parts([
            self._search_chunk(q[s:e], k, config)
            for s, e in blockwise_ranges(q.shape[0], block)
        ])

    def _search_chunk(
        self, q: np.ndarray, k: int, config: SearchConfig
    ) -> tuple[np.ndarray, np.ndarray, dict[str, Any]]:
        x = self._x
        graph = self.graph
        m = q.shape[0]
        n = x.shape[0]
        ef = config.ef
        frontier = min(config.frontier, ef)
        kg = graph.k

        if n >= _ID_CAPACITY:
            raise ConfigurationError(
                f"batched search supports at most {_ID_CAPACITY - 1} points, got {n}"
            )

        # Beam entries are packed keys (pack_keys) with bit 31 flagging an
        # expanded entry, so comparing keys compares (dist, id) - exactly
        # the legacy heap's ordering.  One np.partition on the key matrix
        # is then a full select-k merge (no index gathers), and np.sort at
        # the end is the legacy result order.
        orig = np.arange(m)  # live row -> original query row
        qv = q
        beam = np.full((m, ef), _EMPTY_KEY, dtype=np.int64)
        expansions = np.zeros(m, dtype=np.int64)
        out_ids = np.full((m, k), -1, dtype=np.int32)
        out_dists = np.full((m, k), np.inf, dtype=np.float32)
        stats = _empty_stats(m)

        # quantized scoring: sq8 stores decode-and-score straight from the
        # code matrix; pq stores go through per-query ADC tables, built
        # once per chunk.  The tables are never copied on live-query
        # compaction - only the `lut_rows` indirection vector shrinks.
        store = self.store
        lut_rows = None
        if store is not None:
            codes = store.codes
            rerank_w = ef if config.rerank == 0 else min(ef, max(k, config.rerank))
            if store.kind == "sq8":
                lo, scale = store.quantizer.lo, store.quantizer.scale

                def score(queries_live, lut_rows, cand, pairs):
                    return sq8_l2_query_gather(
                        codes, lo, scale, queries_live, cand, valid_pairs=pairs
                    )
            else:
                luts = store.luts(q)
                lut_rows = np.arange(m)

                def score(queries_live, lut_rows, cand, pairs):
                    return adc_l2_query_gather(
                        luts, codes, cand, valid_pairs=pairs, lut_rows=lut_rows
                    )
        else:

            def score(queries_live, lut_rows, cand, pairs):
                return sq_l2_query_gather(queries_live, x, cand, valid_pairs=pairs)

        # visited filter: dense boolean matrix when it fits the budget
        # (plain fancy-index scatter/gather), per-query uint64 bitsets
        # beyond that (1 bit per node instead of 1 byte)
        if m * n <= _DENSE_VISITED_BYTES:
            visited = np.zeros((m, n), dtype=bool)

            def mark_visited(rows: np.ndarray, ids: np.ndarray) -> None:
                # flat 1-d scatter/gather: measurably faster than 2-d
                # advanced indexing on the per-round hot path
                visited.reshape(-1)[rows * n + ids] = True

            def is_visited(rows: np.ndarray, ids: np.ndarray) -> np.ndarray:
                return visited.reshape(-1).take(rows * n + ids)
        else:
            visited = np.zeros((m, (n + 63) // 64), dtype=np.uint64)

            def mark_visited(rows: np.ndarray, ids: np.ndarray) -> None:
                bits = np.left_shift(np.uint64(1), (ids & 63).astype(np.uint64))
                np.bitwise_or.at(visited, (rows, ids >> 6), bits)

            def is_visited(rows: np.ndarray, ids: np.ndarray) -> np.ndarray:
                bits = np.left_shift(np.uint64(1), (ids & 63).astype(np.uint64))
                return (visited[rows, ids >> 6] & bits) != 0

        def merge(cand_keys: np.ndarray) -> None:
            """Select-k merge of candidates into every live beam (the same
            schedule as ``KnnState.merge_rows``, on packed keys).

            Rows whose candidates are all at or beyond their current worst
            beam entry cannot change and skip the select-k entirely.
            """
            worst = beam.max(axis=1)
            improving = np.nonzero((cand_keys < worst[:, None]).any(axis=1))[0]
            if improving.size == 0:
                return
            union = np.concatenate([beam[improving], cand_keys[improving]], axis=1)
            beam[improving] = np.partition(union, ef - 1, axis=1)[:, :ef]

        def finalize(rows: np.ndarray) -> None:
            """Write the sorted top-k of the listed live rows to the output
            (ascending distance, id tie-break - the legacy heap order).

            On the quantized path the beam holds approximate ADC
            distances; the top ``rerank_w`` entries are re-scored against
            the full-precision matrix and re-sorted first, so the emitted
            order and distances are exact over the reranked set.
            """
            dest = orig[rows]
            keys = np.sort(beam[rows] & ~_EXPANDED_BIT, axis=1)
            if store is not None:
                cand = keys[:, :rerank_w]
                finite = cand < _INF_KEY  # real entries with finite dist
                ids_w = np.where(finite, cand & _ID_MASK, -1)
                rr, cc = np.nonzero(finite)
                exact = sq_l2_query_gather(
                    q[dest], x, ids_w, valid_pairs=(rr, cc)
                )
                stats["rerank_evals"] += int(rr.size)
                keys = np.sort(pack_keys(ids_w, exact), axis=1)
            top_i, top_d = unpack_keys(keys[:, : min(k, ef)])
            cols = np.arange(top_i.shape[1])
            out_ids[dest[:, None], cols] = top_i
            out_dists[dest[:, None], cols] = top_d

        # --- seed the beams ---
        seeds = self._seed_matrix(q, config)
        s_rows, s_cols = np.nonzero(seeds >= 0)
        mark_visited(s_rows, seeds[s_rows, s_cols])
        seed_dists = score(q, lut_rows, seeds, (s_rows, s_cols))
        stats["distance_evals"] += int(s_rows.size)
        merge(pack_keys(seeds, seed_dists))

        # --- lock-step rounds ---
        while orig.size:
            # pick each live query's `frontier` nearest unexpanded beam
            # entries (expanded and empty entries are masked out)
            masked = np.where((beam & _EXPANDED_BIT) != 0, _EMPTY_KEY, beam)
            if frontier == 1:
                sel = np.argmin(masked, axis=1)[:, None]
            else:
                sel = np.argpartition(masked, frontier - 1, axis=1)[:, :frontier]
            sel_keys = masked[np.arange(orig.size)[:, None], sel]
            expandable = sel_keys < _INF_KEY  # real entry with finite dist
            live = expandable.any(axis=1) & (expansions < config.max_expansions)
            if not live.all():
                done = np.nonzero(~live)[0]
                finalize(done)
                keep = np.nonzero(live)[0]
                if keep.size == 0:
                    break
                orig, qv, expansions = orig[keep], qv[keep], expansions[keep]
                beam, visited = beam[keep], visited[keep]
                sel, expandable = sel[keep], expandable[keep]
                if lut_rows is not None:
                    lut_rows = lut_rows[keep]

            a = orig.size
            nodes = np.where(expandable, sel_keys[live] & _ID_MASK, -1)
            rr, cc = np.nonzero(expandable)
            beam[rr, sel[rr, cc]] |= _EXPANDED_BIT
            n_expanded = int(rr.size)
            expansions += expandable.sum(axis=1)
            stats["rounds"] += 1
            stats["expansions"] += n_expanded
            stats["round_expansions"].append(n_expanded)

            # gather graph neighbours of the selected nodes: (a, frontier, kg)
            neigh = graph.ids[np.where(nodes >= 0, nodes, 0)]
            neigh = np.where((nodes >= 0)[:, :, None], neigh, -1)
            cand = neigh.reshape(a, frontier * kg)
            if frontier > 1:
                cand = dedupe_per_row(cand)
            fresh = cand >= 0
            safe = np.where(fresh, cand, 0)
            row_grid = np.broadcast_to(np.arange(a)[:, None], safe.shape)
            fresh &= ~is_visited(row_grid, safe)
            rr, cc = np.nonzero(fresh)
            if rr.size:
                mark_visited(rr, cand[rr, cc])
            cand_dists = score(qv, lut_rows, cand, (rr, cc))
            stats["distance_evals"] += int(rr.size)
            merge(pack_keys(cand, cand_dists))

        if orig.size:
            finalize(np.arange(orig.size))
        return out_ids, out_dists, stats
