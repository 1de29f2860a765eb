"""Near-duplicate detection on a K-NN graph.

A fourth classic graph consumer: find groups of (near-)identical records
in a collection - repeated images, plagiarised documents, double-entered
rows.  With the K-NN graph in hand the problem is two cheap passes:

1. **edge selection**: keep graph edges whose distance falls below a
   threshold - either absolute or calibrated automatically from the edge
   distance distribution (duplicate edges sit in a separated low-distance
   mode; the default takes a low quantile with a floor);
2. **clustering**: vectorized connected components over the kept edges
   (:func:`repro.neighbors.unionfind.connected_components`); each
   component with more than one member is a duplicate group.

Everything after graph construction is O(edges), so the K-NN build - the
part this library accelerates - dominates, exactly as in the paper's
other motivating applications.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.graph import KNNGraph
from repro.errors import ConfigurationError
from repro.neighbors.unionfind import connected_components


@dataclass
class DedupConfig:
    """Duplicate-detection parameters.

    Attributes
    ----------
    threshold:
        Absolute squared-distance threshold for "duplicate" edges;
        ``None`` calibrates automatically (see ``quantile``).
    quantile:
        When auto-calibrating: the edge-distance quantile taken as the
        threshold, bounded below by ``floor`` (guards against a dataset
        with *no* duplicates, where even low quantiles are real
        distances).
    floor:
        Lower bound used by auto-calibration; edges above it are never
        considered duplicates.
    """

    threshold: float | None = None
    quantile: float = 0.01
    floor: float = 1e-6

    def __post_init__(self) -> None:
        if self.threshold is not None and self.threshold < 0:
            raise ConfigurationError("threshold must be non-negative")
        if not 0.0 < self.quantile < 1.0:
            raise ConfigurationError("quantile must be in (0, 1)")
        if self.floor < 0:
            raise ConfigurationError("floor must be non-negative")


class Deduplicator:
    """Find near-duplicate groups in a :class:`KNNGraph`.

    Usage::

        groups = Deduplicator(DedupConfig(threshold=1e-4)).find_groups(graph)
        # [[3, 17, 240], [55, 81], ...]  (each group sorted; singletons omitted)
    """

    def __init__(self, config: DedupConfig | None = None) -> None:
        self.config = config or DedupConfig()
        self.threshold_: float = float("nan")

    def _resolve_threshold(self, graph: KNNGraph) -> float:
        cfg = self.config
        if cfg.threshold is not None:
            return float(cfg.threshold)
        valid = graph.ids >= 0
        dists = graph.dists[valid]
        if dists.size == 0:
            return cfg.floor
        return max(float(np.quantile(dists, cfg.quantile)), cfg.floor)

    def find_groups(self, graph: KNNGraph) -> list[list[int]]:
        """Return duplicate groups (size >= 2), each sorted, ordered by size."""
        thr = self._resolve_threshold(graph)
        self.threshold_ = thr
        valid = graph.ids >= 0
        rows = np.repeat(np.arange(graph.n), valid.sum(axis=1))
        cols = graph.ids[valid].astype(np.int64)
        close = graph.dists[valid] <= thr
        # labels are component-minimum ids: a stable sort by label lists
        # components by their smallest member, members ascending
        labels = connected_components(graph.n, rows[close], cols[close])
        order = np.argsort(labels, kind="stable")
        _, starts, sizes = np.unique(
            labels[order], return_index=True, return_counts=True)
        groups = [order[s:s + c].tolist()
                  for s, c in zip(starts, sizes) if c > 1]
        groups.sort(key=len, reverse=True)
        return groups

    def duplicate_mask(self, graph: KNNGraph) -> np.ndarray:
        """Boolean (n,): True for every point that belongs to some group."""
        mask = np.zeros(graph.n, dtype=bool)
        for group in self.find_groups(graph):
            mask[group] = True
        return mask

    def representatives(self, graph: KNNGraph) -> np.ndarray:
        """Deduplicated id set: all points, keeping one (the smallest id)
        per duplicate group."""
        drop = np.zeros(graph.n, dtype=bool)
        for group in self.find_groups(graph):
            drop[group[1:]] = True
        return np.flatnonzero(~drop)
