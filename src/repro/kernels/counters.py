"""Operation counters for the vectorised kernel backend.

Wall-clock time of the vectorised backend depends on NumPy/BLAS details;
the counters record the *algorithmic* quantities (distance evaluations,
insertion attempts, contention retries, lock acquisitions, merge rounds)
that transfer to any implementation, including the paper's CUDA kernels.
Benchmarks report both.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry

#: registry namespace the vectorised kernel counters emit under
METRICS_PREFIX = "kernel/"


@dataclass
class OpCounters:
    """Algorithmic work counters accumulated by a strategy."""

    #: point-pair distance evaluations (each costs O(d) FLOPs).  In the
    #: leaf phase, strategies that update both endpoints of a pair
    #: (baseline, atomic) count each unordered pair once while the tiled
    #: strategy computes both directions.  The refine round computes (and
    #: counts) each unordered pair once per row shard, for every strategy:
    #: exactly once with one shard (``n_jobs=1``), up to twice when the
    #: pair's two rows fall in different shards.
    distance_evals: int = 0
    #: insertion visits: candidates entering the maintenance structure
    #: before any filtering (every visit pays the strategy's scan)
    candidates_seen: int = 0
    #: candidates surviving the membership/max filters (post filter)
    candidates_offered: int = 0
    #: candidates that actually entered a k-NN list
    candidates_inserted: int = 0
    #: atomic strategy: CAS/atomicMax attempts (>= inserted; excess = retries)
    atomic_attempts: int = 0
    #: atomic strategy: attempts that had to be replayed due to contention
    atomic_retries: int = 0
    #: baseline strategy: per-point lock acquisitions
    lock_acquisitions: int = 0
    #: tiled strategy: bulk merge rounds executed
    merge_rounds: int = 0
    #: tiled strategy: padded candidate slots processed by merges
    merge_slots: int = 0

    def add(self, other: "OpCounters") -> "OpCounters":
        """Accumulate ``other`` into ``self`` (in place); returns ``self``."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def emit(self, registry: "MetricsRegistry", prefix: str = METRICS_PREFIX) -> None:
        """Pour the current snapshot into an observability metrics registry.

        Each field becomes a counter increment named ``<prefix><field>``, so
        ``registry.section(prefix)`` reproduces :meth:`as_dict` exactly.
        """
        registry.absorb(self.as_dict(), prefix=prefix)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"{k}={v}" for k, v in self.as_dict().items() if v]
        return "OpCounters(" + ", ".join(parts) + ")"
