"""The global-memory k-NN list structure shared by all strategies.

One :class:`KnnState` holds, for every point, its current best-``k``
neighbour candidates as one ``(n, k)`` int64 matrix of packed keys, the
word the paper's atomic variant keeps per slot in GPU global memory:
``key = float32_bits(dist) << 32 | id`` (:func:`pack_keys`).  The
IEEE-754 bit pattern of a non-negative float is monotone in its value,
so comparing keys compares ``(dist, id)`` lexicographically.

Every row is kept **sorted ascending** after every operation, so a row's
worst entry is its last column, a merge is "concatenate keys, sort, keep
k", and the lists are canonical - a function of each row's key set, not
of the order in which a strategy, a shard merge or NumPy's selection
happened to arrange them.  Empty slots hold :data:`EMPTY_KEY`, which
sorts after every real entry.

The codec is the library's one ``(dist, id)`` packing: the search
engine's beams and the serving cluster's cross-shard merge use it too.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

#: sentinel id for an empty slot (decoded form)
EMPTY_ID = -1

#: bits 0..30 of a key hold the id
ID_MASK = np.int64((1 << 31) - 1)
#: ids must stay below this: a key has 31 id bits, and the all-ones id
#: belongs to the empty key
ID_CAPACITY = 1 << 31
#: any key at or above this has a non-finite distance (inf bit pattern)
INF_KEY = np.int64(0x7F800000) << 32
#: empty slot: quiet-NaN distance bits, sorts after every real entry; its
#: id bits are all ones, so a masked empty slot never reads as id 0
EMPTY_KEY = (np.int64(0x7FC00000) << 32) | ID_MASK


def pack_keys(ids: np.ndarray, dists: np.ndarray) -> np.ndarray:
    """Pack ``(id, dist)`` matrices into int64 sort keys.

    One sort or partition of a key matrix is a select-k with id
    tie-break and no index gathers.  Slots with ``id < 0`` become
    :data:`EMPTY_KEY`.
    """
    ids64 = np.asarray(ids, dtype=np.int64)
    bits = np.asarray(dists, dtype=np.float32).view(np.uint32).astype(np.int64)
    return np.where(ids64 >= 0, (bits << 32) | (ids64 & ID_MASK), EMPTY_KEY)


def unpack_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_keys`: ``(ids int32, dists float32)``.

    Keys with a non-finite distance (empty slots and ``+inf`` entries)
    decode to ``-1`` / ``+inf``, the library-wide unfilled-slot marker.
    """
    dists = (keys >> 32).astype(np.uint32).view(np.float32)
    found = np.isfinite(dists)
    ids = np.where(found, (keys & ID_MASK).astype(np.int32), np.int32(EMPTY_ID))
    return ids, np.where(found, dists, np.float32(np.inf))


def _check_capacity(n: int) -> None:
    if n >= ID_CAPACITY:
        raise ConfigurationError(
            f"KnnState supports at most {ID_CAPACITY - 1} points "
            f"(31 id bits per key), got {n}"
        )


class KnnState:
    """Mutable k-NN lists for ``n`` points, ``k`` row-sorted keys per point."""

    __slots__ = ("n", "k", "keys")

    def __init__(self, n: int, k: int) -> None:
        if n <= 0 or k <= 0:
            raise ConfigurationError(f"KnnState needs positive n and k, got {n}, {k}")
        _check_capacity(n)
        self.n = int(n)
        self.k = int(k)
        self.keys = np.full((n, k), EMPTY_KEY, dtype=np.int64)

    @classmethod
    def from_keys(cls, keys: np.ndarray) -> "KnnState":
        """Wrap an ``(n, k)`` key matrix whose rows are already sorted
        (no copy: the state writes through to ``keys``)."""
        _check_capacity(keys.shape[0])
        state = cls.__new__(cls)
        state.n, state.k = keys.shape
        state.keys = keys
        return state

    @classmethod
    def from_lists(cls, ids: np.ndarray, dists: np.ndarray) -> "KnnState":
        """A state holding the given ``(n, k)`` lists (any slot order;
        ``id < 0`` marks an empty slot).  Row ids must be distinct."""
        return cls.from_keys(np.sort(pack_keys(ids, dists), axis=1))

    # -- decoded views ----------------------------------------------------------

    @property
    def ids(self) -> np.ndarray:
        """Read-only ``(n, k)`` int32 ids in list order (``-1`` = empty)."""
        ids, _ = unpack_keys(self.keys)
        ids.flags.writeable = False
        return ids

    @property
    def dists(self) -> np.ndarray:
        """Read-only ``(n, k)`` float32 distances in list order."""
        _, dists = unpack_keys(self.keys)
        dists.flags.writeable = False
        return dists

    def filled_counts(self) -> np.ndarray:
        """Number of occupied slots per row."""
        return (self.keys < INF_KEY).sum(axis=1)

    def sorted_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(ids, dists)``, every row ascending by ``(dist, id)``."""
        return unpack_keys(self.keys)

    # -- bulk mutation (used by strategies) -------------------------------------

    def merge_rows(self, rows: np.ndarray, cand_keys: np.ndarray) -> int:
        """Merge per-row candidate keys into the listed rows.

        Parameters
        ----------
        rows:
            ``(r,)`` unique row indices.
        cand_keys:
            ``(r, m)`` candidate keys; unused slots carry
            :data:`EMPTY_KEY`.  Candidates must not repeat an id already
            in the row, nor each other (the strategies guarantee this).

        Returns
        -------
        Number of candidates that survived into the lists.

        Notes
        -----
        Concatenate, sort, keep ``k``: the vectorised equivalent of the
        warp bitonic bulk merge.  Keys are distinct, so a candidate
        survived exactly when it is at or below the new row's last key.
        """
        if rows.size == 0:
            return 0
        merged = np.sort(np.concatenate([self.keys[rows], cand_keys], axis=1),
                         axis=1)[:, : self.k]
        self.keys[rows] = merged
        return int(((cand_keys <= merged[:, -1:]) & (cand_keys < INF_KEY)).sum())

    def copy(self) -> "KnnState":
        return KnnState.from_keys(self.keys.copy())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KnnState(n={self.n}, k={self.k}, filled={int(self.filled_counts().sum())})"
