"""Compressed vector storage: scalar / product quantization + ADC scoring.

At millions of points the float32 matrix - not the graph - dominates both
memory and gather bandwidth (the paper's 639%-vs-FAISS framing is exactly
a fight about vector bandwidth).  This module adds the standard compressed
tier the large-scale GPU KNN literature leans on (GGNN, FAISS IVFPQ):

* :class:`ScalarQuantizer` (``"sq8"``) - uint8 codes with per-dimension
  affine ``min/scale`` parameters: a fixed 4x reduction with decode error
  bounded by half a quantization step per dimension;
* :class:`ProductQuantizer` (``"pq{M}"``) - the vector is split into ``M``
  sub-spaces, each encoded as the id of its nearest entry in a 256-entry
  codebook trained with :func:`repro.baselines.kmeans.kmeans` - ``4d/M``x
  reduction (16x for ``d=32, M=8``) at the cost of codebook training;
* :class:`QuantizedStore` - the uniform container the search engine and
  the serving stack hold next to (or instead of) the float32 matrix:
  codes + parameters, persistence, and the per-query lookup tables that
  feed the asymmetric-distance microkernel
  (:func:`repro.kernels.distance.adc_l2_query_gather`).

**Asymmetric distance (ADC)**: queries stay in full precision; only the
database side is quantized.  For every query a table of partial squared
distances to each codebook entry is built once (``(M, ksub)`` floats), and
scoring a candidate reduces to ``M`` table lookups summed - no decode, no
subtraction, and code gathers touch ``M`` bytes instead of ``4d``.  Both
quantizers expose the same LUT contract, so one microkernel (and one SIMT
kernel, :mod:`repro.simt_kernels.adc_kernels`) serves both: SQ8 is simply
the degenerate PQ with one sub-space per dimension and the affine grid as
its 256-entry codebook.

Quantized beams are *re-ranked*: the search engine re-scores the top beam
with the full-precision vectors before emitting results, so returned
distances are exact and recall loss stays within the rerank budget (see
``docs/quantization.md`` for the measured trade-off).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.utils.arrays import blockwise_ranges
from repro.utils.rng import RngStream

#: codebook entries per sub-space (uint8 codes)
KSUB_MAX = 256

#: kmeans training caps: Lloyd iterations and the training subsample
_PQ_TRAIN_ITERS = 10
_PQ_TRAIN_SAMPLE = 65_536

#: rows of ``x`` encoded per block (bounds the assignment temporaries)
_ENCODE_BLOCK = 4096


class QuantSpec(NamedTuple):
    """A parsed quantization spec: kind, sub-space count, canonical string.

    ``spec`` is the canonical form (``"none"``, ``"sq8"``, ``"pq8"``):
    the string every config field and persisted store holds, so spec
    equality is string equality regardless of how the user typed it.
    """

    kind: str
    m: int
    spec: str


def parse_quantization(spec: str) -> QuantSpec:
    """Validate a quantization spec; returns ``(kind, m_subspaces, spec)``.

    ``"none"`` (or ``""``) -> ``("none", 0, "none")``, ``"sq8"`` ->
    ``("sq8", 0, "sq8")``, and ``"pq{M}"`` (``M`` bare digits, e.g.
    ``"pq8"``) -> ``("pq", M, "pq{M}")``.  Parsing is case-insensitive
    and strips surrounding whitespace; the returned ``spec`` is the
    canonical lowercase form, which callers must store instead of the
    raw input (``SearchConfig`` and ``QuantizedStore.spec`` both do).
    """
    s = str(spec).strip().lower()
    if s in ("none", ""):
        return QuantSpec("none", 0, "none")
    if s == "sq8":
        return QuantSpec("sq8", 0, "sq8")
    if s.startswith("pq") and s[2:].isascii() and s[2:].isdigit():
        # bare digits only: int() would also tolerate "pq+8" / "pq 8",
        # and those non-canonical forms would leak into persisted specs
        m = int(s[2:])
        if m >= 1:
            return QuantSpec("pq", m, f"pq{m}")
    raise ConfigurationError(
        f"unknown quantization spec {spec!r}; use 'none', 'sq8' or 'pq<M>' (e.g. 'pq8')"
    )


def _check_points(x: np.ndarray, name: str = "points") -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float32)
    if x.ndim != 2 or x.shape[0] < 1:
        raise DataError(f"{name} must be a non-empty (n, d) matrix, got shape {x.shape}")
    return x


class ScalarQuantizer:
    """Per-dimension affine uint8 quantization (``"sq8"``).

    ``encode(x)[i, d] = round((x[i, d] - lo[d]) / scale[d])`` clipped to
    ``[0, 255]``; constant dimensions get ``scale=1`` so they encode to
    ``0`` and decode exactly.  The ADC view treats every dimension as a
    sub-space whose 256-entry codebook is the affine grid
    ``lo[d] + scale[d] * c``.
    """

    kind = "sq8"

    def __init__(self, lo: np.ndarray, scale: np.ndarray) -> None:
        self.lo = np.ascontiguousarray(lo, dtype=np.float32)
        self.scale = np.ascontiguousarray(scale, dtype=np.float32)
        if self.lo.shape != self.scale.shape or self.lo.ndim != 1:
            raise DataError("lo/scale must be matching (d,) vectors")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def subspaces(self) -> int:
        return self.lo.shape[0]

    @property
    def ksub(self) -> int:
        return KSUB_MAX

    @classmethod
    def fit(cls, x: np.ndarray) -> "ScalarQuantizer":
        """Fit the per-dimension grid to ``x``'s min/max envelope.

        Deterministic - no sampling, so no ``seed`` parameter (it used
        to accept one and silently ignore it; dropped for honesty with
        :meth:`ProductQuantizer.fit`, which genuinely consumes its seed).
        """
        x = _check_points(x)
        lo = x.min(axis=0)
        hi = x.max(axis=0)
        scale = (hi - lo) / np.float32(KSUB_MAX - 1)
        # constant dimensions: any positive scale works (codes are all 0)
        scale = np.where(scale > 0, scale, np.float32(1.0)).astype(np.float32)
        return cls(lo, scale)

    def encode(self, x: np.ndarray) -> np.ndarray:
        x = _check_points(x)
        if x.shape[1] != self.dim:
            raise DataError(f"expected dim {self.dim}, got {x.shape[1]}")
        codes = np.empty(x.shape, dtype=np.uint8)
        for s, e in blockwise_ranges(x.shape[0], _ENCODE_BLOCK):
            q = np.rint((x[s:e] - self.lo) / self.scale)
            codes[s:e] = np.clip(q, 0, KSUB_MAX - 1).astype(np.uint8)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        return (self.lo + self.scale * codes.astype(np.float32)).astype(np.float32)

    def luts(self, queries: np.ndarray) -> np.ndarray:
        """Per-query ADC tables: ``(m, d, 256)`` squared partial distances."""
        q = _check_points(queries, "queries")
        if q.shape[1] != self.dim:
            raise DataError(f"expected dim {self.dim}, got {q.shape[1]}")
        grid = self.lo[:, None] + self.scale[:, None] * np.arange(
            KSUB_MAX, dtype=np.float32
        )
        diff = q[:, :, None] - grid[None, :, :]
        np.square(diff, out=diff)
        return diff

    def nbytes(self) -> int:
        return int(self.lo.nbytes + self.scale.nbytes)

    def params(self) -> dict[str, np.ndarray]:
        return {"lo": self.lo, "scale": self.scale}

    @classmethod
    def from_params(cls, data: dict[str, np.ndarray]) -> "ScalarQuantizer":
        return cls(data["lo"], data["scale"])


class ProductQuantizer:
    """Product quantization: ``M`` sub-spaces, one trained codebook each.

    Sub-spaces are the ``np.array_split`` partition of the dimensions, so
    any ``d >= M`` works (uneven tails allowed).  Codebooks are trained
    with the library's own Lloyd k-means (:mod:`repro.baselines.kmeans`),
    ``ksub = min(256, n_train)`` entries shared across sub-spaces.
    """

    kind = "pq"

    def __init__(self, codebooks: list[np.ndarray]) -> None:
        if not codebooks:
            raise DataError("ProductQuantizer needs at least one codebook")
        self.codebooks = [np.ascontiguousarray(c, dtype=np.float32) for c in codebooks]
        ksubs = {c.shape[0] for c in self.codebooks}
        if len(ksubs) != 1:
            raise DataError(f"codebooks disagree on ksub: {sorted(ksubs)}")
        if self.codebooks[0].shape[0] > KSUB_MAX:
            raise DataError(
                f"ksub {self.codebooks[0].shape[0]} exceeds uint8 capacity {KSUB_MAX}"
            )
        dims = np.array([c.shape[1] for c in self.codebooks])
        self._splits = np.concatenate([[0], np.cumsum(dims)])

    @property
    def dim(self) -> int:
        return int(self._splits[-1])

    @property
    def subspaces(self) -> int:
        return len(self.codebooks)

    @property
    def ksub(self) -> int:
        return int(self.codebooks[0].shape[0])

    @classmethod
    def fit(cls, x: np.ndarray, m_subspaces: int, seed: RngStream = None) -> "ProductQuantizer":
        from repro.baselines.kmeans import kmeans
        from repro.utils.rng import as_generator

        x = _check_points(x)
        n, d = x.shape
        if m_subspaces < 1 or m_subspaces > d:
            raise ConfigurationError(
                f"pq needs 1 <= M <= dim, got M={m_subspaces} for dim={d}"
            )
        ksub = min(KSUB_MAX, n)
        rng = as_generator(seed)
        bounds = np.linspace(0, d, m_subspaces + 1).astype(int)
        codebooks = []
        for m in range(m_subspaces):
            sub = x[:, bounds[m] : bounds[m + 1]]
            codebooks.append(
                kmeans(
                    sub,
                    ksub,
                    n_iters=_PQ_TRAIN_ITERS,
                    seed=rng,
                    train_sample=_PQ_TRAIN_SAMPLE,
                )
            )
        return cls(codebooks)

    def encode(self, x: np.ndarray) -> np.ndarray:
        from repro.baselines.kmeans import assign

        x = _check_points(x)
        if x.shape[1] != self.dim:
            raise DataError(f"expected dim {self.dim}, got {x.shape[1]}")
        codes = np.empty((x.shape[0], self.subspaces), dtype=np.uint8)
        for m, cb in enumerate(self.codebooks):
            lo, hi = self._splits[m], self._splits[m + 1]
            labels, _ = assign(x[:, lo:hi], cb)
            codes[:, m] = labels.astype(np.uint8)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        out = np.empty((codes.shape[0], self.dim), dtype=np.float32)
        for m, cb in enumerate(self.codebooks):
            lo, hi = self._splits[m], self._splits[m + 1]
            out[:, lo:hi] = cb[codes[:, m]]
        return out

    def luts(self, queries: np.ndarray) -> np.ndarray:
        """Per-query ADC tables: ``(m, M, ksub)`` squared sub-distances."""
        from repro.kernels.distance import pairwise_sq_l2_gemm

        q = _check_points(queries, "queries")
        if q.shape[1] != self.dim:
            raise DataError(f"expected dim {self.dim}, got {q.shape[1]}")
        out = np.empty((q.shape[0], self.subspaces, self.ksub), dtype=np.float32)
        for m, cb in enumerate(self.codebooks):
            lo, hi = self._splits[m], self._splits[m + 1]
            out[:, m, :] = pairwise_sq_l2_gemm(q[:, lo:hi], cb)
        return out

    def nbytes(self) -> int:
        return int(sum(c.nbytes for c in self.codebooks))

    def params(self) -> dict[str, np.ndarray]:
        return {f"codebook_{m}": c for m, c in enumerate(self.codebooks)}

    @classmethod
    def from_params(cls, data: dict[str, np.ndarray]) -> "ProductQuantizer":
        books = []
        m = 0
        while f"codebook_{m}" in data:
            books.append(data[f"codebook_{m}"])
            m += 1
        return cls(books)


class QuantizedStore:
    """A quantized copy of the point matrix plus everything ADC needs.

    The store lives beside (hot path) or instead of (cold storage) the
    float32 matrix: ``codes`` is the ``(n, M)`` uint8 code matrix the
    microkernels gather from, ``quantizer`` holds the trained parameters,
    and :meth:`luts` builds the per-query tables that
    :func:`repro.kernels.distance.adc_l2_query_gather` consumes.

    Under churn (see ``docs/quantization.md``) the store is versioned
    with the mutable index's snapshot epoch: inserted rows are encoded
    against the *frozen* trained parameters (:meth:`encode` +
    :meth:`with_codes` - no retrain on the hot path), encode drift is
    tracked as :meth:`reconstruction_mse` against the training-time
    baseline :attr:`train_mse`, and compaction retrains via :meth:`fit`
    on the surviving distribution.
    """

    def __init__(
        self,
        spec: str,
        quantizer: Any,
        codes: np.ndarray,
        *,
        train_mse: float | None = None,
    ) -> None:
        self.spec = parse_quantization(spec).spec
        self.quantizer = quantizer
        self.codes = np.ascontiguousarray(codes, dtype=np.uint8)
        #: training-time reconstruction MSE - the drift baseline; ``None``
        #: for stores persisted before drift tracking existed
        self.train_mse = None if train_mse is None else float(train_mse)
        if self.codes.ndim != 2 or self.codes.shape[1] != quantizer.subspaces:
            raise DataError(
                f"codes shape {self.codes.shape} does not match "
                f"{quantizer.subspaces} sub-spaces"
            )

    # -- construction -----------------------------------------------------------

    @classmethod
    def fit(cls, x: np.ndarray, spec: str, seed: RngStream = None) -> "QuantizedStore":
        """Train the quantizer named by ``spec`` on ``x`` and encode it."""
        kind, m, canon = parse_quantization(spec)
        if kind == "none":
            raise ConfigurationError("QuantizedStore.fit() needs sq8 or pq<M>, not 'none'")
        if kind == "sq8":
            quantizer: Any = ScalarQuantizer.fit(x)
        else:
            quantizer = ProductQuantizer.fit(x, m, seed=seed)
        codes = quantizer.encode(x)
        store = cls(canon, quantizer, codes)
        store.train_mse = store.reconstruction_mse(x, codes)
        return store

    def with_codes(self, codes: np.ndarray) -> "QuantizedStore":
        """A new store over ``codes`` sharing this store's frozen quantizer.

        The epoch-versioning primitive: the mutable index publishes each
        insert as ``store.with_codes(concat(store.codes, new_codes))`` -
        parameters (and the drift baseline) are shared by reference, so
        existing codes are bit-stable across flips and no retrain happens
        on the write path.
        """
        return QuantizedStore(
            self.spec, self.quantizer, codes, train_mse=self.train_mse
        )

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Encode rows with the *frozen* trained parameters (no retrain)."""
        return self.quantizer.encode(x)

    def reconstruction_mse(
        self, x: np.ndarray, codes: np.ndarray | None = None
    ) -> float:
        """Mean squared reconstruction error of ``x`` under this quantizer.

        Compared against :attr:`train_mse` this is the *encode drift*
        signal: a batch drawn from the training distribution reconstructs
        at ~baseline MSE, while a shifted batch (codes clipped at the sq8
        grid edge, centroids far from the pq sub-vectors) reconstructs
        measurably worse - the gauge the mutable index exports and the
        trigger for drift-forced compaction.
        """
        x = _check_points(x)
        if codes is None:
            codes = self.quantizer.encode(x)
        total = 0.0
        for s, e in blockwise_ranges(x.shape[0], _ENCODE_BLOCK):
            diff = self.quantizer.decode(codes[s:e]) - x[s:e]
            total += float(np.sum(np.square(diff, out=diff)))
        return total / float(x.shape[0] * x.shape[1])

    def drift_ratio(self, batch_mse: float) -> float | None:
        """``batch_mse`` relative to the training baseline (``None`` when
        the baseline is unknown or degenerate-zero)."""
        if not self.train_mse:
            return None
        return float(batch_mse) / self.train_mse

    # -- properties -------------------------------------------------------------

    @property
    def kind(self) -> str:
        """``"sq8"`` or ``"pq"`` - which scoring kernel fits this store.

        sq8 candidates score fastest by decode-and-subtract
        (:func:`repro.kernels.distance.sq8_l2_query_gather`: one byte
        gathered per dimension, no tables); pq candidates score by
        table-lookup ADC (``M`` lookups instead of ``d`` float ops).
        """
        return parse_quantization(self.spec)[0]

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @property
    def dim(self) -> int:
        return int(self.quantizer.dim)

    @property
    def subspaces(self) -> int:
        return int(self.quantizer.subspaces)

    @property
    def ksub(self) -> int:
        return int(self.quantizer.ksub)

    def nbytes(self) -> int:
        """Bytes held by the compressed tier (codes + parameters)."""
        return int(self.codes.nbytes) + int(self.quantizer.nbytes())

    def memory_stats(self) -> dict[str, Any]:
        """The memory-math summary the benchmarks and docs report."""
        full = 4 * self.n * self.dim
        return {
            "quantization": self.spec,
            "n": self.n,
            "dim": self.dim,
            "float32_bytes": int(full),
            "quantized_bytes": self.nbytes(),
            "code_bytes": int(self.codes.nbytes),
            "param_bytes": int(self.quantizer.nbytes()),
            "reduction": float(full) / float(max(1, self.nbytes())),
        }

    # -- scoring ----------------------------------------------------------------

    def luts(self, queries: np.ndarray) -> np.ndarray:
        """ADC lookup tables for a query block: ``(m, M, ksub)`` float32."""
        return self.quantizer.luts(queries)

    def decode(self, ids: np.ndarray | None = None) -> np.ndarray:
        """Reconstructed float32 vectors (all rows, or the listed ids)."""
        codes = self.codes if ids is None else self.codes[np.asarray(ids)]
        return self.quantizer.decode(codes)

    # -- persistence ------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist spec, codes, quantizer parameters and the drift
        baseline as one ``.npz``."""
        extra: dict[str, np.ndarray] = {}
        if self.train_mse is not None:
            extra["train_mse"] = np.float64(self.train_mse)
        np.savez_compressed(
            path,
            spec=np.array(self.spec),
            codes=self.codes,
            **extra,
            **self.quantizer.params(),
        )

    @classmethod
    def load(cls, path: str | Path) -> "QuantizedStore":
        _meta_keys = ("spec", "codes", "train_mse")
        with np.load(path) as data:
            spec = str(data["spec"])
            kind = parse_quantization(spec).kind
            arrays = {k: data[k] for k in data.files if k not in _meta_keys}
            if kind == "sq8":
                quantizer: Any = ScalarQuantizer.from_params(arrays)
            else:
                quantizer = ProductQuantizer.from_params(arrays)
            train_mse = (
                float(data["train_mse"]) if "train_mse" in data.files else None
            )
            return cls(spec, quantizer, data["codes"], train_mse=train_mse)
