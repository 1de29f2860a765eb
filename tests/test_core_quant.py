"""The compressed memory tier: quantizers, ADC kernels, engine integration."""

import numpy as np
import pytest

from repro.apps.search import GraphSearchIndex, SearchConfig
from repro.core.quant import (
    KSUB_MAX,
    ProductQuantizer,
    QuantizedStore,
    ScalarQuantizer,
    parse_quantization,
)
from repro.data.synthetic import gaussian_mixture
from repro.errors import ConfigurationError, DataError
from repro.kernels.distance import (
    adc_l2_query_gather,
    sq8_l2_query_gather,
    sq_l2_query_gather,
)


@pytest.fixture(scope="module")
def points():
    return gaussian_mixture(400, 16, n_clusters=5, seed=11)


@pytest.fixture(scope="module")
def queries():
    return gaussian_mixture(20, 16, n_clusters=5, seed=13)


class TestParseQuantization:
    def test_known_specs(self):
        assert parse_quantization("none") == ("none", 0, "none")
        assert parse_quantization("sq8") == ("sq8", 0, "sq8")
        assert parse_quantization("pq8") == ("pq", 8, "pq8")
        assert parse_quantization("") == ("none", 0, "none")  # unset field

    def test_returns_canonical_spec(self):
        # the .spec field is what config equality and persisted stores
        # compare against, so it must be normalised, not the raw input
        assert parse_quantization("NONE").spec == "none"
        assert parse_quantization(" sq8 ").spec == "sq8"
        assert parse_quantization("PQ8").spec == "pq8"
        assert parse_quantization("pq08").spec == "pq8"

    @pytest.mark.parametrize(
        "spec",
        ["pq0", "pq-1", "pqx", "int4", "sq4",
         # int() tolerates sign/whitespace; the parser must not
         "pq+8", "pq 8", "pq8 x", "pq_8"],
    )
    def test_rejects_unknown(self, spec):
        with pytest.raises(ConfigurationError):
            parse_quantization(spec)

    def test_config_objects_store_canonical_spec(self):
        assert SearchConfig(quantization="NONE").quantization == "none"
        assert SearchConfig(quantization=" sq8 ").quantization == "sq8"


class TestScalarQuantizer:
    def test_roundtrip_error_bounded_by_half_step(self, points):
        sq = ScalarQuantizer.fit(points)
        decoded = sq.decode(sq.encode(points))
        # rounding to the nearest grid point: error <= scale/2 per dim
        err = np.abs(decoded - points)
        assert np.all(err <= sq.scale / 2 + 1e-5)

    def test_constant_dimension_is_exact(self):
        x = np.ones((10, 3), dtype=np.float32)
        x[:, 1] = np.linspace(0, 1, 10)
        sq = ScalarQuantizer.fit(x)
        decoded = sq.decode(sq.encode(x))
        assert np.allclose(decoded[:, 0], 1.0)
        assert np.allclose(decoded[:, 2], 1.0)

    def test_codes_span_full_range(self, points):
        codes = ScalarQuantizer.fit(points).encode(points)
        assert codes.dtype == np.uint8
        assert codes.min() == 0
        assert codes.max() == KSUB_MAX - 1


class TestProductQuantizer:
    def test_roundtrip_tighter_than_global_centroid(self, points):
        pq = ProductQuantizer.fit(points, 4, seed=0)
        decoded = pq.decode(pq.encode(points))
        mse = float(np.mean((decoded - points) ** 2))
        baseline = float(np.mean((points - points.mean(axis=0)) ** 2))
        assert mse < 0.25 * baseline  # 256 centroids/sub-space >> 1 global

    def test_uneven_subspace_split(self, points):
        pq = ProductQuantizer.fit(points, 3, seed=0)  # 16 dims / 3 spaces
        assert pq.subspaces == 3
        assert pq.encode(points).shape == (points.shape[0], 3)
        assert pq.decode(pq.encode(points)).shape == points.shape

    def test_ksub_clamps_to_n(self):
        x = gaussian_mixture(40, 8, n_clusters=2, seed=1)
        pq = ProductQuantizer.fit(x, 2, seed=0)
        assert pq.ksub == 40
        assert pq.encode(x).max() < 40


class TestAdcParity:
    """ADC scoring must agree with exact distances to the decoded vectors."""

    @pytest.mark.parametrize("spec", ["sq8", "pq4"])
    def test_lut_adc_matches_decoded_exact(self, points, queries, spec):
        store = QuantizedStore.fit(points, spec, seed=0)
        cand = np.tile(np.arange(30, dtype=np.int64), (queries.shape[0], 1))
        approx = adc_l2_query_gather(store.luts(queries), store.codes, cand)
        exact = sq_l2_query_gather(queries, store.decode(), cand)
        assert np.allclose(approx, exact, rtol=1e-4, atol=1e-4)

    def test_sq8_decode_gather_matches_decoded_exact(self, points, queries):
        store = QuantizedStore.fit(points, "sq8", seed=0)
        cand = np.tile(np.arange(30, dtype=np.int64), (queries.shape[0], 1))
        got = sq8_l2_query_gather(
            store.codes, store.quantizer.lo, store.quantizer.scale,
            queries, cand,
        )
        exact = sq_l2_query_gather(queries, store.decode(), cand)
        assert np.allclose(got, exact, rtol=1e-5, atol=1e-5)

    def test_invalid_slots_score_inf(self, points, queries):
        store = QuantizedStore.fit(points, "pq4", seed=0)
        cand = np.full((queries.shape[0], 4), -1, dtype=np.int64)
        cand[:, 0] = 7
        out = adc_l2_query_gather(store.luts(queries), store.codes, cand)
        assert np.all(np.isfinite(out[:, 0]))
        assert np.all(np.isinf(out[:, 1:]))

    def test_lut_rows_indirection(self, points, queries):
        """Scoring through a row-indirection vector equals scoring against
        the compacted tables directly (the engine's no-copy compaction)."""
        store = QuantizedStore.fit(points, "pq4", seed=0)
        luts = store.luts(queries)
        keep = np.array([3, 7, 11, 15])
        cand = np.tile(np.arange(20, dtype=np.int64), (keep.size, 1))
        via_copy = adc_l2_query_gather(luts[keep], store.codes, cand)
        via_rows = adc_l2_query_gather(luts, store.codes, cand, lut_rows=keep)
        assert np.array_equal(via_copy, via_rows)


class TestQuantizedStore:
    def test_memory_stats_reduction(self, points):
        store = QuantizedStore.fit(points, "pq4", seed=0)
        stats = store.memory_stats()
        assert stats["float32_bytes"] == points.nbytes
        assert stats["quantized_bytes"] == stats["code_bytes"] + stats["param_bytes"]
        assert stats["reduction"] == pytest.approx(
            points.nbytes / stats["quantized_bytes"]
        )
        # codes alone shrink by 4*d/M; at this tiny n the fixed codebook
        # cost dominates quantized_bytes, so assert the code-level ratio
        assert points.nbytes / stats["code_bytes"] == pytest.approx(16.0)

    def test_kind_property(self, points):
        assert QuantizedStore.fit(points, "sq8").kind == "sq8"
        assert QuantizedStore.fit(points, "pq4", seed=0).kind == "pq"

    @pytest.mark.parametrize("spec", ["sq8", "pq4"])
    def test_save_load_roundtrip(self, points, spec, tmp_path):
        store = QuantizedStore.fit(points, spec, seed=0)
        store.save(tmp_path / "q.npz")
        loaded = QuantizedStore.load(tmp_path / "q.npz")
        assert loaded.spec == spec
        assert np.array_equal(loaded.codes, store.codes)
        assert np.allclose(loaded.decode(), store.decode())

    def test_codes_shape_validated(self, points):
        quantizer = ScalarQuantizer.fit(points)
        with pytest.raises(DataError):
            QuantizedStore("sq8", quantizer, np.zeros((4, 3), dtype=np.uint8))

    def test_spec_canonicalised(self, points):
        assert QuantizedStore.fit(points, " SQ8 ").spec == "sq8"
        assert QuantizedStore.fit(points, "pq04", seed=0).spec == "pq4"

    def test_scalar_fit_has_no_seed(self, points):
        # the old signature accepted (and silently ignored) seed=...;
        # min/max fitting is deterministic so the parameter is gone
        with pytest.raises(TypeError):
            ScalarQuantizer.fit(points, seed=0)

    @pytest.mark.parametrize("spec", ["sq8", "pq4"])
    def test_train_mse_baseline_round_trips(self, points, spec, tmp_path):
        store = QuantizedStore.fit(points, spec, seed=0)
        assert store.train_mse is not None and store.train_mse >= 0.0
        store.save(tmp_path / "q.npz")
        loaded = QuantizedStore.load(tmp_path / "q.npz")
        assert loaded.train_mse == pytest.approx(store.train_mse)
        # same data as training -> drift ratio ~1; a shifted batch drifts
        assert store.drift_ratio(
            store.reconstruction_mse(points)) == pytest.approx(1.0)
        shifted = points * 4.0 + 10.0
        assert store.drift_ratio(store.reconstruction_mse(shifted)) > 1.0

    def test_with_codes_shares_frozen_quantizer(self, points):
        store = QuantizedStore.fit(points, "sq8")
        extra = store.encode(points[:32])
        grown = store.with_codes(np.concatenate([store.codes, extra]))
        assert grown.quantizer is store.quantizer
        assert grown.train_mse == store.train_mse
        assert grown.n == store.n + 32
        assert np.array_equal(grown.codes[:store.n], store.codes)


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def base(self, points):
        return GraphSearchIndex.build(
            points, k=8, search_config=SearchConfig(ef=32), seed=0
        )

    @pytest.mark.parametrize("spec", ["sq8", "pq4"])
    def test_emitted_distances_are_full_precision(self, points, queries, base, spec):
        index = GraphSearchIndex.from_parts(
            points, base.graph, base.forest,
            SearchConfig(ef=32, quantization=spec),
        )
        ids, dists = index.search(queries, 5)
        valid = ids >= 0
        exact = sq_l2_query_gather(
            index._prepare_queries(queries), index.points,
            np.where(valid, ids, -1).astype(np.int64),
        )
        assert np.allclose(
            np.where(valid, dists, 0.0), np.where(valid, exact, 0.0),
            rtol=1e-5, atol=1e-5,
        )
        assert index.stats()["rerank_evals"] > 0

    def test_quantized_recall_close_to_float32(self, points, queries, base):
        ids_f32, _ = base.search(queries, 5)
        index = GraphSearchIndex.from_parts(
            points, base.graph, base.forest,
            SearchConfig(ef=32, quantization="sq8"),
        )
        ids_q, _ = index.search(queries, 5)
        overlap = np.mean([
            np.intersect1d(ids_q[i], ids_f32[i]).size / 5
            for i in range(queries.shape[0])
        ])
        assert overlap >= 0.9

    def test_codebooks_persist_through_index(self, points, queries, base, tmp_path):
        index = GraphSearchIndex.from_parts(
            points, base.graph, base.forest,
            SearchConfig(ef=32, quantization="pq4"),
        )
        ids, dists = index.search(queries, 5)
        index.save(tmp_path / "idx")
        assert (tmp_path / "idx" / "quant.npz").exists()
        loaded = GraphSearchIndex.load(tmp_path / "idx")
        assert np.array_equal(
            loaded.store.codes, index.store.codes
        )
        ids2, dists2 = loaded.search(queries, 5)
        assert np.array_equal(ids, ids2)
        assert np.array_equal(dists, dists2)

    def test_memory_stats_reports_tier(self, points, base):
        index = GraphSearchIndex.from_parts(
            points, base.graph, base.forest,
            SearchConfig(ef=32, quantization="sq8"),
        )
        stats = index.memory_stats()
        assert stats["quantization"] == "sq8"
        assert stats["reduction"] > 3.0
        assert base.memory_stats()["quantization"] == "none"

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            SearchConfig(quantization="pq0")
        with pytest.raises(ConfigurationError):
            SearchConfig(rerank=-1)

    def test_uncanonical_none_builds_no_store(self, points, base):
        # the regression: raw "NONE" survived __post_init__ and tripped
        # the != "none" check in _attach, fitting a store that the sq8
        # kernel path then rejected at query time
        index = GraphSearchIndex.from_parts(
            points, base.graph, base.forest,
            SearchConfig(ef=32, quantization="NONE"),
        )
        assert index.store is None
        index.search(points[:4], 3)

    def test_uncanonical_spec_matches_persisted_store(
            self, points, base, tmp_path):
        index = GraphSearchIndex.from_parts(
            points, base.graph, base.forest,
            SearchConfig(ef=32, quantization=" sq8 "),
        )
        index.save(tmp_path / "idx")
        loaded = GraphSearchIndex.load(tmp_path / "idx")
        # spec equality must hold, so the saved codes are reused verbatim
        assert loaded.config.quantization == "sq8"
        assert np.array_equal(loaded.store.codes, index.store.codes)
