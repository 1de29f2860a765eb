"""Tests for recall, quality metrics and experiment records."""

import json

import numpy as np
import pytest

from repro.core.graph import KNNGraph
from repro.errors import DataError
from repro.metrics.quality import distance_ratio, edge_overlap
from repro.metrics.recall import knn_recall, per_point_recall
from repro.metrics.records import ExperimentRecord, RecordSet


class TestRecall:
    def test_perfect(self):
        ids = np.array([[1, 2], [0, 2]])
        assert knn_recall(ids, ids) == 1.0

    def test_order_irrelevant(self):
        a = np.array([[1, 2], [3, 4]])
        b = np.array([[2, 1], [4, 3]])
        assert knn_recall(a, b) == 1.0

    def test_zero(self):
        a = np.array([[1, 2]])
        b = np.array([[3, 4]])
        assert knn_recall(a, b) == 0.0

    def test_partial(self):
        a = np.array([[1, 2, 3, 9]])
        b = np.array([[1, 2, 3, 4]])
        assert knn_recall(a, b) == 0.75

    def test_per_point_vector(self):
        a = np.array([[1, 2], [5, 6]])
        b = np.array([[1, 2], [7, 8]])
        assert per_point_recall(a, b).tolist() == [1.0, 0.0]

    def test_k_truncation_to_smaller(self):
        approx = np.array([[1, 2]])
        exact = np.array([[1, 2, 3, 4]])
        assert knn_recall(approx, exact) == 1.0  # judged on first 2 exact

    def test_unfilled_slots_dont_match(self):
        a = np.array([[-1, -1]])
        b = np.array([[1, 2]])
        assert knn_recall(a, b) == 0.0

    def test_row_count_mismatch(self):
        with pytest.raises(DataError):
            knn_recall(np.zeros((2, 2), dtype=int), np.zeros((3, 2), dtype=int))

    def test_1d_rejected(self):
        with pytest.raises(DataError):
            knn_recall(np.zeros(3, dtype=int), np.zeros((3, 2), dtype=int))

    def test_large_random_matches_naive(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 1000, (50, 10))
        b = rng.integers(0, 1000, (50, 10))
        naive = np.mean([len(set(x) & set(y)) / 10 for x, y in zip(a, b)])
        # naive double-counts duplicate ids; restrict to unique rows
        a = np.array([np.random.default_rng(i).permutation(1000)[:10] for i in range(50)])
        b = np.array([np.random.default_rng(i + 99).permutation(1000)[:10] for i in range(50)])
        naive = np.mean([len(set(x) & set(y)) / 10 for x, y in zip(a, b)])
        assert knn_recall(a, b) == pytest.approx(naive)


class TestQuality:
    def _graph(self, ids, dists):
        return KNNGraph(ids=np.asarray(ids, dtype=np.int32),
                        dists=np.asarray(dists, dtype=np.float32))

    def test_distance_ratio_identity(self):
        g = self._graph([[1, 2]], [[1.0, 2.0]])
        assert distance_ratio(g, g) == pytest.approx(1.0)

    def test_distance_ratio_worse_graph(self):
        exact = self._graph([[1, 2]], [[1.0, 1.0]])
        approx = self._graph([[3, 4]], [[4.0, 4.0]])
        assert distance_ratio(approx, exact) == pytest.approx(2.0)  # sqrt(4)

    def test_distance_ratio_size_mismatch(self):
        g1 = self._graph([[1]], [[1.0]])
        g2 = self._graph([[1], [0]], [[1.0], [1.0]])
        with pytest.raises(DataError):
            distance_ratio(g1, g2)

    def test_edge_overlap(self):
        g1 = self._graph([[1, 2]], [[1.0, 2.0]])
        g2 = self._graph([[2, 3]], [[1.0, 2.0]])
        assert edge_overlap(g1, g2) == pytest.approx(0.5)


class TestRecords:
    def test_add_and_iterate(self):
        rs = RecordSet()
        rs.add("T1", {"d": 8}, {"recall": 0.9})
        rs.add("T1", {"d": 16}, {"recall": 0.95})
        assert len(rs) == 2
        assert all(isinstance(r, ExperimentRecord) for r in rs)

    def test_flat_merges_fields(self):
        rec = ExperimentRecord("T1", {"a": 1}, {"b": 2})
        assert rec.flat() == {"experiment": "T1", "a": 1, "b": 2}

    def test_columns_union_in_order(self):
        rs = RecordSet()
        rs.add("e", {"a": 1}, {})
        rs.add("e", {"b": 2}, {})
        assert rs.columns() == ["experiment", "a", "b"]

    def test_json_round_trip(self):
        rs = RecordSet()
        rs.add("e", {"x": 1}, {"y": 2.5})
        data = json.loads(rs.to_json())
        assert data[0]["x"] == 1 and data[0]["y"] == 2.5

    def test_table_renders(self):
        rs = RecordSet()
        rs.add("e", {"param": 10}, {"metric": 0.12345})
        table = rs.to_table()
        assert "param" in table and "0.1234" in table or "0.1235" in table

    def test_empty_table(self):
        assert RecordSet().to_table() == "(no records)"
