"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main, make_parser


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_build_defaults(self):
        args = make_parser().parse_args(["build", "--dataset", "gaussian",
                                         "-o", "x.npz"])
        assert args.k == 16 and args.strategy == "tiled"

    def test_bad_strategy_rejected(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["build", "--strategy", "magic",
                                      "-o", "x.npz"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "atomic" in out and "tiled" in out

    def test_build_eval_round_trip(self, tmp_path, capsys):
        graph_path = tmp_path / "g.npz"
        rc = main([
            "build", "--dataset", "gaussian", "--n", "500", "--dim", "8",
            "-k", "5", "--trees", "3", "-o", str(graph_path),
        ])
        assert rc == 0 and graph_path.exists()
        rc = main([
            "eval", "--dataset", "gaussian", "--n", "500", "--dim", "8",
            "--graph", str(graph_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recall@5" in out

    def test_build_from_npy(self, tmp_path, capsys):
        pts = tmp_path / "pts.npy"
        np.save(pts, np.random.default_rng(0).standard_normal((300, 6)).astype(np.float32))
        rc = main(["build", "--input", str(pts), "-k", "4",
                   "-o", str(tmp_path / "g.npz")])
        assert rc == 0

    def test_build_from_fvecs(self, tmp_path):
        from repro.data.loaders import write_fvecs

        pts = tmp_path / "pts.fvecs"
        write_fvecs(pts, np.random.default_rng(0).standard_normal((200, 5)).astype(np.float32))
        rc = main(["build", "--input", str(pts), "-k", "4",
                   "-o", str(tmp_path / "g.npz")])
        assert rc == 0

    def test_missing_data_source(self, tmp_path):
        with pytest.raises(SystemExit, match="provide"):
            main(["build", "-o", str(tmp_path / "g.npz"), "--dataset", ""])

    def test_unsupported_input_format(self, tmp_path):
        bad = tmp_path / "pts.csv"
        bad.write_text("1,2\n")
        with pytest.raises(SystemExit, match="unsupported"):
            main(["build", "--input", str(bad), "-o", str(tmp_path / "g.npz")])

    def test_eval_size_mismatch(self, tmp_path):
        graph_path = tmp_path / "g.npz"
        main(["build", "--dataset", "gaussian", "--n", "300", "--dim", "6",
              "-k", "4", "-o", str(graph_path)])
        with pytest.raises(SystemExit, match="nodes"):
            main(["eval", "--dataset", "gaussian", "--n", "200", "--dim", "6",
                  "--graph", str(graph_path)])

    def test_bench_small(self, capsys):
        rc = main(["bench", "--workload", "clustered-16d", "--target", "0.8",
                   "--scale", "0.02", "--strategy", "atomic"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "modeled speedup" in out

    def test_search_save_load_round_trip(self, tmp_path, capsys):
        idx_dir = tmp_path / "idx"
        rc = main([
            "search", "--dataset", "gaussian", "--n", "600", "--dim", "8",
            "--queries", "50", "--topk", "5", "--ef", "24",
            "--save-index", str(idx_dir),
        ])
        assert rc == 0 and idx_dir.exists()
        out = capsys.readouterr().out
        assert "batched" in out and "recall@5" in out
        rc = main(["search", "--load-index", str(idx_dir),
                   "--queries", "20", "--topk", "3"])
        assert rc == 0
        assert "recall@3" in capsys.readouterr().out

    def test_search_cosine(self, capsys):
        rc = main(["search", "--dataset", "gaussian", "--n", "400",
                   "--dim", "8", "--metric", "cosine", "--queries", "30"])
        assert rc == 0
        assert "cosine" in capsys.readouterr().out

    def test_serve_closed_loop(self, tmp_path, capsys):
        trace = tmp_path / "serve.jsonl"
        rc = main([
            "serve", "--dataset", "gaussian", "--n", "500", "--dim", "8",
            "--queries", "40", "--topk", "5", "--clients", "4",
            "--max-batch", "8", "--max-wait-ms", "1", "--cache-size", "64",
            "--trace-out", str(trace),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "q/s" in out and "p99" in out
        assert trace.exists()
        from repro.obs.export import read_trace

        metrics = read_trace(trace).metrics.section("serve/")
        assert metrics["latency_seconds"]["count"] > 0

    def test_serve_load_index(self, tmp_path, capsys):
        idx_dir = tmp_path / "idx"
        main(["search", "--dataset", "gaussian", "--n", "500", "--dim", "8",
              "--save-index", str(idx_dir)])
        capsys.readouterr()
        rc = main(["serve", "--load-index", str(idx_dir),
                   "--queries", "30", "--topk", "4", "--clients", "2"])
        assert rc == 0
        assert "q/s" in capsys.readouterr().out

    def test_loadgen_open_loop(self, capsys):
        rc = main([
            "loadgen", "--dataset", "gaussian", "--n", "500", "--dim", "8",
            "--queries", "40", "--topk", "5", "--rate", "300",
            "--duration", "0.5", "--deadline-ms", "100",
            "--queue-limit", "32", "--max-batch", "8",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "offered" in out and "deadline_violations=0" in out


class TestNeighborsCommand:
    def test_knn_edges_with_dbscan_npz(self, tmp_path, capsys):
        out_npz = tmp_path / "edges.npz"
        rc = main([
            "neighbors", "--dataset", "gaussian", "--n", "400", "--dim", "8",
            "--topk", "5", "--dbscan-eps", "3.0", "--dbscan-min-pts", "4",
            "-o", str(out_npz),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "knn_graph(k=5)" in out and "edges/s" in out
        assert "knn-dbscan" in out
        payload = np.load(out_npz)
        assert payload["edge_index"].shape == (2, 400 * 5)
        assert payload["edge_index"].dtype == np.int64
        assert payload["dists"].shape == (400 * 5,)
        assert payload["labels"].shape == (400,)

    def test_radius_through_cluster(self, capsys):
        rc = main([
            "neighbors", "--dataset", "gaussian", "--n", "300", "--dim", "8",
            "--topk", "4", "--radius", "8.0", "--query-limit", "100",
            "--shards", "2", "--cluster-backend", "thread",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "radius_graph(r=8.0" in out

    def test_query_limit_caps_targets(self, tmp_path, capsys):
        out_npz = tmp_path / "edges.npz"
        rc = main([
            "neighbors", "--dataset", "gaussian", "--n", "300", "--dim", "8",
            "--topk", "3", "--query-limit", "50", "-o", str(out_npz),
        ])
        assert rc == 0
        edges = np.load(out_npz)["edge_index"]
        assert edges.shape == (2, 150)
        assert edges[1].max() < 50
