"""End-to-end tests of the CSV indexing tool (repro.tool)."""

from __future__ import annotations

import random

import pytest

from repro.tool.cli import main
from repro.tool.storage import load_index


@pytest.fixture
def csv_file(tmp_path):
    rng = random.Random(5)
    path = tmp_path / "points.csv"
    rows = ["name,lon,lat,size"]
    for i in range(300):
        rows.append(
            f"p{i},{rng.uniform(-10, 10):.6f},"
            f"{rng.uniform(40, 50):.6f},{rng.randrange(100)}"
        )
    rows.append("dup,0.0,45.0,1")
    rows.append("dup2,0.0,45.0,2")  # duplicate position
    rows.append("bad,not-a-number,45.0,3")  # skipped with a warning
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture
def index_file(csv_file, tmp_path):
    out = tmp_path / "points.pht"
    rc = main(
        [
            "build",
            str(csv_file),
            "--columns",
            "lon,lat",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    return out


class TestBuild:
    def test_build_reports(self, csv_file, tmp_path, capsys):
        out = tmp_path / "idx.pht"
        rc = main(
            ["build", str(csv_file), "-c", "lon,lat", "-o", str(out)]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "indexed 301 unique points" in captured.out
        assert "1 duplicate positions" in captured.out
        assert "skipping row" in captured.err
        assert out.exists()

    def test_build_missing_column(self, csv_file, tmp_path, capsys):
        rc = main(
            [
                "build",
                str(csv_file),
                "-c",
                "lon,altitude",
                "-o",
                str(tmp_path / "x.pht"),
            ]
        )
        assert rc == 2
        assert "altitude" in capsys.readouterr().err

    def test_index_round_trips(self, index_file):
        index = load_index(index_file)
        assert index.columns == ["lon", "lat"]
        assert len(index.tree) == 301
        assert index.n_duplicates == 1


class TestQuery:
    def test_box_query(self, index_file, capsys):
        rc = main(
            [
                "query",
                str(index_file),
                "--box",
                "-10,40 : 10,50",
                "--limit",
                "1000",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.splitlines()[0] == "lon,lat,row"
        assert "301 point(s) in box" in captured.err

    def test_corner_order_normalised(self, index_file, capsys):
        rc = main(
            ["query", str(index_file), "-b", "10,50 : -10,40", "-l", "5"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "301 point(s)" in captured.err
        assert "more" in captured.err  # limit 5 < 301

    def test_empty_box(self, index_file, capsys):
        rc = main(
            ["query", str(index_file), "-b", "100,100 : 101,101"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "0 point(s) in box" in captured.err

    def test_malformed_box(self, index_file, capsys):
        rc = main(["query", str(index_file), "-b", "1,2,3"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestShardedQuery:
    BOX = ["-b", "-10,40 : 10,50", "-l", "1000"]

    def _run(self, index_file, capsys, *extra):
        rc = main(["query", str(index_file), *self.BOX, *extra])
        captured = capsys.readouterr()
        assert rc == 0
        return captured.out

    def test_sharded_output_matches_serial(self, index_file, capsys):
        serial = self._run(index_file, capsys)
        sharded = self._run(index_file, capsys, "--shards", "4")
        assert sharded == serial

    def test_workers_flag_is_a_usage_error(self, index_file, capsys):
        # Every read runs in-process; there is no process-pool option.
        with pytest.raises(SystemExit) as excinfo:
            main(["query", str(index_file), *self.BOX, "--workers", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    def test_bad_shard_count(self, index_file, capsys):
        rc = main(
            ["query", str(index_file), *self.BOX, "--shards", "6"]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestKnn:
    def test_nearest(self, index_file, capsys):
        rc = main(
            ["knn", str(index_file), "--point", "0.0,45.0", "-n", "3"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.splitlines()
        assert lines[0] == "lon,lat,row,distance"
        assert len(lines) == 4
        # The duplicate position (0, 45) exists -> distance 0 first.
        assert lines[1].split(",")[3] == "0"

    def test_wrong_dims(self, index_file, capsys):
        rc = main(["knn", str(index_file), "-p", "1.0", "-n", "1"])
        assert rc == 2


class TestStats:
    def test_report(self, index_file, capsys):
        rc = main(["stats", str(index_file)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "unique points:     301" in captured.out
        assert "nodes:" in captured.out
        assert "entry/node ratio" in captured.out


class TestExport:
    def test_export_to_stdout(self, index_file, capsys):
        rc = main(["export", str(index_file)])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().splitlines()
        assert lines[0] == "lon,lat,row"
        assert len(lines) == 302  # header + 301 points
        assert "exported 301 point(s)" in captured.err

    def test_export_to_file_round_trips(
        self, index_file, tmp_path, capsys
    ):
        out_csv = tmp_path / "dump.csv"
        rc = main(["export", str(index_file), "--out", str(out_csv)])
        assert rc == 0
        capsys.readouterr()
        # Re-index the export: same unique point count.
        out_idx = tmp_path / "dump.pht"
        rc = main(
            ["build", str(out_csv), "-c", "lon,lat", "-o", str(out_idx)]
        )
        assert rc == 0
        assert "indexed 301 unique points" in capsys.readouterr().out


class TestErrors:
    def test_not_an_index(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.pht"
        bogus.write_bytes(b"garbage")
        rc = main(["stats", str(bogus)])
        assert rc == 2
        assert "not a PH-tree index" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["stats", str(tmp_path / "nope.pht")])
        assert rc == 2

    def _stats_error(self, path, data, capsys):
        path.write_bytes(data)
        rc = main(["stats", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: "), err
        return err

    def test_truncated_container(self, tmp_path, capsys):
        err = self._stats_error(tmp_path / "cut.pht", b"PHIX\x00", capsys)
        assert "malformed index file: error(" in err

    def test_metadata_missing_columns(self, tmp_path, capsys):
        metadata = b'{"source": "x", "n_rows": 0, "n_duplicates": 0}'
        data = b"PHIX" + len(metadata).to_bytes(4, "big") + metadata
        err = self._stats_error(tmp_path / "meta.pht", data, capsys)
        assert "malformed index file: KeyError('columns')" in err

    def test_truncated_tree_stream(self, index_file, tmp_path, capsys):
        data = index_file.read_bytes()
        err = self._stats_error(
            tmp_path / "short.pht", data[: len(data) - 40], capsys
        )
        assert "truncated PH-tree node stream" in err


class TestExplain:
    def test_query_explain_prints_trace(self, index_file, capsys):
        rc = main(
            [
                "query",
                str(index_file),
                "-b",
                "-10,40 : 10,50",
                "--explain",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "window query trace" in captured.out
        assert "totals:" in captured.out
        assert "nodes_visited" in captured.out
        assert "301 point(s) in box" in captured.err

    def test_knn_explain_prints_trace(self, index_file, capsys):
        rc = main(
            [
                "knn",
                str(index_file),
                "-p",
                "0.0,45.0",
                "-n",
                "3",
                "--explain",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "kNN trace" in captured.out
        assert "regions_expanded" in captured.out

    def test_explain_leaves_instrumentation_off(self, index_file, capsys):
        from repro import obs

        main(
            ["query", str(index_file), "-b", "0,44 : 1,46", "--explain"]
        )
        capsys.readouterr()
        assert not obs.is_enabled()


class TestMetrics:
    def test_prometheus_text(self, index_file, capsys):
        rc = main(["metrics", str(index_file)])
        captured = capsys.readouterr()
        assert rc == 0
        text = captured.out
        assert "# TYPE repro_ops_total counter" in text
        assert 'repro_ops_total{op="get_many"}' in text
        assert "repro_kernel_nodes_visited_total" in text
        # The registry is left clean for the rest of the process.
        from repro import obs

        assert not obs.is_enabled()

    def test_json_format_parses(self, index_file, capsys):
        import json as json_mod

        rc = main(["metrics", str(index_file), "--format", "json"])
        captured = capsys.readouterr()
        assert rc == 0
        payload = json_mod.loads(captured.out)
        assert payload["repro_ops_total"]["type"] == "counter"
        ops = {
            tuple(sorted(v["labels"].items())): v["value"]
            for v in payload["repro_ops_total"]["values"]
        }
        assert ops[(("op", "get_many"),)] >= 1

    def test_sharded_workload_moves_shard_counters(
        self, index_file, capsys
    ):
        rc = main(
            [
                "metrics",
                str(index_file),
                "--shards",
                "4",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        text = captured.out
        assert 'repro_shard_ops_total{shard="0", op="query"}' in text
        assert 'repro_shard_ops_total{shard="0", op="put"}' in text
        assert 'repro_shard_lock_wait_seconds_count{mode="read"}' in text


class TestVerbosity:
    def test_flag_before_subcommand(self, index_file, capsys):
        rc = main(["-v", "stats", str(index_file)])
        assert rc == 0
        capsys.readouterr()

    def test_flag_after_subcommand(self, index_file, capsys):
        rc = main(["stats", str(index_file), "-v"])
        assert rc == 0
        capsys.readouterr()

    def test_verbose_metrics_logs_workload(self, index_file, capsys):
        import io

        from repro.obs.log import configure_logging

        rc = main(["-v", "metrics", str(index_file)])
        captured = capsys.readouterr()
        configure_logging(0, stream=io.StringIO())
        assert rc == 0
        assert "driving single-tree workload" in captured.err


class TestHeatVerb:
    @pytest.fixture
    def cluster_index(self, tmp_path):
        from repro.datasets.cluster import generate_cluster

        csv_path = tmp_path / "cluster.csv"
        rows = ["x,y"]
        for point in generate_cluster(1500, 2, seed=0):
            rows.append(f"{point[0]!r},{point[1]!r}")
        csv_path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "cluster.pht"
        assert main(
            ["build", str(csv_path), "-c", "x,y", "-o", str(out)]
        ) == 0
        return out

    def test_histogram_output(self, index_file, capsys):
        rc = main(["heat", str(index_file), "--top", "3"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "heat map: top" in captured.out
        assert "z=" in captured.out
        assert "probed" in captured.err
        from repro import obs

        assert not obs.is_enabled()

    def test_json_output_parses(self, index_file, capsys):
        import json as json_mod

        rc = main(["heat", str(index_file), "--json", "--top", "5"])
        captured = capsys.readouterr()
        assert rc == 0
        snapshot = json_mod.loads(captured.out)
        assert snapshot
        assert snapshot[0]["count"] >= 1

    def test_cluster_centers_are_hottest(self, cluster_index, capsys):
        """Acceptance: on the skewed CLUSTER workload (seed 0) the top
        region contains the cluster line."""
        import json as json_mod

        from repro.encoding.ieee import encode_point

        rc = main(
            ["heat", str(cluster_index), "--top", "5", "--json"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        top = json_mod.loads(captured.out)[0]
        centers = [encode_point((x / 10, 0.5)) for x in range(11)]
        hit = any(
            all(
                lo <= value <= hi
                for value, (lo, hi) in zip(center, top["ranges"])
            )
            for center in centers
        )
        assert hit, top["ranges"]

    def test_levels_flag(self, index_file, capsys):
        rc = main(["heat", str(index_file), "--levels", "2"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "(2 bits/dim" in captured.out


class TestMetricsReset:
    def _json_run(self, index_file, capsys, *extra):
        import json as json_mod

        rc = main(
            ["metrics", str(index_file), "--format", "json", *extra]
        )
        captured = capsys.readouterr()
        assert rc == 0
        return json_mod.loads(captured.out)

    @staticmethod
    def _counters(payload):
        skip = ("latency", "wait", "depth", "duration")
        return {
            name: sorted(
                (tuple(sorted(v["labels"].items())), v["value"])
                for v in family["values"]
            )
            for name, family in payload.items()
            if family["type"] in ("counter", "gauge")
            and not any(part in name for part in skip)
        }

    def test_repeated_invocations_are_idempotent(
        self, index_file, capsys
    ):
        first = self._counters(self._json_run(index_file, capsys))
        second = self._counters(self._json_run(index_file, capsys))
        assert first == second

    def test_reset_flag_clears_all_telemetry(self, index_file, capsys):
        from repro import obs
        from repro.core import specialize
        from repro.obs import heat as heat_mod
        from repro.obs import recorder as recorder_mod

        self._json_run(index_file, capsys, "--reset")
        assert len(heat_mod.HEATMAP) == 0
        assert len(recorder_mod.get_recorder()) == 0
        assert specialize.PLAN_CACHE_WINDOW == [0, 0, 0]
        ops = obs.dump_json().get("repro_ops_total")
        assert all(v["value"] == 0 for v in ops["values"])

    def test_default_leaves_metrics_scrapable(self, index_file, capsys):
        from repro import obs

        self._json_run(index_file, capsys)
        ops = obs.dump_json()["repro_ops_total"]
        assert any(v["value"] > 0 for v in ops["values"])
        obs.reset_all()


class TestExplainWaterfall:
    def test_sharded_explain_prints_waterfall(self, index_file, capsys):
        rc = main(
            [
                "query",
                str(index_file),
                "-b",
                "-10,40 : 10,50",
                "--shards",
                "4",
                "--explain",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "span waterfall" in captured.out
        assert "route" in captured.out
        assert "scan" in captured.out
        assert "301 point(s) in box" in captured.err

    def test_serial_explain_keeps_node_trace(self, index_file, capsys):
        rc = main(
            [
                "query",
                str(index_file),
                "-b",
                "-10,40 : 10,50",
                "--explain",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "window query trace" in captured.out
        assert "span waterfall" not in captured.out
