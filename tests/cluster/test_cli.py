"""End-to-end `repro cluster` CLI tests."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from tests.serve.util import SQL


class TestClusterCommand:
    def test_cluster_verify_exact(self, tmp_path, capsys):
        code = main([
            "cluster", SQL,
            "--nodes", "3",
            "--duration", "5",
            "--rate", "100",
            "--batch", "64",
            "--state-dir", str(tmp_path),
            "--verify",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exact_match"] is True
        assert report["nodes"] == 3
        assert report["tuples_in"] == report["rows"] > 0
        assert report["rows_lost"] == 0
        assert sum(report["per_node_rows"].values()) == report["rows"]

    def test_cluster_replays_a_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = main([
            "trace",
            "--duration", "5",
            "--rate", "50",
            "--out", str(trace),
        ])
        assert code == 0
        capsys.readouterr()
        code = main([
            "cluster", SQL,
            "--nodes", "2",
            "--trace", str(trace),
            "--state-dir", str(tmp_path / "state"),
            "--verify",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exact_match"] is True
        assert report["nodes"] == 2

    @pytest.mark.parametrize("batch", ["0", "-1"])
    def test_a_frame_size_below_one_fails(self, tmp_path, capsys, batch):
        code = main([
            "cluster", SQL,
            "--nodes", "1",
            "--duration", "1",
            "--rate", "10",
            "--batch", batch,
            "--state-dir", str(tmp_path),
        ])
        assert code == 2
        assert "batch_size must be >= 1" in capsys.readouterr().err
