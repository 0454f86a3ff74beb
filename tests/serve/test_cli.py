"""CLI coverage for ``repro serve`` and ``repro client ...``.

The server command runs via ``main()`` on a background thread with
``--run-seconds`` and ``--port-file`` — the same supervision hooks a
script or CI job would use — while the client commands run in-process
so their stdout is capturable.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cli import main, read_trace_csv
from repro.workloads.netflow import PACKET_SCHEMA
from tests.serve.util import canon, expected_rows

SERVE_SQL = (
    "select tb, destIP, count(*) as c from TCP group by time/60 as tb, destIP"
)


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.csv"
    assert main([
        "trace", "--duration", "2", "--rate", "300", "--proto", "tcp",
        "--seed", "7", "--out", str(path),
    ]) == 0
    return path


@pytest.fixture
def served_port(tmp_path):
    """A `repro serve` instance on a background thread; yields its port."""
    port_file = tmp_path / "port.txt"
    state_dir = tmp_path / "state"
    exit_codes: list[int] = []

    def run_server() -> None:
        exit_codes.append(main([
            "serve", SERVE_SQL,
            "--shards", "2",
            "--state-dir", str(state_dir),
            "--port-file", str(port_file),
            "--run-seconds", "20",
        ]))

    thread = threading.Thread(target=run_server, daemon=True)
    thread.start()
    deadline = time.monotonic() + 15
    # The file is created before its line is written: wait for the line.
    def written() -> bool:
        return port_file.exists() and port_file.read_text().endswith("\n")

    while not written() and time.monotonic() < deadline:
        time.sleep(0.02)
    assert written(), "server never wrote its port file"
    host, port = port_file.read_text().split()
    yield port
    # the --run-seconds timer ends the server eventually; don't wait for it


class TestServeCommand:
    def test_replay_query_checkpoint_stats(
        self, served_port, trace_file, capsys
    ):
        assert main([
            "client", "replay", "--port", served_port,
            "--trace", str(trace_file), "--batch", "128",
        ]) == 0
        assert "replayed 600 rows" in capsys.readouterr().out

        assert main(["client", "query", "--port", served_port]) == 0
        out = capsys.readouterr().out
        served = [eval(line) for line in out.strip().splitlines()]
        trace = read_trace_csv(str(trace_file), PACKET_SCHEMA)
        assert canon(served) == canon(expected_rows(SERVE_SQL, trace))

        assert main(["client", "checkpoint", "--port", served_port]) == 0
        assert "checkpoint written to" in capsys.readouterr().out

        assert main(["client", "stats", "--port", served_port]) == 0
        stats_out = capsys.readouterr().out
        assert '"rows_total": 600' in stats_out
        assert '"backend": "sharded"' in stats_out

    def test_subscribe_command(self, served_port, trace_file, capsys):
        assert main([
            "client", "replay", "--port", served_port,
            "--trace", str(trace_file),
        ]) == 0
        capsys.readouterr()
        assert main([
            "client", "subscribe", "--port", served_port,
            "--interval", "0.05", "--count", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "-- push 1/2" in out
        assert "-- push 2/2 (final)" in out

    def test_replay_with_inline_query(self, served_port, trace_file, capsys):
        assert main([
            "client", "replay", "--port", served_port,
            "--trace", str(trace_file), "--query",
        ]) == 0
        out = capsys.readouterr().out
        assert "replayed" in out
        assert "destIP" in out  # result rows printed after the replay


class TestClientErrors:
    def test_connection_refused_is_a_clean_error(self, capsys):
        # a port from the dynamic range with (almost surely) no listener
        assert main(["client", "query", "--port", "1"]) == 2
        err = capsys.readouterr().err
        assert "cannot connect" in err


class TestServeStartupErrors:
    def test_unknown_order_by_alias_stops_serve_before_it_listens(self, capsys):
        # HAVING / ORDER BY compile when the engine is built, so a bad
        # alias is a start-up error — not the first client's query-failed.
        assert main([
            "serve", SERVE_SQL + " order by nosuch", "--port", "0",
            "--run-seconds", "0.1",
        ]) == 2
        captured = capsys.readouterr()
        assert "nosuch" in captured.err
        assert "serving on" not in captured.out
