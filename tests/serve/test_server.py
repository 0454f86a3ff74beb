"""End-to-end tests of the serving layer over loopback TCP.

Every test runs a real :class:`StreamServer` on a background event loop
(:class:`ThreadedServer`) and talks to it through real sockets — the same
path production clients use, shrunk to loopback.
"""

from __future__ import annotations

import pytest

from repro.core.errors import ParameterError
from repro.serve import (
    RemoteError,
    ServeClient,
    StreamServer,
    ThreadedServer,
    build_backend,
    protocol,
)
from repro.workloads.netflow import PACKET_SCHEMA
from tests.serve.util import SQL, canon, expected_rows, make_rows, serve


class TestEndToEndEquivalence:
    @pytest.mark.parametrize(
        "shards, processes",
        [
            pytest.param(0, 0, id="0"),
            pytest.param(4, 0, id="4"),
            pytest.param(4, None, id="4-processes", marks=pytest.mark.slow),
        ],
    )
    def test_served_query_matches_in_process_run(self, shards, processes):
        rows = make_rows(300)
        with serve(shards=shards, processes=processes) as server:
            with ServeClient(server.host, server.port) as client:
                for start in range(0, len(rows), 41):
                    client.insert(rows[start : start + 41])
                client.flush()
                served = client.query()
        assert canon(served) == canon(expected_rows(SQL, rows))

    def test_query_is_nondestructive(self):
        rows = make_rows(120)
        with serve() as server:
            with ServeClient(server.host, server.port) as client:
                client.insert(rows[:60])
                first = client.query()
                again = client.query()
                assert canon(first) == canon(again)
                client.insert(rows[60:])
                final = client.query()
        assert canon(final) == canon(expected_rows(SQL, rows))

    def test_multiple_connections_feed_one_engine(self):
        rows = make_rows(200)
        with serve(shards=2) as server:
            with ServeClient(server.host, server.port) as a, ServeClient(
                server.host, server.port
            ) as b:
                a.insert(rows[:100])
                b.insert(rows[100:])
                a.flush()
                b.flush()
                served = a.query()
        assert canon(served) == canon(expected_rows(SQL, rows))

    def test_schema_negotiation_accepts_matching_names(self):
        with serve() as server:
            with ServeClient(
                server.host,
                server.port,
                schema_names=PACKET_SCHEMA.names(),
            ) as client:
                assert client.server_info["schema"] == PACKET_SCHEMA.names()
                assert client.server_info["backend"] == "single"


class TestBackpressure:
    def test_welcome_grants_the_credit_window(self):
        with serve(credit_window=3) as server:
            with ServeClient(server.host, server.port) as client:
                assert client.server_info["credits"] == 3
                assert client.window == 3

    def test_credits_return_after_each_batch(self):
        rows = make_rows(90)
        with serve(credit_window=2) as server:
            with ServeClient(server.host, server.port) as client:
                for start in range(0, len(rows), 10):
                    client.insert(rows[start : start + 10])
                client.flush()
                assert client.credits == 2
                assert canon(client.query()) == canon(
                    expected_rows(SQL, rows)
                )

    def test_credit_window_must_be_positive(self):
        backend = build_backend(SQL, PACKET_SCHEMA)
        with pytest.raises(ParameterError):
            StreamServer(backend, credit_window=0)


class TestSubscriptions:
    def test_counted_subscription_pushes_and_finishes(self):
        rows = make_rows(80)
        with serve() as server:
            with ServeClient(server.host, server.port) as client:
                client.insert(rows)
                client.flush()
                client.subscribe(0.02, count=3)
                pushes = client.results(3)
        assert [p["seq"] for p in pushes] == [1, 2, 3]
        assert [p["done"] for p in pushes] == [False, False, True]
        for push in pushes:
            assert canon(push["rows"]) == canon(expected_rows(SQL, rows))

    def test_pushes_interleave_with_inserts(self):
        rows = make_rows(100)
        with serve() as server:
            with ServeClient(server.host, server.port) as client:
                client.insert(rows[:50])
                client.subscribe(0.01, count=5)
                client.insert(rows[50:])
                client.flush()
                pushes = client.results(5)
                assert len(pushes) == 5
                # the last push reflects all ingested rows
                assert canon(pushes[-1]["rows"]) == canon(
                    expected_rows(SQL, rows)
                )

    def test_bad_subscribe_parameters_rejected(self):
        with serve() as server:
            with ServeClient(server.host, server.port) as client:
                client.subscribe(-1.0)
                with pytest.raises(RemoteError) as excinfo:
                    client.query()
                assert excinfo.value.code == "bad-subscribe"


class TestStats:
    def test_stats_report_server_backend_and_metrics(self):
        from repro.obs.registry import MetricsRegistry

        rows = make_rows(64)
        backend = build_backend(SQL, PACKET_SCHEMA, shards=2, processes=0)
        server = StreamServer(backend, metrics=MetricsRegistry(enabled=True))
        with ThreadedServer(server) as threaded:
            with ServeClient(threaded.host, threaded.port) as client:
                client.insert(rows)
                client.flush()
                client.query()
                stats = client.stats()
        assert stats["server"]["rows_total"] == 64
        assert stats["server"]["connections_total"] == 1
        assert stats["backend"]["backend"] == "sharded"
        metric_names = stats["metrics"]["metrics"]
        assert "serve.ingest.rows" in metric_names
        assert "serve.frame.INSERT_COLS.us" in metric_names
        assert "serve.frame.QUERY.us" in metric_names

    def test_stats_count_insert_cols_body_bytes(self):
        from repro.obs.registry import MetricsRegistry, format_snapshot

        batches = [make_rows(64), make_rows(32, start=400)]
        bodies = [
            protocol.pack_cols(protocol.rows_to_cols(batch), seq=seq)
            for seq, batch in enumerate(batches)
        ]
        metrics = MetricsRegistry(enabled=True)
        server = StreamServer(build_backend(SQL, PACKET_SCHEMA), metrics=metrics)
        with ThreadedServer(server) as threaded:
            with ServeClient(threaded.host, threaded.port) as client:
                for batch in batches:
                    client.insert(batch)
                client.flush()
                client.query()  # not an insert: not counted
                stats = client.stats()
        block = stats["server"]
        # The packed batches as received, so bytes / rows is the wire cost
        # of a row on this server (well under a JSON row's).
        assert block["insert_bytes_total"] == sum(map(len, bodies))
        assert block["rows_total"] == 96
        assert block["insert_bytes_total"] / block["rows_total"] < 40
        mirrored = stats["metrics"]["metrics"]["serve.ingest.bytes"]
        assert mirrored["raw_total"] == block["insert_bytes_total"]
        assert "serve.ingest.bytes" in format_snapshot(metrics.snapshot())

    def test_stats_without_metrics_registry(self):
        with serve() as server:
            with ServeClient(server.host, server.port) as client:
                stats = client.stats()
        assert "metrics" not in stats
        assert stats["server"]["errors_total"] == 0
