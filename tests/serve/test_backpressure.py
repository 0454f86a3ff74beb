"""Eviction-aware backpressure: credit grants follow store pressure.

The server returns 0, 1, or 2 credits per consumed batch, steering each
connection's window toward ``credit_window * (1 - backend.pressure())``
(floored at 1 — lock-step, never deadlock).  The client tracks the
implied window from the credits themselves, so flush still terminates
when the server has withheld credits.

Covers the grant state machine directly (unit), and end-to-end over a
store-backed server where hot-tier churn is the pressure source: a
group-churning workload shrinks the client's window, a hot-group
workload lets it recover, and the answers stay exact throughout.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.serve import ServeClient, StreamServer, ThreadedServer, build_backend
from repro.workloads.netflow import PACKET_SCHEMA
from tests.serve.util import SQL, canon, expected_rows


def churn_rows(n: int, start: int) -> list[tuple]:
    """Rows that cycle through 97 destIPs — every arrival misses a tiny
    hot tier, so evictions + fault-ins drive churn pressure toward 1."""
    return [
        (start + i, float(start + i), "10.0.0.1", f"d{i % 97}",
         80, 443, 40, "TCP")
        for i in range(n)
    ]


def calm_rows(n: int) -> list[tuple]:
    """Rows for one single group: no evictions, churn decays to zero."""
    return [(100, 100.0, "10.0.0.1", "calm", 80, 443, 40, "TCP")] * n


class TestCreditGrant:
    """The grant state machine, with pressure pinned to a constant."""

    def make(self, pressure: float) -> StreamServer:
        backend = build_backend(SQL, PACKET_SCHEMA)
        backend.pressure = lambda: pressure
        return StreamServer(backend, credit_window=8)

    def test_steady_state_grants_one_per_batch(self):
        server = self.make(0.0)
        conn = SimpleNamespace(window=8)
        assert [server._credit_grant(conn) for _ in range(4)] == [1, 1, 1, 1]
        assert conn.window == 8

    def test_pressure_withholds_credits_until_target(self):
        server = self.make(0.75)  # target window: round(8 * 0.25) = 2
        conn = SimpleNamespace(window=8)
        grants = [server._credit_grant(conn) for _ in range(8)]
        assert grants == [0, 0, 0, 0, 0, 0, 1, 1]
        assert conn.window == 2

    def test_full_pressure_floors_window_at_one(self):
        server = self.make(1.0)
        conn = SimpleNamespace(window=8)
        for _ in range(16):
            server._credit_grant(conn)
        assert conn.window == 1  # lock-step, not starvation

    def test_relief_grows_window_back_with_double_grants(self):
        server = self.make(0.0)
        conn = SimpleNamespace(window=2)
        grants = [server._credit_grant(conn) for _ in range(8)]
        assert grants == [2, 2, 2, 2, 2, 2, 1, 1]
        assert conn.window == 8


class TestStorePressureEndToEnd:
    def test_window_shrinks_under_churn_and_recovers(self, tmp_path):
        backend = build_backend(
            SQL, PACKET_SCHEMA, store_dir=str(tmp_path / "store"),
            store_hot_groups=8,
        )
        server = ThreadedServer(
            StreamServer(backend, credit_window=8)
        ).start()
        churn = [churn_rows(97, start=100 + 97 * b) for b in range(20)]
        calm = [calm_rows(20) for _ in range(40)]
        try:
            with ServeClient(server.host, server.port) as client:
                start_window = client.window
                assert start_window == 8

                for batch in churn:
                    client.insert(batch)
                client.flush()
                shrunk = client.window
                assert shrunk < start_window
                assert shrunk <= 2
                stats = client.stats()
                assert stats["server"]["pressure"] > 0.5
                assert stats["backend"]["store"]["pressure"] > 0.5
                assert stats["backend"]["store"]["evictions"] > 0

                for batch in calm:
                    client.insert(batch)
                client.flush()
                assert client.window == start_window
                assert client.stats()["server"]["pressure"] < 0.2

                results = client.query()
        finally:
            server.stop()
        rows = [row for batch in churn + calm for row in batch]
        assert canon(results) == canon(expected_rows(SQL, rows))

    def test_storeless_server_never_pressures(self):
        backend = build_backend(SQL, PACKET_SCHEMA)
        server = ThreadedServer(
            StreamServer(backend, credit_window=4)
        ).start()
        try:
            with ServeClient(server.host, server.port) as client:
                for b in range(6):
                    client.insert(churn_rows(97, start=100 + 97 * b))
                client.flush()
                assert client.window == 4
                assert client.stats()["server"]["pressure"] == 0.0
        finally:
            server.stop()
