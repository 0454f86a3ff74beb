"""Reads over a real socket: the snapshot, then a bounded page sequence.

A served answer must equal the in-process engine's rows — same rows, same
order — however many pages carry it; the snapshot is taken before the
first page, so ingest that lands between pages belongs to the next
answer; and a reader that stops reading holds the server at one page.
"""

from __future__ import annotations

import asyncio
import math
import socket
import time

import pytest

from repro.obs.registry import MetricsRegistry, format_snapshot
from repro.serve import (
    RemoteError,
    ServeClient,
    StreamServer,
    ThreadedServer,
    build_backend,
    protocol,
)
from repro.serve.server import CLOSE_GRACE_S
from repro.workloads.netflow import PACKET_SCHEMA
from tests.serve.util import (
    SQL,
    RawConnection,
    connect,
    flushed_rows,
    make_rows,
    serve,
)


def group_rows(groups: int, start: int = 0) -> list[tuple]:
    """One row per group of ``SQL``: distinct destIP, one time bucket."""
    return [
        (i, 100.0, "10.0.0.1", f"d{i}", 80, 443, 40 + i % 17, "TCP")
        for i in range(start, start + groups)
    ]


def in_process(rows: list[tuple]) -> list[dict]:
    return flushed_rows(SQL, rows)


def ingest(client, rows: list[tuple], batch: int = 2_000) -> None:
    for at in range(0, len(rows), batch):
        client.insert(rows[at : at + batch])
    client.flush()


def on_loop(server: ThreadedServer, fn):
    """Run ``fn()`` on the server's event loop thread (asyncio objects
    are not thread-safe) and return its result."""

    async def call():
        return fn()

    return asyncio.run_coroutine_threadsafe(call(), server._loop).result(10)


def throttle(server: ThreadedServer, raw: RawConnection) -> None:
    """Shrink both kernel buffers of ``raw``'s connection, so a reply of a
    few hundred KB cannot simply vanish into them."""
    raw.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 16_384)
    (conn,) = server.server._connections

    def shrink():
        sock = conn.writer.transport.get_extra_info("socket")
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 16_384)

    on_loop(server, shrink)


def read_reply(raw: RawConnection) -> list[dict]:
    """Reassemble one direct page sequence off a raw socket."""
    rows: list[dict] = []
    while True:
        frame = raw.read_frame()
        assert frame.ftype == protocol.RESULT, frame
        rows.extend(protocol.decode_result_rows(frame.payload["rows"]))
        if not frame.payload.get("more"):
            return rows


class TestServedEqualsInProcess:
    @pytest.mark.parametrize("groups", [1, 511, 512, 513, 5_000])
    def test_rows_and_order_at_the_page_boundaries(self, groups):
        rows = group_rows(groups)
        with serve() as server:
            with ServeClient(server.host, server.port) as client:
                ingest(client, rows)
                served = client.query()
                stats = client.stats()["server"]
        assert served == in_process(rows)
        assert len(served) == groups
        assert stats["queries_total"] == 1
        assert stats["result_rows_total"] == groups
        assert stats["result_pages_total"] == math.ceil(
            groups / protocol.RESULT_PAGE_ROWS
        )

    def test_an_empty_answer_is_one_empty_page(self):
        with serve() as server:
            with ServeClient(server.host, server.port) as client:
                assert client.query() == []
                assert client.stats()["server"]["result_pages_total"] == 1

    @pytest.mark.parametrize("driver", ["sync", "asyncio"])
    def test_a_small_frame_limit_halves_pages_until_they_fit(self, driver):
        rows = group_rows(700)
        limit = 4_096

        async def scenario(host, port):
            client = await connect(driver, host, port)
            for at in range(0, len(rows), 20):
                await client.insert(rows[at : at + 20])
            await client.flush()
            served = await client.query()
            stats = (await client.stats())["server"]
            await client.close()
            return served, stats

        with serve(max_frame_bytes=limit) as server:
            served, stats = asyncio.run(scenario(server.host, server.port))
        assert served == in_process(rows)
        # 512 rows do not fit 4 KiB; 32-row pages do.
        assert stats["result_pages_total"] == math.ceil(700 / 32)
        assert stats["largest_reply_frame_bytes"] <= limit
        assert stats["errors_total"] == 0

    def test_sharded_backend_pages_its_folded_answer_too(self):
        rows = group_rows(1_200)
        with serve(shards=2) as server:
            with ServeClient(server.host, server.port) as client:
                ingest(client, rows)
                assert client.query() == in_process(rows)

    @pytest.mark.slow
    def test_100k_groups_answered_over_the_default_frame_limit(self):
        rows = group_rows(100_000)
        with serve() as server:
            with ServeClient(server.host, server.port) as client:
                ingest(client, rows, batch=10_000)
                served = client.query()
                stats = client.stats()["server"]
        # The same answer in one frame would be ~12 MB against the 8 MiB
        # default; paged, no frame comes near it.
        assert len(served) == 100_000
        assert served == in_process(rows)
        assert stats["largest_reply_frame_bytes"] < 1 << 20
        assert stats["errors_total"] == 0


class TestSnapshotBeforeTheFirstPage:
    def test_ingest_between_pages_belongs_to_the_next_answer(self):
        first, second = group_rows(6_000), group_rows(50, start=6_000)
        with serve() as server:
            reader = RawConnection(server.host, server.port)
            reader.hello()
            throttle(server, reader)
            with ServeClient(server.host, server.port) as writer:
                ingest(writer, first)
                reader.send_frame(protocol.QUERY)
                page = reader.read_frame()
                assert page.payload["more"] is True
                # The server is parked mid-reply on the reader's full
                # socket; another connection's batch is ingested and
                # acknowledged meanwhile.
                pages_so_far = server.server.result_pages_total
                assert pages_so_far < math.ceil(6_000 / protocol.RESULT_PAGE_ROWS)
                writer.insert(second)
                writer.flush()
                assert server.server.result_pages_total == pages_so_far
                rest = read_reply(reader)
                answer = protocol.decode_result_rows(page.payload["rows"]) + rest
                assert answer == in_process(first)
                # The next answer has both.
                reader.send_frame(protocol.QUERY)
                assert read_reply(reader) == in_process(first + second)
            reader.close()


class TestSlowReader:
    def test_a_subscriber_that_stops_reading_holds_one_undrained_page(self):
        rows = group_rows(6_000)
        total_pages = math.ceil(6_000 / protocol.RESULT_PAGE_ROWS)
        with serve() as server:
            raw = RawConnection(server.host, server.port)
            try:
                raw.hello()
                throttle(server, raw)
                (conn,) = server.server._connections
                transport = conn.writer.transport
                with ServeClient(server.host, server.port) as writer:
                    ingest(writer, rows)
                raw.send_frame(
                    protocol.SUBSCRIBE, {"interval_s": 0.01, "count": 1}
                )
                # Wait until the push task has parked on drain().
                deadline = time.monotonic() + 10
                seen = (-1, -1)
                while time.monotonic() < deadline:
                    now = (
                        server.server.result_pages_total,
                        on_loop(server, transport.get_write_buffer_size),
                    )
                    if now == seen and now[0] > 0:
                        break
                    seen = now
                    time.sleep(0.05)
                pages, pending = seen
                page_bytes = server.server.largest_reply_frame_bytes + 4
                _low, high_water = transport.get_write_buffer_limits()
                # Parked with most of the answer not yet encoded: what the
                # server buffers for this reader is the page that crossed
                # the transport's high-water mark, never the reply.
                assert 0 < pages < total_pages
                assert 0 < pending <= high_water + page_bytes
                assert pending < total_pages * page_bytes / 2
                push = []
                while True:
                    frame = raw.read_frame()
                    assert (frame.payload["sub"], frame.payload["seq"]) == (1, 1)
                    push.extend(
                        protocol.decode_result_rows(frame.payload["rows"])
                    )
                    if not frame.payload.get("more"):
                        assert frame.payload["done"] is True
                        break
                assert push == in_process(rows)
                assert server.server.result_pages_total == total_pages
            finally:
                raw.close()

    @pytest.mark.parametrize("request_frame", ["query", "subscribe"])
    def test_stop_does_not_wait_for_a_peer_that_never_reads(
        self, tmp_path, request_frame
    ):
        """A graceful stop is bounded by the close grace, not by a peer
        holding undrained replies: the checkpoint is still written, loads,
        and no task outlives the stop."""
        rows = group_rows(6_000)
        server = serve(state_dir=str(tmp_path))
        raw = RawConnection(server.host, server.port)
        try:
            raw.hello()
            throttle(server, raw)
            (conn,) = server.server._connections
            transport = conn.writer.transport
            with ServeClient(server.host, server.port) as writer:
                ingest(writer, rows)
            if request_frame == "query":
                raw.send_frame(protocol.QUERY)
            else:
                raw.send_frame(
                    protocol.SUBSCRIBE, {"interval_s": 0.01, "count": 1}
                )
            # The reply is parked on the peer's full socket.
            deadline = time.monotonic() + 10
            while on_loop(server, transport.get_write_buffer_size) == 0:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            loop = server._loop
            started = time.monotonic()
            path = server.stop()
            elapsed = time.monotonic() - started
            assert elapsed < CLOSE_GRACE_S + 1.0
            assert asyncio.all_tasks(loop) == set()
        finally:
            raw.close()
        with serve(state_dir=str(tmp_path)) as restarted:
            assert restarted.server.checkpoint_path == path
            with ServeClient(restarted.host, restarted.port) as client:
                assert client.query() == in_process(rows)


class TestQueryFailures:
    #: HAVING compares a prisamp *list* with a number: a TypeError at
    #: evaluation time, which used to kill the connection silently.
    SQL = (
        "select tb, destPort, prisamp(srcIP, len) as s, count(*) as c "
        "from TCP group by time/60 as tb, destPort having s > 3"
    )

    @pytest.mark.parametrize("driver", ["sync", "asyncio"])
    def test_unevaluable_having_is_a_frame_scoped_query_failed(self, driver):
        async def scenario(host, port):
            client = await connect(driver, host, port)
            await client.insert(make_rows(20))
            await client.flush()
            window = (client.credits, client.window)
            with pytest.raises(RemoteError) as excinfo:
                await client.query()
            assert excinfo.value.code == "query-failed"
            assert "HAVING (s > 3)" in str(excinfo.value)
            # Same connection, same credit window: ingest goes on.
            await client.insert(make_rows(20, start=200))
            report = await client.flush()
            assert (client.credits, client.window) == window
            stats = await client.stats()
            await client.close()
            return report, stats

        with serve(self.SQL) as server:
            report, stats = asyncio.run(scenario(server.host, server.port))
        assert list(report["outcomes"].values()) == ["acked"]
        assert stats["server"]["errors_total"] == 1
        assert stats["backend"]["tuples_in"] == 40

    def test_unknown_order_by_alias_fails_when_the_backend_is_built(self):
        from repro.core.errors import QueryError

        with pytest.raises(QueryError, match="nosuch"):
            build_backend(SQL + " order by nosuch", PACKET_SCHEMA)

    def test_unexpected_handler_exception_is_an_internal_error(self, caplog):
        with serve() as server:
            def broken():
                raise RuntimeError("boom")

            server.server.backend.query = broken
            client = ServeClient(server.host, server.port)
            with pytest.raises(RemoteError) as excinfo:
                client.query()
            assert excinfo.value.code == "internal-error"
            assert "RuntimeError: boom" in str(excinfo.value)
            # Connection-scoped: that connection is closed, counted, and
            # the traceback logged — the server goes on serving.
            with pytest.raises(ConnectionError):
                client.stats()
            assert server.server.errors_total == 1
            assert "QUERY handler failed" in caplog.text
            del server.server.backend.query
            with ServeClient(server.host, server.port) as probe:
                probe.insert(make_rows(5))
                probe.flush()
                assert probe.query()

    def test_unexpected_exception_in_a_push_ends_only_that_subscription(
        self, caplog
    ):
        with serve() as server:
            def broken():
                raise RuntimeError("boom")

            with ServeClient(server.host, server.port) as client:
                client.insert(make_rows(20))
                client.flush()
                window = (client.credits, client.window)
                server.server.backend.query = broken
                client.subscribe(0.01, count=3)
                with pytest.raises(RemoteError) as excinfo:
                    client.results(1)
                assert excinfo.value.code == "internal-error"
                assert "RuntimeError: boom" in str(excinfo.value)
                assert not client.has_pushes()
                del server.server.backend.query
                # Same connection, same credit window: an acked insert
                # completes and a direct query answers.
                client.insert(make_rows(20, start=200))
                report = client.flush()
                assert list(report["outcomes"].values()) == ["acked"]
                assert (client.credits, client.window) == window
                assert len(client.query()) > 0
                # Counted and logged like a direct request's failure; the
                # subscription ended at its first tick.
                block = client.stats()["server"]
                assert block["errors_total"] == 1
                assert block["queries_total"] == 2
            assert "subscription 1 push failed" in caplog.text
            assert "RuntimeError: boom" in caplog.text


class TestReadCounters:
    def test_stats_block_and_registry_count_reads(self):
        metrics = MetricsRegistry(enabled=True)
        backend = build_backend(SQL, PACKET_SCHEMA)
        rows = group_rows(600)
        with ThreadedServer(StreamServer(backend, metrics=metrics)) as server:
            with ServeClient(server.host, server.port) as client:
                ingest(client, rows)
                client.query()
                client.subscribe(0.01, count=1)
                client.results(1)
                stats = client.stats()
        block = stats["server"]
        assert block["queries_total"] == 2
        assert block["result_pages_total"] == 4
        assert block["result_rows_total"] == 1_200
        assert 0 < block["largest_reply_frame_bytes"] < protocol.MAX_FRAME_BYTES
        mirrored = stats["metrics"]["metrics"]
        assert mirrored["serve.query.queries"]["raw_total"] == 2
        assert mirrored["serve.query.pages"]["raw_total"] == 4
        assert mirrored["serve.query.rows"]["raw_total"] == 1_200
        assert mirrored["serve.query.snapshot.us"]["count"] == 2
        # What `repro stats` prints for a snapshot file is this text.
        text = format_snapshot(metrics.snapshot())
        for name in ("serve.query.queries", "serve.query.pages",
                     "serve.query.rows", "serve.query.snapshot.us"):
            assert name in text
