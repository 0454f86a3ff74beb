"""Hostile-input tests: the server must never die, whatever a client sends.

Framing violations cost the offender its connection (with a structured
ERROR first); semantic mistakes cost nothing but an ERROR frame.  Every
test ends by proving the server still answers a fresh, well-behaved
client — failure stays connection-scoped.
"""

from __future__ import annotations

import asyncio
import random
import struct

import pytest

from repro.dsms.engine import QueryEngine
from repro.dsms.parser import parse_query
from repro.dsms.udaf import default_registry
from repro.serve import RemoteError, ServeClient, protocol
from repro.workloads.netflow import PACKET_SCHEMA
from tests.serve.util import (
    SQL,
    RawConnection,
    connect,
    flushed_rows,
    make_rows,
    serve,
)


def assert_still_serving(server) -> None:
    """A fresh connection ingests and queries — the process survived."""
    with ServeClient(server.host, server.port) as client:
        client.insert(make_rows(40))
        client.flush()
        assert client.query()  # non-empty results, no errors


class TestHandshake:
    def test_wrong_wire_version_rejected_and_closed(self):
        # Versions below MIN_WIRE_VERSION are rejected outright; versions
        # *above* ours negotiate down (see test_protocol negotiation matrix).
        with serve() as server:
            raw = RawConnection(server.host, server.port)
            raw.send_frame(protocol.HELLO, {"wire_version": 0})
            error = raw.read_frame()
            assert error.ftype == protocol.ERROR
            assert error.payload["code"] == "wire-version"
            assert raw.closed_by_server()
            assert_still_serving(server)

    def test_future_wire_version_negotiates_down(self):
        with serve() as server:
            raw = RawConnection(server.host, server.port)
            raw.send_frame(protocol.HELLO, {"wire_version": 999})
            welcome = raw.read_frame()
            assert welcome.ftype == protocol.WELCOME
            assert welcome.payload["wire_version"] == protocol.WIRE_VERSION

    def test_missing_wire_version_rejected(self):
        with serve() as server:
            raw = RawConnection(server.host, server.port)
            raw.send_frame(protocol.HELLO, {})
            assert raw.read_frame().payload["code"] == "wire-version"
            assert raw.closed_by_server()

    def test_schema_mismatch_rejected(self):
        with serve() as server:
            raw = RawConnection(server.host, server.port)
            raw.send_frame(
                protocol.HELLO,
                {"wire_version": protocol.WIRE_VERSION, "schema": ["a", "b"]},
            )
            assert raw.read_frame().payload["code"] == "schema-mismatch"
            assert raw.closed_by_server()

    def test_frames_before_hello_rejected_and_closed(self):
        with serve() as server:
            raw = RawConnection(server.host, server.port)
            raw.send_frame(protocol.QUERY)
            error = raw.read_frame()
            assert error.payload["code"] == "handshake-required"
            assert raw.closed_by_server()
            assert_still_serving(server)


class TestMalformedFrames:
    def test_zero_length_frame_closes_connection(self):
        with serve() as server:
            raw = RawConnection(server.host, server.port)
            raw.hello()
            raw.send_raw(struct.pack(">I", 0))
            error = raw.read_frame()
            assert error.ftype == protocol.ERROR
            assert error.payload["code"] == "malformed-frame"
            assert raw.closed_by_server()
            assert_still_serving(server)

    def test_oversized_frame_rejected_before_body(self):
        with serve(max_frame_bytes=4096) as server:
            raw = RawConnection(server.host, server.port)
            raw.hello()
            # claim a gigabyte; send none of it
            raw.send_raw(struct.pack(">I", 1 << 30))
            error = raw.read_frame()
            assert error.payload["code"] == "malformed-frame"
            assert "oversized" in error.payload["message"]
            assert raw.closed_by_server()
            assert_still_serving(server)

    def test_undecodable_body_closes_connection(self):
        with serve() as server:
            raw = RawConnection(server.host, server.port)
            raw.hello()
            body = bytes([protocol.SUBSCRIBE]) + b"\xff\xfe not json"
            raw.send_raw(struct.pack(">I", len(body)) + body)
            assert raw.read_frame().payload["code"] == "malformed-frame"
            assert raw.closed_by_server()
            assert_still_serving(server)

    def test_non_object_body_closes_connection(self):
        with serve() as server:
            raw = RawConnection(server.host, server.port)
            raw.hello()
            body = bytes([protocol.QUERY]) + b"[1,2,3]"
            raw.send_raw(struct.pack(">I", len(body)) + body)
            assert raw.read_frame().payload["code"] == "malformed-frame"
            assert raw.closed_by_server()

    def test_truncated_frame_then_disconnect(self):
        with serve() as server:
            raw = RawConnection(server.host, server.port)
            raw.hello()
            # promise 100 bytes, deliver 3, vanish
            raw.send_raw(struct.pack(">I", 100) + b"abc")
            raw.close()
            assert_still_serving(server)

    def test_random_garbage_fuzz(self):
        rng = random.Random(0xC0FFEE)
        with serve() as server:
            for trial in range(25):
                raw = RawConnection(server.host, server.port)
                blob = rng.randbytes(rng.randrange(1, 200))
                try:
                    raw.send_raw(blob)
                    raw.sock.settimeout(0.25)
                    # server replies ERROR (maybe) and closes; both fine
                    while raw.sock.recv(65536):
                        pass
                except (ConnectionError, TimeoutError, OSError):
                    pass
                finally:
                    raw.close()
            assert_still_serving(server)


class TestSemanticErrors:
    def test_unknown_frame_type_keeps_connection(self):
        with serve() as server:
            raw = RawConnection(server.host, server.port)
            raw.hello()
            raw.send_frame(200, {"x": 1})
            error = raw.read_frame()
            assert error.payload["code"] == "unknown-frame"
            assert error.payload["frame"] == "type-200"
            # connection still usable
            raw.send_frame(protocol.QUERY)
            assert raw.read_frame().ftype == protocol.RESULT
            raw.close()

    def test_bad_rows_keep_connection_and_state(self):
        rows = make_rows(30)
        with serve() as server:
            with ServeClient(server.host, server.port) as client:
                client.insert(rows)
                client.flush()
                with pytest.raises(Exception) as excinfo:
                    client.insert([(1, "too", "short")])
                    client.flush()
                assert getattr(excinfo.value, "code", "") == "bad-rows"
                # state unchanged by the rejected batch
                stats = client.stats()
                assert stats["backend"]["tuples_in"] == len(rows)

    def test_checkpoint_without_state_dir_is_an_error(self):
        with serve() as server:  # no state_dir
            with ServeClient(server.host, server.port) as client:
                with pytest.raises(Exception) as excinfo:
                    client.checkpoint()
                assert getattr(excinfo.value, "code", "") == "no-state-dir"
                # connection survives
                assert client.stats()["server"]["errors_total"] == 1


def reference_rows(sql, batches) -> list[dict]:
    return flushed_rows(sql, [row for batch in batches for row in batch])


class TestReplyTooLarge:
    """A RESULT is paged to fit ``max_frame_bytes`` however many rows it
    has; a reply that cannot be paged (PARTIALS_OK, CHECKPOINT_OK, one
    result row over the limit) fails that request only: the connection,
    its credit window and later requests all survive."""

    LIMIT = 600
    #: One group survives the HAVING, so RESULT stays small while the
    #: partial-state reply does not: a one-row group per destIP in each of
    #: BUCKETS buckets, enough that the reply is over LIMIT with margin
    #: (checked before each scenario, not assumed: a smaller state codec
    #: shrinks it — these regular rows deflate about 3x).
    SMALL_RESULT_SQL = SQL + " having c > 4"
    BUCKETS = 400
    BATCHES = [make_rows(4, start=100 + 60 * j) for j in range(BUCKETS)] + [
        # All 25 rows in one bucket, after the others: five in the survivor.
        [row for row in make_rows(25, start=60 * (BUCKETS + 2)) if row[3] == "d0"]
    ]
    #: Bucket 1 finalizes to a short sample, bucket 2 to a ``prisamp``
    #: list that alone is over LIMIT: one page goes out, then the error.
    WIDE_ROW_SQL = (
        "select tb, destPort, prisamp(srcIP, len) as s, count(*) as c "
        "from TCP group by time/60 as tb, destPort"
    )
    WIDE_ROW_BATCHES = [make_rows(4, start=100)] + [
        make_rows(4, start=120 + 4 * j) for j in range(15)
    ]

    @pytest.mark.parametrize("driver", ["sync", "asyncio"])
    @pytest.mark.parametrize(
        "request_name, sql, reply",
        [
            ("query", SQL, "RESULT"),
            ("partials", SMALL_RESULT_SQL, "PARTIALS_OK"),
            ("checkpoint", SMALL_RESULT_SQL, "CHECKPOINT_OK"),
        ],
    )
    def test_oversized_reply_is_frame_scoped(
        self, tmp_path, driver, request_name, sql, reply
    ):
        # A state dir long enough that even CHECKPOINT_OK's path is over
        # the limit.
        state_dir = tmp_path / ("d" * 200) / ("e" * 200) / ("f" * 200)
        batches = self.BATCHES
        if reply == "PARTIALS_OK":
            engine = QueryEngine(
                parse_query(sql, default_registry()), PACKET_SCHEMA
            )
            engine.insert_many([row for batch in batches[:-1] for row in batch])
            partials_ok = protocol.encode_frame(
                protocol.PARTIALS_OK,
                protocol.encode_blobs([engine.partial_state_bytes()]),
            )
            assert len(partials_ok) > 1.5 * self.LIMIT

        async def scenario(host, port):
            client = await connect(driver, host, port)
            for batch in batches[:-1]:
                await client.insert(batch)
            await client.flush()
            window = client.window
            if reply == "RESULT":
                # Far more rows than one frame holds: paged, not refused.
                early = await client.query()
                assert early == reference_rows(sql, batches[:-1])
                assert len(early) > 10
            else:
                with pytest.raises(RemoteError) as excinfo:
                    await getattr(client, request_name)()
                assert excinfo.value.code == "reply-too-large"
                assert f"{reply} frame is" in str(excinfo.value)
                assert f"limit is {self.LIMIT}" in str(excinfo.value)
            # Same connection: ingest still flows under the full window...
            await client.insert(batches[-1])
            await client.flush()
            assert (client.credits, client.window) == (window, window)
            # ...and the next request gets a structured answer, not EOF.
            rows = await client.query()
            await client.close()
            return rows

        with serve(
            sql, max_frame_bytes=self.LIMIT, state_dir=str(state_dir)
        ) as server:
            rows = asyncio.run(scenario(server.host, server.port))
            stats = server.server.stats()["server"]
        assert stats["errors_total"] == (0 if reply == "RESULT" else 1)
        assert stats["largest_reply_frame_bytes"] <= self.LIMIT
        assert rows and rows == reference_rows(sql, batches)

    @pytest.mark.parametrize("driver", ["sync", "asyncio"])
    def test_one_row_over_the_limit_is_the_error_that_remains(self, driver):
        batches = self.WIDE_ROW_BATCHES

        async def scenario(host, port):
            client = await connect(driver, host, port)
            await client.insert(batches[0])
            await client.flush()
            narrow = await client.query()
            window = client.window
            for batch in batches[1:]:
                await client.insert(batch)
            await client.flush()
            # A page (the narrow row) arrives first, then the ERROR in
            # place of the wide one: nothing of the answer is returned.
            with pytest.raises(RemoteError) as excinfo:
                await client.query()
            assert excinfo.value.code == "reply-too-large"
            assert "RESULT frame is" in str(excinfo.value)
            await client.insert(make_rows(3, start=300))
            await client.flush()
            assert (client.credits, client.window) == (window, window)
            await client.close()
            return narrow

        with serve(self.WIDE_ROW_SQL, max_frame_bytes=self.LIMIT) as server:
            narrow = asyncio.run(scenario(server.host, server.port))
            # Read in-process: a STATS_OK reply is itself over this limit.
            stats = server.server.stats()["server"]
        assert narrow == reference_rows(self.WIDE_ROW_SQL, batches[:1])
        assert stats["errors_total"] == 1
        # The first query's page, then the one page before the error.
        assert stats["result_pages_total"] == 2
        assert stats["result_rows_total"] == 1

    def test_oversized_subscription_push_ends_that_subscription(self):
        # Many rows: every push arrives whole, paged under the limit.
        with serve(max_frame_bytes=self.LIMIT) as server:
            with ServeClient(server.host, server.port) as client:
                for batch in self.BATCHES:
                    client.insert(batch)
                client.flush()
                client.subscribe(0.01, count=2)
                pushes = client.results(2)
                expected = reference_rows(SQL, self.BATCHES)
                assert [p["rows"] for p in pushes] == [expected, expected]
                assert [p["done"] for p in pushes] == [False, True]
            assert server.server.errors_total == 0
        # One row over the limit: the ERROR takes the push's place and
        # ends that subscription; the connection itself is fine.
        with serve(self.WIDE_ROW_SQL, max_frame_bytes=self.LIMIT) as server:
            with ServeClient(server.host, server.port) as client:
                for batch in self.WIDE_ROW_BATCHES:
                    client.insert(batch)
                client.flush()
                client.subscribe(0.01, count=3)
                with pytest.raises(RemoteError) as excinfo:
                    client.results(1)
                assert excinfo.value.code == "reply-too-large"
                assert not client.has_pushes()
                client.insert(self.WIDE_ROW_BATCHES[0])
                client.flush()
                assert server.server.queries_total == 1  # no second tick


class TestDisconnects:
    def test_abrupt_disconnect_mid_stream(self):
        rows = make_rows(60)
        with serve(shards=2) as server:
            client = ServeClient(server.host, server.port)
            client.insert(rows[:30])
            client.close_abruptly()  # no BYE, credits still in flight
            assert_still_serving(server)

    def test_disconnect_with_live_subscription(self):
        with serve() as server:
            client = ServeClient(server.host, server.port)
            client.insert(make_rows(10))
            client.subscribe(0.01)  # unbounded pushes
            client.results(2)  # ensure the push task is running
            client.close_abruptly()
            assert_still_serving(server)

    def test_idle_connection_times_out(self):
        with serve(idle_timeout_s=0.2) as server:
            raw = RawConnection(server.host, server.port)
            raw.hello()
            error = raw.read_frame()  # arrives after ~0.2s of silence
            assert error.ftype == protocol.ERROR
            assert error.payload["code"] == "idle-timeout"
            assert raw.closed_by_server()
            assert_still_serving(server)
