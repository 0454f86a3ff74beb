"""The columnar data plane over the wire: negotiation, framing scope,
and end-to-end equality with an in-process engine.

Contract under test (DESIGN.md §6.1): INSERT_COLS is the one ingest frame
and a pure transport — serving a stream never changes a query answer.
Version 6 is the only wire spoken: older HELLOs are refused, newer ones
negotiate down, and the type codes of the retired row INSERT and
HEARTBEAT answer ``unknown-frame``.  Errors keep their scopes: an
undecodable columnar body is a framing violation (connection-scoped, like
any garbage body), while a well-formed batch that fails schema validation
costs one ERROR frame and nothing else.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.core.cols import (
    COL_BYTES,
    COL_DICT,
    COL_F64,
    COL_I64,
    COL_STR,
    COLS_CODEC_VERSION,
    pack_column,
)
from repro.core.errors import ProtocolError, SchemaError
from repro.obs.registry import MetricsRegistry
from repro.serve import (
    ServeClient,
    StreamServer,
    ThreadedServer,
    build_backend,
    protocol,
)
from repro.serve.protocol import FrameDecoder, encode_frame
from repro.workloads.netflow import PACKET_SCHEMA
from tests.serve.test_fault_tolerance import serve_with_state
from tests.serve.test_robustness import assert_still_serving
from tests.serve.util import (
    SQL,
    RawConnection,
    canon,
    expected_rows,
    make_rows,
    serve,
)


def cols_frame(rows, seq=None) -> bytes:
    return protocol.encode_cols(protocol.rows_to_cols(rows), seq=seq)


#: A query that reads one of the schema's eight columns, and one that
#: reads all eight.
ONE_COLUMN_SQL = "select count(*) as c, sum(len) as s from TCP"
ALL_COLUMNS_SQL = (
    "select tb, srcIP, destIP, proto, sum(len + srcPort + destPort) as s, "
    "max(ts) as m from TCP group by time/60 as tb, srcIP, destIP, proto"
)


def frame_with_block(rows, index: int, kind: int, payload: bytes) -> bytes:
    """An INSERT_COLS frame of ``rows`` whose column ``index`` is the
    hand-made block ``kind | len(payload) | payload``."""
    blocks = [pack_column(col) for col in protocol.rows_to_cols(rows)]
    blocks[index] = struct.pack("!BI", kind, len(payload)) + payload
    head = struct.pack("!BQIH", COLS_CODEC_VERSION, 0, len(rows), len(blocks))
    return encode_frame(protocol.INSERT_COLS, head + b"".join(blocks))


def send_one(server, wire: bytes):
    """A fresh connection's first reply to ``wire`` and whether the server
    then closed the connection."""
    raw = RawConnection(server.host, server.port)
    try:
        raw.hello()
        raw.send_raw(wire)
        reply = raw.read_frame()
        closed = reply.ftype == protocol.ERROR and (
            reply.payload["code"] == "malformed-frame" and raw.closed_by_server()
        )
        return reply, closed
    finally:
        raw.close()


class TestNegotiationMatrix:
    @pytest.mark.parametrize(
        ("offered", "negotiated"),
        [
            (protocol.WIRE_VERSION, protocol.WIRE_VERSION),
            (protocol.WIRE_VERSION + 1, protocol.WIRE_VERSION),
            (999, protocol.WIRE_VERSION),
        ],
    )
    def test_accepted_versions(self, offered, negotiated):
        assert protocol.negotiate_version(offered) == negotiated

    @pytest.mark.parametrize(
        "offered", [3, 2, 1, 0, -1, True, False, "4", 4.0, None, [4], {}, 5, 6]
    )
    def test_rejected_versions(self, offered):
        assert protocol.negotiate_version(offered) is None

    def test_one_wire_version(self):
        assert protocol.MIN_WIRE_VERSION == protocol.WIRE_VERSION == 7
        assert protocol.negotiate_version(6) is None

    def test_welcome_reports_the_negotiated_version(self):
        with serve() as server:
            for offered in (7, 999):
                raw = RawConnection(server.host, server.port)
                raw.send_frame(protocol.HELLO, {"wire_version": offered})
                welcome = raw.read_frame()
                assert welcome.ftype == protocol.WELCOME
                assert welcome.payload["wire_version"] == 7
                raw.close()

    @pytest.mark.parametrize("offered", [6, 5, 4, 3, 2, 1, 0, "junk"])
    def test_old_or_junk_hello_is_refused_naming_the_range(self, offered):
        with serve() as server:
            raw = RawConnection(server.host, server.port)
            raw.send_frame(protocol.HELLO, {"wire_version": offered})
            error = raw.read_frame()
            assert error.ftype == protocol.ERROR
            assert error.payload["code"] == "wire-version"
            assert "7..7" in error.payload["message"]
            assert raw.closed_by_server()
            assert_still_serving(server)


class TestFrameScopedErrors:
    @pytest.mark.parametrize("ftype", [3, 5])
    def test_retired_row_insert_code_is_an_unknown_frame(self, ftype):
        # Type 3 was the row INSERT and type 5 the HEARTBEAT.  A foreign
        # client still sending one gets a frame-scoped error (no credit
        # was spent, none returns) and the connection keeps ingesting
        # columnar batches.
        rows = make_rows(20)
        retired = {3: {"rows": [list(r) for r in rows]}, 5: {"row": list(rows[0])}}
        with serve() as server:
            raw = RawConnection(server.host, server.port)
            raw.hello()
            raw.send_raw(encode_frame(ftype, retired[ftype]))
            error = raw.read_frame()
            assert error.ftype == protocol.ERROR
            assert error.payload["code"] == "unknown-frame"
            assert error.payload["frame"] == f"type-{ftype}"
            raw.send_raw(cols_frame(rows, seq=5))
            credit = raw.read_frame()
            assert credit.ftype == protocol.CREDIT
            assert credit.payload["seq"] == 5
            raw.send_frame(protocol.QUERY)
            result = raw.read_frame()
            assert result.ftype == protocol.RESULT
            assert canon(
                protocol.decode_result_rows(result.payload["rows"])
            ) == canon(expected_rows(SQL, rows))
            raw.close()

    def test_zero_column_frame_is_frame_scoped(self):
        # The client library never sends an empty batch; a hand-built
        # zero-column frame keeps its arity error.
        with serve() as server:
            raw = RawConnection(server.host, server.port)
            raw.hello()
            raw.send_raw(protocol.encode_cols([], seq=1))
            error = raw.read_frame()
            assert error.payload["code"] == "bad-rows"
            assert "0 columns" in error.payload["message"]
            assert raw.read_frame().ftype == protocol.CREDIT
            raw.close()

    def test_schema_arity_mismatch_is_frame_scoped(self):
        with serve() as server:
            raw = RawConnection(server.host, server.port)
            raw.hello()
            raw.send_raw(protocol.encode_cols([[1, 2], ["a", "b"]], seq=1))
            error = raw.read_frame()
            assert error.payload["code"] == "bad-rows"
            assert raw.read_frame().ftype == protocol.CREDIT
            # nothing was ingested, connection survives
            raw.send_frame(protocol.STATS)
            stats = raw.read_frame()
            assert stats.payload["server"]["rows_total"] == 0
            raw.close()

    def test_wrongly_typed_column_is_frame_scoped(self):
        rows = [("not-an-int",) + make_rows(1)[0][1:]]
        with serve() as server:
            raw = RawConnection(server.host, server.port)
            raw.hello()
            raw.send_raw(cols_frame(rows))
            assert raw.read_frame().payload["code"] == "bad-rows"
            assert raw.read_frame().ftype == protocol.CREDIT
            raw.close()


class TestFramingViolations:
    def test_truncated_columnar_body_closes_connection(self):
        wire = cols_frame(make_rows(10), seq=1)
        # keep the length prefix honest about the truncated body
        body = wire[4:-7]
        with serve() as server:
            raw = RawConnection(server.host, server.port)
            raw.hello()
            raw.send_raw(struct.pack(">I", len(body)) + body)
            error = raw.read_frame()
            assert error.payload["code"] == "malformed-frame"
            assert raw.closed_by_server()
            assert_still_serving(server)

    def test_garbage_columnar_body_closes_connection(self):
        body = bytes([protocol.INSERT_COLS]) + b"\xde\xad\xbe\xef" * 8
        with serve() as server:
            raw = RawConnection(server.host, server.port)
            raw.hello()
            raw.send_raw(struct.pack(">I", len(body)) + body)
            assert raw.read_frame().payload["code"] == "malformed-frame"
            assert raw.closed_by_server()
            assert_still_serving(server)

    @pytest.mark.parametrize("sql", [ONE_COLUMN_SQL, ALL_COLUMNS_SQL])
    def test_mutation_fuzz_never_kills_the_server(self, sql):
        # Random single-byte mutations of a valid INSERT_COLS frame: each
        # is either still decodable (ERROR or CREDIT comes back) or a
        # framing violation (ERROR + close).  Either way the server lives —
        # whether the damage lands in a block its query decodes or in one
        # it only shape-checks.
        rng = random.Random(0xDECAF)
        wire = bytearray(cols_frame(make_rows(8), seq=3))
        with serve(sql) as server:
            for trial in range(30):
                blob = bytearray(wire)
                index = rng.randrange(4, len(blob))  # keep the prefix sane
                blob[index] ^= 1 << rng.randrange(8)
                raw = RawConnection(server.host, server.port)
                try:
                    raw.hello()
                    raw.send_raw(bytes(blob))
                    reply = raw.read_frame()
                    assert reply.ftype in (protocol.ERROR, protocol.CREDIT)
                except (ConnectionError, TimeoutError, OSError):
                    pass
                finally:
                    raw.close()
            assert_still_serving(server)

    def test_a_misshapen_block_is_a_framing_error_in_every_column(self):
        # The server's query reads `len` alone, yet a block whose bytes
        # cannot be its rows poisons the frame whichever column it is.
        rows = make_rows(6)
        table = struct.pack("!BI", COL_STR | 2 << 4, 4) + b"\x01\x01" + b"ab"
        misshapen = [
            (COL_I64, b"\x00" * 8 * 5),  # five i64 for six rows
            (COL_F64, b"\x00" * 8 * 7),
            (COL_STR | 2 << 4, b"\x01" * 6 + b"abcde"),  # lengths sum to 6
            (COL_BYTES | 2 << 4, b"\x01" * 5),  # table shorter than its rows
            # a dictionary whose table is a bytes block / with 5 codes for 6 rows
            (COL_DICT | 2 << 4, struct.pack("!I", 2)
             + bytes([COL_BYTES | 2 << 4]) + table[1:] + b"\x00" * 6),
            (COL_DICT | 2 << 4, struct.pack("!I", 2) + table + b"\x00" * 5),
        ]
        with serve(ONE_COLUMN_SQL) as server:
            for index in range(len(PACKET_SCHEMA)):
                for kind, payload in misshapen:
                    reply, closed = send_one(
                        server, frame_with_block(rows, index, kind, payload)
                    )
                    assert reply.payload["code"] == "malformed-frame", (index, kind)
                    assert closed
            whole = cols_frame(rows)
            body = whole[4:] + b"\x00"  # trailing byte after the last block
            reply, closed = send_one(server, struct.pack(">I", len(body)) + body)
            assert reply.payload["code"] == "malformed-frame" and closed
            assert_still_serving(server)
            assert server.server.stats()["server"]["rows_total"] == 40

    def test_content_of_an_unread_block_is_accepted_and_never_materialised(self):
        rows = make_rows(6)
        table = struct.pack("!BI", COL_STR | 2 << 4, 4) + b"\x01\x01" + b"ab"
        hostile = [
            # srcIP: six one-byte strings that are not UTF-8
            frame_with_block(rows, 2, COL_STR | 2 << 4, b"\x01" * 6 + b"\xff" * 6),
            # proto: a two-entry dictionary, every code beyond it
            frame_with_block(
                rows, 7, COL_DICT | 2 << 4,
                struct.pack("!I", 2) + table + b"\x09" * 6,
            ),
        ]
        with serve(ONE_COLUMN_SQL) as server:
            for wire in hostile:
                reply, closed = send_one(server, wire)
                assert reply.ftype == protocol.CREDIT and not closed
            with ServeClient(server.host, server.port) as client:
                assert client.query() == expected_rows(ONE_COLUMN_SQL, rows + rows)
        # A server whose query reads those columns decodes them, and refuses.
        with serve(ALL_COLUMNS_SQL) as server:
            for wire in hostile:
                reply, closed = send_one(server, wire)
                assert reply.payload["code"] == "malformed-frame" and closed
            assert_still_serving(server)

    def test_a_wrongly_typed_unread_column_is_bad_rows_with_the_sweeps_message(self):
        rows = make_rows(6)

        def with_column(index, values):
            cols = protocol.rows_to_cols(rows)
            cols[index] = values
            return cols

        rejected = [
            with_column(4, ["not-a-port"] * 6),  # str for int
            with_column(4, [1.5, 2.5, 3.5, 4.5, 5.5, 6.5]),  # float for int
            with_column(2, [7] * 6),  # int for str
            with_column(1, ["x"] * 6),  # str for float
            with_column(7, [b"tcp"] * 6),  # bytes for str
            with_column(4, [1, 2, "three", 4, 5, 6]),  # mixed: a tagged block
        ]
        with serve(ONE_COLUMN_SQL) as server:
            raw = RawConnection(server.host, server.port)
            raw.hello()
            for cols in rejected:
                with pytest.raises(SchemaError) as swept:
                    PACKET_SCHEMA.validate_cols(cols)
                raw.send_raw(protocol.encode_cols(cols))
                error = raw.read_frame()
                assert error.payload["code"] == "bad-rows"
                assert error.payload["message"] == str(swept.value)
                assert raw.read_frame().ftype == protocol.CREDIT
            # int for float passes, as under the sweep; so does bool for int
            # (a tagged block, swept).
            raw.send_raw(protocol.encode_cols(with_column(1, [1, 2, 3, 4, 5, 6])))
            assert raw.read_frame().ftype == protocol.CREDIT
            raw.send_raw(protocol.encode_cols(with_column(4, [True] * 6)))
            assert raw.read_frame().ftype == protocol.CREDIT
            raw.send_frame(protocol.STATS)
            assert raw.read_frame().payload["server"]["rows_total"] == 12
            raw.close()

    def test_oversized_columnar_frame_rejected_at_encode(self):
        rows = make_rows(1000)
        with pytest.raises(ProtocolError, match="wire limit"):
            protocol.encode_cols(
                protocol.rows_to_cols(rows), max_frame_bytes=256
            )


class TestFrameDecoderCompaction:
    """Regression: the decoder used to shift its buffer left once per
    frame, so a chunk of m frames moved O(m²) bytes."""

    def test_no_per_frame_buffer_shift(self):
        frames = [encode_frame(protocol.QUERY, {"i": i}) for i in range(500)]
        decoder = FrameDecoder()
        decoder.feed(b"".join(frames))
        buffered = len(decoder._buffer)
        assert len(list(decoder.frames())) == 500
        # consumed frames advanced the read position only; the buffer was
        # never compacted mid-iteration
        assert len(decoder._buffer) == buffered
        assert decoder._pos == buffered

    def test_drained_buffer_compacts_on_next_feed(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame(protocol.QUERY))
        list(decoder.frames())
        decoder.feed(b"")
        assert len(decoder._buffer) == 0
        assert decoder._pos == 0

    def test_partial_tail_survives_compaction(self):
        first = encode_frame(protocol.QUERY, {"pad": "x" * 100})
        second = encode_frame(protocol.STATS)
        decoder = FrameDecoder(compact_bytes=16)
        decoder.feed(first + second[:3])
        assert [f.ftype for f in decoder.frames()] == [protocol.QUERY]
        # next feed crosses compact_bytes: the consumed prefix is dropped,
        # the partial tail is preserved and completes normally
        decoder.feed(second[3:])
        assert decoder._pos == 0
        assert [f.ftype for f in decoder.frames()] == [protocol.STATS]

    def test_interleaved_columnar_and_json_frames(self):
        rows = make_rows(6)
        wire = (
            encode_frame(protocol.QUERY)
            + cols_frame(rows, seq=9)
            + encode_frame(protocol.STATS)
        )
        decoder = FrameDecoder()
        collected = []
        for i in range(0, len(wire), 7):  # ragged chunks
            decoder.feed(wire[i : i + 7])
            collected.extend(decoder.frames())
        assert [f.ftype for f in collected] == [
            protocol.QUERY,
            protocol.INSERT_COLS,
            protocol.STATS,
        ]
        cols_payload = collected[1].payload
        assert cols_payload["seq"] == 9
        assert cols_payload["count"] == len(rows)
        assert protocol.cols_to_rows(cols_payload["cols"]) == rows


class TestEndToEndEquality:
    @pytest.mark.parametrize("shards", [0, 4])
    def test_served_run_matches_the_in_process_run(self, shards):
        rows = make_rows(300)
        with serve(shards=shards) as server:
            with ServeClient(server.host, server.port) as client:
                for start in range(0, len(rows), 37):
                    client.insert(rows[start : start + 37])
                client.flush()
                served = client.query()
        assert canon(served) == canon(expected_rows(SQL, rows))

    def test_server_counts_columnar_rows(self):
        rows = make_rows(128)
        with serve() as server:
            with ServeClient(server.host, server.port) as client:
                client.insert(rows)
                client.flush()
                stats = client.stats()
        assert stats["server"]["rows_total"] == len(rows)
        assert stats["backend"]["tuples_in"] == len(rows)

    def test_stats_name_the_columns_read_and_count_the_blocks(self):
        # SQL reads time, destIP and len: 3 of a frame's 8 blocks.
        metrics = MetricsRegistry(enabled=True)
        backend = build_backend(SQL, PACKET_SCHEMA)
        assert backend.columns_read == (0, 3, 6)
        with ThreadedServer(StreamServer(backend, metrics=metrics)) as server:
            with ServeClient(server.host, server.port) as client:
                client.insert(make_rows(64))
                client.insert(make_rows(64, start=500))
                client.flush()
                stats = client.stats()
        assert stats["backend"]["columns_read"] == ["time", "destIP", "len"]
        assert stats["server"]["cols_blocks_decoded"] == 6
        assert stats["server"]["cols_blocks_skipped"] == 10
        mirrored = stats["metrics"]["metrics"]
        assert mirrored["serve.ingest.blocks_decoded"]["raw_total"] == 6
        assert mirrored["serve.ingest.blocks_skipped"]["raw_total"] == 10


class TestColumnarReplay:
    def test_unacked_columnar_batches_replay_across_restart(self, tmp_path):
        # The batch that dies with the first server is re-sent after the
        # reconnect, exactly once.
        rows = make_rows(200)
        first = serve_with_state(tmp_path)
        port = first.port
        client = ServeClient(
            first.host, port, retries=10, backoff_s=0.01
        )
        try:
            seq1 = client.insert(rows[:100])
            assert client.flush()["outcomes"] == {seq1: "acked"}
            first.stop()
            second = serve_with_state(tmp_path, port=port)
            try:
                seq2 = client.insert(rows[100:])
                report = client.flush()
                assert report["outcomes"][seq2] == "replayed"
                assert report["reconnects"] == 1
                assert canon(client.query()) == canon(
                    expected_rows(SQL, rows)
                )
            finally:
                second.stop()
        finally:
            client.close()
