"""Client-library behaviour: credits, flush, pushes, the asyncio driver,
and the sans-IO core fed scripted bytes through both drivers."""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.serve import (
    AsyncServeClient,
    ClientConnectionError,
    RemoteError,
    ServeClient,
    protocol,
)
from repro.serve import client as client_module
from repro.serve.client import _ClientCore
from tests.serve.util import (
    SQL,
    Awaitable,
    canon,
    expected_rows,
    make_rows,
    serve,
)


class TestSyncClient:
    def test_context_manager_says_goodbye(self):
        with serve() as server:
            with ServeClient(server.host, server.port) as client:
                client.insert(make_rows(12))
                client.flush()
            # after close the server saw a clean BYE: no errors recorded
            with ServeClient(server.host, server.port) as probe:
                assert probe.stats()["server"]["errors_total"] == 0

    def test_close_reports_connection_totals(self):
        with serve() as server:
            client = ServeClient(server.host, server.port)
            client.insert(make_rows(25))
            client.flush()
            goodbye = client.close()
        assert goodbye["tuples_in"] == 25

    def test_flush_surfaces_deferred_insert_errors(self):
        with serve() as server:
            with ServeClient(server.host, server.port) as client:
                client.insert([("bad",)])
                with pytest.raises(RemoteError) as excinfo:
                    client.flush()
                assert excinfo.value.code == "bad-rows"
                # the failed batch returned its credit
                client.flush()
                assert client.credits == client.window

    def test_query_sql_property(self):
        with serve() as server:
            with ServeClient(server.host, server.port) as client:
                assert "GROUP BY" in client.query_sql


class TestAsyncClient:
    def run(self, coroutine):
        return asyncio.run(coroutine)

    def test_full_surface(self):
        rows = make_rows(90)

        async def scenario(host, port):
            client = await AsyncServeClient.connect(host, port)
            for start in range(0, len(rows), 30):
                await client.insert(rows[start : start + 30])
            await client.flush()
            results = await client.query()
            await client.subscribe(0.01, count=2)
            pushes = await client.results(2)
            stats = await client.stats()
            goodbye = await client.close()
            return results, pushes, stats, goodbye

        with serve(shards=2) as server:
            results, pushes, stats, goodbye = self.run(
                scenario(server.host, server.port)
            )
        assert canon(results) == canon(expected_rows(SQL, rows))
        assert [p["done"] for p in pushes] == [False, True]
        assert stats["server"]["rows_total"] == len(rows)
        assert goodbye["tuples_in"] == len(rows)

    def test_async_flush_surfaces_errors(self):
        async def scenario(host, port):
            client = await AsyncServeClient.connect(host, port)
            try:
                await client.insert([(1,)])
                with pytest.raises(RemoteError) as excinfo:
                    await client.flush()
                return excinfo.value.code
            finally:
                await client.close()

        with serve() as server:
            assert self.run(scenario(server.host, server.port)) == "bad-rows"

    def test_results_match_sync_client(self):
        rows = make_rows(40)

        async def scenario(host, port):
            client = await AsyncServeClient.connect(host, port)
            await client.insert(rows)
            await client.flush()
            results = await client.query()
            await client.close()
            return results

        with serve() as server:
            async_rows = self.run(scenario(server.host, server.port))
            with ServeClient(server.host, server.port) as client:
                sync_rows = client.query()
        assert canon(async_rows) == canon(sync_rows)


class ScriptedTransport:
    """Replays scripted chunks and records sends — no socket anywhere.

    Wears both faces the drivers talk to: a blocking socket
    (``sendall`` / ``recv`` / ``close``) and an asyncio stream pair
    (``write`` / ``drain`` / ``read`` / ``wait_closed``).  One ``recv``
    hands over exactly one scripted chunk; an exhausted script reads as
    EOF, so a client that asks for bytes it should not need fails fast
    instead of hanging.
    """

    def __init__(self, chunks):
        self.chunks = list(chunks)
        self.sent: list[bytes] = []
        self.closed = False

    def sendall(self, data):
        self.sent.append(bytes(data))

    def recv(self, _size):
        return self.chunks.pop(0) if self.chunks else b""

    def close(self):
        self.closed = True

    write = sendall

    async def drain(self):
        pass

    async def read(self, size):
        return self.recv(size)

    async def wait_closed(self):
        pass


@pytest.fixture(params=["sync", "asyncio"])
def scripted(request, monkeypatch):
    """``run(chunks, scenario)``: connect the parametrised driver to a
    scripted transport, await ``scenario(client)``, return its result and
    the transport."""

    def run(chunks, scenario, **options):
        transport = ScriptedTransport(chunks)

        async def open_connection(host, port):
            return transport, transport

        monkeypatch.setattr(
            socket, "create_connection", lambda *a, **k: transport
        )
        monkeypatch.setattr(asyncio, "open_connection", open_connection)

        async def main():
            if request.param == "sync":
                client = Awaitable(ServeClient("scripted", 0, **options))
            else:
                client = await AsyncServeClient.connect(
                    "scripted", 0, **options
                )
            return await scenario(client)

        return asyncio.run(main()), transport

    return run


def frame(ftype, **payload) -> bytes:
    return protocol.encode_frame(ftype, payload)


WELCOME = frame(protocol.WELCOME, credits=2, wire_version=4, query="q")
ERROR = frame(protocol.ERROR, code="bad-rows", message="arity")
CREDIT = frame(protocol.CREDIT, credits=1, seq=1)
RESULT = frame(protocol.RESULT, rows=[])


def every_split(stream: bytes) -> list[list[bytes]]:
    """The stream whole, cut in two at every byte, and byte by byte."""
    cuts = [[stream[:k], stream[k:]] for k in range(1, len(stream))]
    return [[stream], *cuts, [stream[i : i + 1] for i in range(len(stream))]]


class TestScriptedCore:
    """The one state machine, fed bytes directly (ROADMAP's stranded-frame
    bug: ERROR and CREDIT in one chunk used to deadlock the next flush)."""

    @staticmethod
    async def rejected_batch(client):
        await client.insert([("bad",)])
        with pytest.raises(RemoteError) as excinfo:
            await client.flush()
        # The CREDIT behind the ERROR was book-kept with its chunk: the
        # second flush needs no further bytes (the script has none left,
        # so asking would read EOF).
        report = await client.flush()
        return excinfo.value.code, report, client.credits, client.window

    def test_error_and_credit_coalesced_in_one_chunk(self, scripted):
        outcome, transport = scripted(
            [WELCOME, ERROR + CREDIT], self.rejected_batch
        )
        # (the rejected batch still shows as credited back: "acked")
        report = {"outcomes": {1: "acked"}, "reconnects": 0}
        assert outcome == ("bad-rows", report, 2, 2)
        assert transport.chunks == []

    def test_flush_is_identical_at_every_byte_boundary(self, scripted):
        expected, _ = scripted([WELCOME, ERROR, CREDIT], self.rejected_batch)
        for chunks in every_split(ERROR + CREDIT):
            outcome, transport = scripted(
                [WELCOME, *chunks], self.rejected_batch
            )
            assert outcome == expected, chunks
            assert transport.chunks == [], chunks

    def test_oversized_batch_leaves_the_client_usable(self, scripted, monkeypatch):
        # Regression: the batch used to be given a seq, stored as unacked
        # and charged a credit *before* framing failed, so the next flush
        # waited for a CREDIT that could never come.
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 2048)

        async def scenario(client):
            with pytest.raises(protocol.FrameTooLarge):
                await client.insert(make_rows(2000))
            with pytest.raises(protocol.ProtocolError, match="ragged"):
                await client.insert_cols([[], [1]])  # not an empty batch
            untouched = (
                client.unacked_batches, client.unacked_rows,
                client.credits, client.window,
            )
            seq = await client.insert(make_rows(3))
            report = await client.flush()
            return untouched, seq, report, await client.query()

        outcome, transport = scripted([WELCOME, CREDIT, RESULT], scenario)
        report = {"outcomes": {1: "acked"}, "reconnects": 0}
        assert outcome == (([], 0, 2, 2), 1, report, [])
        assert transport.chunks == []
        assert len(transport.sent) == 3  # HELLO, one INSERT_COLS, QUERY

    def test_empty_batch_sends_nothing(self, scripted):
        # Regression: insert([]) used to go out as a zero-column frame
        # and come back as a bad-rows ERROR on the next read.
        async def scenario(client):
            rows = await client.insert([]), await client.flush()
            cols = (
                await client.insert_cols([]),
                await client.insert_cols([[], []]),
                await client.flush(),
            )
            return rows, cols, client.credits

        outcome, transport = scripted([WELCOME], scenario)
        report = {"outcomes": {}, "reconnects": 0}
        assert outcome == ((None, report), (None, None, report), 2)
        assert len(transport.sent) == 1  # the HELLO

    def test_replay_resends_the_stored_frame_bytes(self, scripted):
        # The connection drops with seq 1 unacknowledged (b"" is EOF);
        # the reconnect re-sends the very bytes packed at registration,
        # once, and the CREDIT that follows retires the batch for good.
        async def scenario(client):
            seq = await client.insert(make_rows(5))
            report = await client.flush()
            return seq, report, client.unacked_batches

        outcome, transport = scripted(
            [WELCOME, b"", WELCOME, CREDIT], scenario,
            retries=2, backoff_s=0.001,
        )
        report = {"outcomes": {1: "replayed"}, "reconnects": 1}
        assert outcome == (1, report, [])
        hello, batch, hello_again, replay = transport.sent
        assert hello == hello_again
        assert replay == batch
        frame = protocol.decode_frame_body(batch[protocol.HEADER.size :])
        assert frame.ftype == protocol.INSERT_COLS
        assert (frame.payload["seq"], frame.payload["count"]) == (1, 5)

    @pytest.mark.parametrize("draw, scale", [(1.0, 1.0), (0.0, 0.5)])
    def test_reconnect_backoff_doubles_up_to_its_cap(
        self, monkeypatch, draw, scale
    ):
        # Every dial is refused: the core sleeps before each attempt,
        # doubling from backoff_s until the cap, then gives up.  The
        # jitter draw only ever shortens a delay, by at most half.
        monkeypatch.setattr(client_module.random, "random", lambda: draw)
        steps = _ClientCore("scripted", 0, retries=6, backoff_s=0.25)._reconnect()
        sleeps = []
        request = next(steps)
        with pytest.raises(ClientConnectionError, match="after 6 attempt"):
            while True:
                if request[0] == "sleep":
                    sleeps.append(request[1])
                    request = steps.send(None)
                else:
                    request = steps.throw(ConnectionRefusedError("refused"))
        assert sleeps == [scale * s for s in (0.25, 0.5, 1.0, 2.0, 2.0, 2.0)]

    def test_handshake_uses_the_same_decode_loop(self, scripted):
        # WELCOME trickling in byte by byte, and frames sharing the
        # WELCOME's chunk, are not lost with a handshake-private decoder.
        async def scenario(client):
            return await client.query(), client.credits

        byte_by_byte = [WELCOME[i : i + 1] for i in range(len(WELCOME))]
        outcome, _ = scripted([*byte_by_byte, RESULT], scenario)
        assert outcome == ([], 2)
        push = frame(protocol.RESULT, rows=[], sub=1, seq=1, done=True)

        async def pushed(client):
            return await client.results(1)

        outcome, _ = scripted([WELCOME + push], pushed)
        assert [p["seq"] for p in outcome] == [1]

    def test_handshake_error_raises_and_releases_the_transport(self, scripted):
        refused = frame(protocol.ERROR, code="schema-mismatch", message="no")
        with pytest.raises(RemoteError) as excinfo:
            scripted([refused], None)
        assert excinfo.value.code == "schema-mismatch"

    def test_eof_marks_the_client_dead_once(self, scripted):
        async def scenario(client):
            with pytest.raises(ClientConnectionError) as first:
                await client.query()
            with pytest.raises(ClientConnectionError) as second:
                await client.stats()
            return first.value is second.value, await client.close()

        outcome, transport = scripted([WELCOME], scenario)
        assert outcome == (True, {})
        assert transport.closed


#: Seven result rows paged three to a frame (the limit forces the halving
#: from RESULT_PAGE_ROWS down): pages of 3 + 3 + 1.
PAGED_ROWS = [{"tb": 1, "destIP": f"d{i}", "c": i, "s": 40.5 * i} for i in range(7)]
PAGE_LIMIT = 300


def pages(rows=PAGED_ROWS, **push) -> list[bytes]:
    return list(
        protocol.result_pages(rows, max_frame_bytes=PAGE_LIMIT, **push)
    )


def core(client):
    """The client itself, for its plain (non-I/O) methods: the sync
    driver comes wrapped in :class:`Awaitable`."""
    return getattr(client, "_client", client)


class TestScriptedPages:
    """A RESULT is a page sequence: reassembled inside the one core, for
    both drivers, whatever the chunking and whatever arrives between."""

    @staticmethod
    async def ask(client):
        return await client.query()

    def test_the_fixture_really_is_several_pages(self):
        frames = pages()
        assert len(frames) == 3
        decoded = [
            protocol.decode_frame_body(f[protocol.HEADER.size:]).payload
            for f in frames
        ]
        assert [p.get("more") for p in decoded] == [True, True, None]
        assert [len(p["rows"]) for p in decoded] == [3, 3, 1]
        assert all(len(f) - protocol.HEADER.size <= PAGE_LIMIT for f in frames)

    def test_pages_reassemble_at_every_byte_boundary(self, scripted):
        stream = b"".join(pages())
        for chunks in every_split(stream):
            outcome, transport = scripted([WELCOME, *chunks], self.ask)
            assert outcome == PAGED_ROWS, chunks
            assert transport.chunks == [], chunks

    def test_credit_and_push_pages_between_direct_pages_are_book_kept(
        self, scripted
    ):
        direct = pages()
        push = pages(PAGED_ROWS[:4], sub=1, seq=1, done=True)
        assert len(push) == 2

        async def scenario(client):
            await client.insert(make_rows(3))
            rows = await client.query()
            # The push completed while the direct reply was being read;
            # no further bytes are needed to hand it over.
            assert core(client).has_pushes()
            return rows, client.credits, await client.results(1)

        outcome, transport = scripted(
            [WELCOME, direct[0] + CREDIT + push[0], direct[1] + push[1],
             direct[2]],
            scenario,
        )
        rows, credits, pushes = outcome
        assert rows == PAGED_ROWS
        assert credits == 2
        assert pushes == [
            {"sub": 1, "seq": 1, "done": True, "rows": PAGED_ROWS[:4]}
        ]
        assert transport.chunks == []

    def test_only_completed_pushes_surface(self, scripted):
        first, second = pages(PAGED_ROWS[:4], sub=7, seq=2, done=False)

        async def scenario(client):
            await client.query()
            held_back = (core(client).has_pushes(), core(client).drain_pushes())
            return held_back, await client.results(1)

        outcome, _ = scripted([WELCOME, first + RESULT, second], scenario)
        held_back, pushes = outcome
        assert held_back == (False, [])
        assert pushes == [
            {"sub": 7, "seq": 2, "done": False, "rows": PAGED_ROWS[:4]}
        ]

    def test_error_mid_sequence_returns_nothing(self, scripted):
        too_large = frame(
            protocol.ERROR, code="reply-too-large", message="RESULT frame is"
        )

        async def scenario(client):
            with pytest.raises(RemoteError) as excinfo:
                await client.query()
            # The sequence ended with the ERROR: the next reply is the
            # next request's, not a stray page.
            return excinfo.value.code, await client.query()

        first_page = pages()[0]
        outcome, transport = scripted(
            [WELCOME, first_page + too_large, RESULT], scenario
        )
        assert outcome == ("reply-too-large", [])
        assert transport.chunks == []

    def test_error_in_place_of_a_push_page_voids_that_push(self, scripted):
        first, _second = pages(PAGED_ROWS[:4], sub=1, seq=1, done=False)
        failed = frame(
            protocol.ERROR, code="reply-too-large", message="m", sub=1
        )
        whole = pages(PAGED_ROWS[:1], sub=1, seq=2, done=True)[0]

        async def scenario(client):
            with pytest.raises(RemoteError):
                await client.results(1)
            return await client.results(1)

        outcome, _ = scripted([WELCOME, first + failed, whole], scenario)
        assert outcome == [
            {"sub": 1, "seq": 2, "done": True, "rows": PAGED_ROWS[:1]}
        ]

    def test_drop_after_the_first_page_restarts_the_query(self, scripted):
        frames = pages()
        outcome, transport = scripted(
            [WELCOME, frames[0], b"", WELCOME, *frames], self.ask,
            retries=2, backoff_s=0.001,
        )
        # The full answer, once: the first connection's page is gone.
        assert outcome == PAGED_ROWS
        hello, query, hello_again, query_again = transport.sent
        assert (hello, query) == (hello_again, query_again)
        assert transport.chunks == []
