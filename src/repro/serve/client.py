"""Client library for the ``repro.serve`` protocol (sync and asyncio).

The whole client is :class:`_ClientCore`: every operation — handshake,
inserts, queries, reconnects — is written once as a *sans-IO generator*
that yields I/O requests and is resumed with their results: ``("dial",)``
opens a fresh transport (closing any previous one), ``("send", data)``
writes all of ``data``, ``("recv",)`` reads one chunk (``b""`` is EOF),
``("sleep", seconds)`` waits out a backoff, ``("close",)`` releases the
transport.  :class:`ServeClient` answers those requests on a blocking
socket — what the CLI, the test suite, and the loopback benchmark use —
:class:`AsyncServeClient` on asyncio streams.  The drivers hold no
protocol logic: a transport error is thrown back into the generator,
which decides what it means.  All framing lives in
:mod:`repro.serve.protocol`.  Only :class:`AsyncServeClient` imports
asyncio, when it performs I/O — by then its coroutine is running on a
loop, so the import is a ``sys.modules`` hit — and a process that only uses
:class:`ServeClient` never loads asyncio, ``ssl`` or OpenSSL.

Credit discipline: the WELCOME frame grants an insert window; every
:meth:`~ServeClient.insert` spends one credit and the server returns it
(CREDIT) once the batch is ingested.  At zero credits the client blocks
reading frames until a credit arrives — backpressure, not buffering.

Incoming frames: every received chunk is book-kept *completely* before
anyone acts on it — CREDITs update the window, subscription RESULT pages
collect per subscription and queue for :meth:`~ServeClient.results` once
the last page of a push is in, direct replies (ERROR included) queue in
stream order, and a queued ERROR raises
:class:`~repro.serve.protocol.RemoteError` when it reaches the front.
A RESULT is a page sequence (:mod:`repro.serve.protocol`):
:meth:`~ServeClient.query` decodes each page as it arrives and returns
only a complete answer — an ERROR or a reconnect mid-sequence discards
the pages so far (the retried query starts over).

Failure handling: any transport error (``socket.timeout``, a reset, EOF)
marks the client **dead** — the transport is closed and every later call
fails fast with the same structured :class:`ClientConnectionError` instead
of confusing errors off a half-broken stream.  With ``retries > 0`` the
client instead reconnects with jittered exponential backoff and replays
exactly the unacknowledged batches: each batch carries a ``seq`` the
server echoes on its CREDIT, so an acked batch is never re-sent and an
unacked one is sent at most once per connection epoch.

Rows stop here: :meth:`~ServeClient.insert` transposes once and all
below sees columns.  A batch is packed into its ``INSERT_COLS`` frame
when it is registered, *before* it takes a ``seq`` or a credit, so one
the wire cannot carry (:class:`~repro.serve.protocol.FrameTooLarge`)
leaves the client as it was; a replay re-sends the stored bytes.
:meth:`~ServeClient.flush` then reports a deterministic per-batch outcome
(``acked`` or ``replayed``) even across a server restart.
"""

from __future__ import annotations

import functools
import random
import socket
import time

from repro.core.cols import row_count
from repro.core.errors import DecayError, ProtocolError
from repro.serve import protocol
from repro.serve.protocol import Frame, FrameDecoder, RemoteError

__all__ = ["ServeClient", "AsyncServeClient", "ClientConnectionError"]

#: How many bytes one ``recv`` asks the transport for.
_RECV_BYTES = 64 * 1024

#: The cap a reconnect's doubling backoff stops growing at, in seconds.
_BACKOFF_MAX_S = 2.0


class ClientConnectionError(DecayError, ConnectionError):
    """The client's transport is gone (timeout, reset, or EOF).

    Raised by the call that hit the error and by every call after it: a
    dead client stays dead (fail-fast) unless it was built with
    ``retries > 0``, in which case the failing call reconnects and
    resumes.  ``last_error`` keeps the underlying transport exception.
    """

    def __init__(self, message: str, last_error: BaseException | None = None):
        super().__init__(message)
        self.last_error = last_error


def _operation(method):
    """Expose a sans-IO generator method as a call the driver runs.

    ``self._run`` is the driver's loop: blocking for :class:`ServeClient`
    (the call returns the result), a coroutine for
    :class:`AsyncServeClient` (the call returns an awaitable).
    """

    @functools.wraps(method)
    def call(self, *args, **kwargs):
        return self._run(method(self, *args, **kwargs))

    return call


class _ClientCore:
    """The transport-free client: state machine and every operation.

    Generator methods yield the I/O requests listed in the module
    docstring; the driver subclass supplies ``_run``.  Construction only
    sets state — the drivers decide when to run :meth:`_connect`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        schema_names: list | None = None,
        retries: int = 0,
        backoff_s: float = 0.05,
    ):
        if retries < 0:
            raise protocol.ProtocolError(
                f"retries must be >= 0, got {retries!r}"
            )
        if backoff_s <= 0:
            raise protocol.ProtocolError(
                f"backoff_s must be positive, got {backoff_s!r}"
            )
        self._host = host
        self._port = port
        self._schema_names = schema_names
        self._decoder = FrameDecoder(protocol.MAX_FRAME_BYTES)
        self._pending: list[Frame] = []  # direct replies, ERRORs included
        self._pushes: list[dict] = []  # completed pushes, rows still tagged
        self._push_pages: dict = {}  # sub -> tagged rows of a push in flight
        self.credits = 0
        self.window = 0
        self.server_info: dict = {}
        self.retries = retries
        self.backoff_s = backoff_s
        self.reconnects = 0
        self._dead: ClientConnectionError | None = None
        self._closed = False
        self._close_info: dict = {}
        # Batch-replay accounting: every batch gets a client-unique seq;
        # the server echoes it on the CREDIT that acknowledges the batch.
        self._next_seq = 1
        # seq -> (row count, INSERT_COLS frame bytes), oldest first
        self._unacked: dict[int, tuple[int, bytes]] = {}
        self._sent_on_conn: set[int] = set()  # seqs sent this connection
        self._outcomes: dict[int, str] = {}  # seq -> "acked" | "replayed"

    # -- introspection -------------------------------------------------------------

    @property
    def query_sql(self) -> str:
        return self.server_info.get("query", "")

    @property
    def auto_reconnect(self) -> bool:
        """Whether transport errors trigger reconnect instead of fail-fast."""
        return self.retries > 0

    @property
    def unacked_batches(self) -> list[int]:
        """Seqs of batches sent but not yet credited, oldest first."""
        return list(self._unacked)

    @property
    def unacked_rows(self) -> int:
        """Rows in batches sent but not yet credited.

        These rows will be replayed after a reconnect, so a router doing
        loss accounting counts only *acked* rows (``sent - unacked``)
        against a node's last checkpoint.
        """
        return sum(count for count, _frame in self._unacked.values())

    def drain_pushes(self) -> list[dict]:
        """Subscription results buffered so far (decoded, arrival order);
        a push still missing pages is not among them."""
        pushes, self._pushes = self._pushes, []
        for push in pushes:
            push["rows"] = protocol.decode_result_rows(push["rows"])
        return pushes

    def has_pushes(self) -> bool:
        return bool(self._pushes)

    # -- transport requests --------------------------------------------------------

    def _mark_dead(self, error: BaseException) -> ClientConnectionError:
        """Record the transport death; all later calls fail with this."""
        if self._dead is None:
            self._dead = ClientConnectionError(
                f"connection lost: {error}", last_error=error
            )
        return self._dead

    def _ensure_usable(self) -> None:
        if self._closed:
            raise ClientConnectionError("client is closed")
        if self._dead is not None:
            raise self._dead

    def _io(self, *request):
        """One send/recv; any transport error (timeout included) kills
        the connection so no later call ever reuses the poisoned stream."""
        try:
            reply = yield request
            if reply == b"":
                raise ConnectionError("server closed the connection")
        except OSError as error:
            yield ("close",)
            raise self._mark_dead(error) from error
        return reply

    def _send(self, ftype: int, payload: dict | bytes | None = None):
        frame = protocol.encode_frame(
            ftype, payload, max_frame_bytes=protocol.MAX_FRAME_BYTES
        )
        yield from self._io("send", frame)

    def _pump(self):
        """Receive one chunk and book-keep every frame it completes.

        Nothing raises mid-chunk: CREDITs are absorbed, pushes and
        replies queued, and an ERROR waits its turn in ``_pending`` — so
        a CREDIT that shares a chunk with an ERROR is never stranded
        undecoded behind it.
        """
        self._decoder.feed((yield from self._io("recv")))
        for frame in self._decoder.frames():
            if frame.ftype == protocol.CREDIT:
                self._absorb_credit(frame.payload)
            elif frame.ftype == protocol.RESULT and "sub" in frame.payload:
                self._absorb_push_page(frame.payload)
            else:
                if frame.ftype == protocol.ERROR and "sub" in frame.payload:
                    # In place of a page: that push will never complete.
                    self._push_pages.pop(frame.payload["sub"], None)
                self._pending.append(frame)

    def _absorb_push_page(self, page: dict) -> None:
        sub = page["sub"]
        rows = self._push_pages.setdefault(sub, [])
        rows.extend(page["rows"])
        if not page.get("more"):
            del self._push_pages[sub]
            self._pushes.append(
                {
                    "sub": sub,
                    "seq": page.get("seq"),
                    "done": page.get("done", False),
                    "rows": rows,
                }
            )

    def _absorb_credit(self, payload: dict) -> None:
        self.credits += int(payload.get("credits", 1))
        self._unacked.pop(payload.get("seq"), None)
        # The server may grant 0 or 2 credits per batch to shrink or
        # grow the window under backend pressure; track the implied
        # window so flush's drain target follows it instead of
        # waiting forever for credits the server withheld.
        self.window = self.credits + len(self._unacked)

    def _take_reply(self) -> Frame | None:
        """Pop the oldest queued reply; a queued ERROR raises here."""
        if not self._pending:
            return None
        frame = self._pending.pop(0)
        if frame.ftype == protocol.ERROR:
            raise RemoteError(
                frame.payload.get("code", "error"),
                frame.payload.get("message", ""),
            )
        return frame

    def _recv_reply(self, ftype: int):
        """The next direct reply, which must be a ``ftype`` frame —
        buffered frames are drained before asking for more bytes."""
        while True:
            frame = self._take_reply()
            if frame is None:
                yield from self._pump()
            elif frame.ftype == ftype:
                return frame
            else:
                raise RemoteError(
                    "unexpected-frame",
                    f"expected {protocol.frame_name(ftype)}, got {frame.name}",
                )

    def _wait(self, done, what: str):
        """Absorb bookkeeping frames until ``done()``; a direct reply is
        out of place here and a deferred ERROR surfaces first."""
        while True:
            frame = self._take_reply()
            if frame is not None:
                raise RemoteError(
                    "unexpected-frame",
                    f"got {frame.name} while waiting for {what}",
                )
            if done():
                return
            yield from self._pump()

    def _await_credit(self):
        yield from self._wait(lambda: self.credits >= 1, "CREDIT")

    # -- handshake / reconnect -----------------------------------------------------

    def _connect(self):
        """Dial, handshake, and adopt the fresh connection (new decoder,
        full credit window); a handshake ERROR propagates."""
        yield ("dial",)
        self._decoder = FrameDecoder(protocol.MAX_FRAME_BYTES)
        self._pending = []
        self._push_pages = {}
        hello = {"wire_version": protocol.WIRE_VERSION, "client": "repro"}
        if self._schema_names is not None:
            hello["schema"] = list(self._schema_names)
        yield from self._send(protocol.HELLO, hello)
        welcome = yield from self._recv_reply(protocol.WELCOME)
        self.server_info = welcome.payload
        self.credits = int(welcome.payload.get("credits", 1))
        self.window = self.credits
        self._sent_on_conn = set()

    def _reconnect(self):
        """Rebuild the connection with capped exponential backoff, each
        delay jittered down by up to half; replay unacked batches."""
        last: BaseException | None = self._dead
        for attempt in range(self.retries):
            delay = min(_BACKOFF_MAX_S, self.backoff_s * (2.0 ** attempt))
            yield ("sleep", delay * (0.5 + 0.5 * random.random()))
            try:
                yield from self._connect()
                self._dead = None
                self.reconnects += 1
                yield from self._replay_unacked()
                return
            except OSError as error:
                last = error
        raise ClientConnectionError(
            f"reconnect to {self._host}:{self._port} failed after "
            f"{self.retries} attempt(s): {last}",
            last_error=last,
        )

    def _replay_unacked(self):
        """Re-send every unacknowledged batch once, in seq order.

        The fresh WELCOME granted a full credit window and at most
        ``window`` batches can be outstanding, so replay never waits for
        credit.  Batches acked on the old connection are never re-sent —
        at most once per batch relative to the server's restored state.
        """
        for seq in list(self._unacked):
            self._outcomes[seq] = "replayed"
            yield from self._send_batch(seq)

    def _retrying(self, operation):
        """Run ``operation()``, reconnecting across transport deaths."""
        attempts = 0
        while True:
            if self._dead is not None and self.auto_reconnect and not self._closed:
                yield from self._reconnect()
            self._ensure_usable()
            try:
                return (yield from operation())
            except ClientConnectionError:
                attempts += 1
                if not self.auto_reconnect or attempts > self.retries:
                    raise

    def _ask(
        self, ftype: int, reply_type: int, payload: dict | bytes | None = None
    ):
        """One request/reply exchange, retried across reconnects."""

        def exchange():
            yield from self._send(ftype, payload)
            return (yield from self._recv_reply(reply_type))

        return (yield from self._retrying(exchange))

    # -- ingest --------------------------------------------------------------------

    def _send_batch(self, seq: int):
        """Spend a credit and send a registered batch's stored frame —
        first delivery and replay write the same bytes."""
        self.credits -= 1
        self._sent_on_conn.add(seq)
        yield from self._io("send", self._unacked[seq][1])

    def _ship(self, cols: list):
        """Pack a column batch into its frame, track it under the next
        seq until its CREDIT, and deliver it under the credit window.

        An empty batch sends nothing and returns ``None``; one that
        cannot be framed (ragged, over ``MAX_FRAME_BYTES``) raises before
        any state changes.
        """
        count = row_count(cols)
        if count == 0:
            return None
        seq = self._next_seq
        frame = protocol.encode_cols(
            cols, seq=seq, max_frame_bytes=protocol.MAX_FRAME_BYTES
        )
        self._next_seq += 1
        self._unacked[seq] = (count, frame)
        self._outcomes[seq] = "acked"  # its fate by the next flush, unless replayed

        def deliver():
            # Already acked (or replayed by a reconnect) — nothing to do.
            if seq in self._unacked and seq not in self._sent_on_conn:
                yield from self._await_credit()
                yield from self._send_batch(seq)

        yield from self._retrying(deliver)
        return seq

    @_operation
    def insert(self, rows: list[tuple]) -> int | None:
        """Send one batch of row tuples, honouring the credit window.

        Transposed here, once: :meth:`insert_cols` from then on.  Returns
        the batch's ``seq`` (``None`` for an empty batch).  With retries
        enabled the batch is delivered across reconnects (replayed only
        if unacknowledged); without, a transport error marks the client
        dead and raises.
        """
        return (yield from self._ship(protocol.rows_to_cols(rows)))

    #: Send one batch already in columns (one equal-length list per schema
    #: field) — what :meth:`insert` becomes after its transpose.
    insert_cols = _operation(_ship)

    @_operation
    def flush(self) -> dict:
        """Block until every in-flight batch has been acknowledged.

        Inserts pipeline up to the credit window, so a rejected batch
        raises :class:`RemoteError` on a *later* read; ``flush`` waits for
        all outstanding credits, surfacing any such error deterministically.

        Returns a report: ``{"outcomes": {seq: "acked" | "replayed"},
        "reconnects": total}`` covering every batch inserted since the
        previous flush — deterministic even across a server restart
        (``replayed`` batches were re-sent after a reconnect, everything
        else was acknowledged first try).
        """

        def drained() -> bool:
            return self.credits >= self.window and not self._unacked

        yield from self._retrying(lambda: self._wait(drained, "CREDIT"))
        outcomes, self._outcomes = self._outcomes, {}
        return {"outcomes": outcomes, "reconnects": self.reconnects}

    # -- reads ---------------------------------------------------------------------

    @_operation
    def query(self) -> list[dict]:
        """Evaluate the continuous query over everything ingested so far.

        The answer arrives as a page sequence and is returned whole: each
        page is decoded as it lands, an ERROR in place of a page raises
        with nothing returned, and a reconnect mid-sequence re-asks.
        """

        def exchange():
            yield from self._send(protocol.QUERY)
            rows: list[dict] = []
            while True:
                page = (yield from self._recv_reply(protocol.RESULT)).payload
                rows.extend(protocol.decode_result_rows(page["rows"]))
                if not page.get("more"):
                    return rows

        return (yield from self._retrying(exchange))

    @_operation
    def subscribe(self, interval_s: float, count: int | None = None) -> None:
        """Ask for periodic RESULT pushes; collect them via :meth:`results`.

        Subscriptions are per-connection state: a reconnect does not
        re-subscribe (re-issue :meth:`subscribe` after a retry if needed).
        """
        yield from self._retrying(
            lambda: self._send(
                protocol.SUBSCRIBE, {"interval_s": interval_s, "count": count}
            )
        )

    @_operation
    def results(self, count: int) -> list[dict]:
        """Block until ``count`` subscription pushes have arrived."""
        self._ensure_usable()
        collected: list[dict] = []
        while len(collected) < count:
            yield from self._wait(self.has_pushes, "pushes")
            collected.extend(self.drain_pushes())
        return collected

    @_operation
    def checkpoint(self) -> dict:
        """Force a server-side checkpoint; returns ``{"path", "bytes"}``."""
        reply = yield from self._ask(protocol.CHECKPOINT, protocol.CHECKPOINT_OK)
        return reply.payload

    @_operation
    def stats(self) -> dict:
        """Server / backend / metrics statistics."""
        return (yield from self._ask(protocol.STATS, protocol.STATS_OK)).payload

    @_operation
    def partials(self) -> list[bytes]:
        """The server backend's partial-state blobs (mergeable, exact).

        What a cluster coordinator fans out to every node and folds with
        :func:`repro.dsms.engine.fold_partials`; the node keeps its state
        and keeps ingesting.
        """
        reply = yield from self._ask(protocol.PARTIALS, protocol.PARTIALS_OK)
        return protocol.decode_blobs(reply.payload["body"])

    @_operation
    def adopt(self, blobs: list[bytes]) -> int:
        """Fold foreign partial-state blobs into the server's backend.

        The shard-rebalance shipping path: blobs taken from one node
        (via :meth:`partials` or its on-disk checkpoint) merge exactly
        into another.  Returns the number of blobs adopted.
        """
        reply = yield from self._ask(
            protocol.ADOPT,
            protocol.ADOPT_OK,
            protocol.encode_blobs(blobs),
        )
        return int(reply.payload.get("adopted", 0))

    # -- shutdown ------------------------------------------------------------------

    @_operation
    def close(self) -> dict:
        """Graceful BYE → GOODBYE; returns the connection totals.

        Idempotent and exception-free on a dead or already-closed
        transport (the :meth:`close_abruptly` contract): if the server
        dropped the connection first — idle timeout, restart — close
        simply releases the transport and returns ``{}``; repeated calls
        return the first result.
        """
        if self._closed:
            return self._close_info
        if self._dead is None:
            try:
                yield from self._send(protocol.BYE)
                goodbye = yield from self._recv_reply(protocol.GOODBYE)
                self._close_info = goodbye.payload
            except (ProtocolError, OSError):
                self._close_info = {}
        self._closed = True
        yield ("close",)
        return self._close_info

    @_operation
    def close_abruptly(self) -> None:
        """Drop the transport with no BYE (tests: mid-stream disconnects)."""
        self._closed = True
        yield ("close",)


class ServeClient(_ClientCore):
    """Blocking TCP client; performs the HELLO handshake on construction.

    Usable as a context manager::

        with ServeClient(host, port) as client:
            client.insert(rows)
            results = client.query()

    With ``retries=N`` (opt-in) the client survives transport failures and
    server restarts: failed calls reconnect with exponential backoff
    (``backoff_s`` doubling per attempt up to 2 s, jittered),
    and unacknowledged batches are replayed by ``seq`` — see the
    module docstring for the exact semantics.  ``timeout_s`` bounds every
    socket operation; ``options`` are :class:`_ClientCore`'s keywords
    (``schema_names``, ``retries``, ``backoff_s``).
    """

    def __init__(
        self, host: str, port: int, *, timeout_s: float | None = 30.0, **options
    ):
        super().__init__(host, port, **options)
        self._timeout_s = timeout_s
        self._sock: socket.socket | None = None
        try:
            self._run(self._connect())
        except BaseException:
            self._perform("close")
            raise

    def _run(self, steps):
        """Drive one core generator to completion on the blocking socket:
        each request's result is sent back in, its failure thrown in."""
        resume, value = steps.send, None
        try:
            while True:
                request = resume(value)
                try:
                    resume, value = steps.send, self._perform(*request)
                except OSError as error:
                    resume, value = steps.throw, error
        except StopIteration as done:
            return done.value

    def _perform(self, op: str, arg=None):
        if op == "send":
            self._sock.sendall(arg)
        elif op == "recv":
            return self._sock.recv(_RECV_BYTES)
        elif op == "sleep":
            time.sleep(arg)
        elif self._sock is not None:  # "dial" replaces, "close" releases
            self._sock.close()
        if op == "dial":
            self._sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout_s
            )

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AsyncServeClient(_ClientCore):
    """The same protocol surface on asyncio streams.

    Construct via :meth:`connect` (the handshake is async); every
    operation of :class:`ServeClient` is awaitable here::

        client = await AsyncServeClient.connect(host, port)
        await client.insert(rows)
        rows = await client.query()
        await client.close()

    Supports the same opt-in ``retries`` / backoff / seq-replay semantics
    as :class:`ServeClient`, with ``asyncio.sleep`` backoff.
    """

    _reader = None
    _writer = None

    @classmethod
    async def connect(cls, host: str, port: int, **options) -> "AsyncServeClient":
        """Dial and handshake; ``options`` as for :class:`ServeClient`
        (minus ``timeout_s``)."""
        client = cls(host, port, **options)
        try:
            await client._run(client._connect())
        except BaseException:
            if client._writer is not None:
                client._writer.close()
            raise
        return client

    async def _run(self, steps):
        """Drive one core generator to completion on the asyncio streams
        (the same loop as :meth:`ServeClient._run`, awaiting the I/O)."""
        resume, value = steps.send, None
        try:
            while True:
                request = resume(value)
                try:
                    resume, value = steps.send, await self._perform(*request)
                except OSError as error:
                    resume, value = steps.throw, error
        except StopIteration as done:
            return done.value

    async def _perform(self, op: str, arg=None):
        import asyncio

        if op == "send":
            self._writer.write(arg)
            await self._writer.drain()
        elif op == "recv":
            return await self._reader.read(_RECV_BYTES)
        elif op == "sleep":
            await asyncio.sleep(arg)
        elif self._writer is not None:  # "dial" replaces, "close" releases
            self._writer.close()
            if op == "close":
                try:
                    await self._writer.wait_closed()
                except OSError:
                    pass
        if op == "dial":
            self._reader, self._writer = await asyncio.open_connection(
                self._host, self._port
            )
