"""`StreamServer`: asyncio TCP ingestion + continuous-query serving.

One server owns one continuous query (like a GS instance owns a GSQL
query) behind a :mod:`repro.serve.backend`.  Clients speak the framed
protocol of :mod:`repro.serve.protocol`; any number may connect, and all
feed the same engine — partitioned merges happen behind the backend, not
per connection.

Design notes:

* **Atomic handlers, no engine lock.**  Engine calls are synchronous and
  contain no ``await``, so under asyncio's cooperative scheduling each
  frame's engine work is atomic — concurrent connections interleave only
  *between* frames.  The cost is that a huge batch briefly blocks the
  loop; the credit window keeps that bounded.
* **Credit-based backpressure.**  WELCOME grants ``credit_window``
  credits; each INSERT_COLS consumes one and earns a CREDIT back once
  the batch has been ingested.  A well-behaved client therefore never has
  more than ``credit_window`` unprocessed batches in flight — the wire
  analogue of the bounded ``mp.Queue`` between the shard router and its
  workers.  A client that ignores credits just fills kernel socket
  buffers: the server reads one frame at a time, so memory stays bounded
  regardless.
* **Failure scoping.**  Framing violations (bad length, oversized frame,
  undecodable body) poison the byte stream, so the server answers ERROR
  and drops that connection.  Semantic problems (unknown frame type, bad
  rows, engine errors) answer ERROR and keep the connection.  A handler
  failing with anything else is logged with its traceback and costs that
  connection an ``internal-error`` ERROR.  Nothing a client sends can
  take the process down.
* **Reads are a snapshot, then pages.**  A QUERY (or a subscription tick)
  takes the backend's answer in one synchronous step, then sends it as
  :func:`~repro.serve.protocol.result_pages`, each page encoded only
  once the previous one drained: ingest interleaves between pages
  without changing the answer, and a reader that stops reading holds
  the server at one undrained page.
* **Checkpoint on shutdown — and on an interval.**  With a ``state_dir``,
  a graceful stop drains connections and persists every backend partial
  state through :func:`repro.core.serde.dump_partials_checkpoint`; a
  server started over the same directory restores it and resumes
  mid-stream.  A production crash never grants a graceful stop, so
  ``checkpoint_interval_s`` additionally writes the same atomic
  (write-then-rename) checkpoint from a background task: restart after a
  ``kill -9`` resumes from the last completed interval instead of from
  empty, bounding the lost delta to one interval of ingest (DESIGN.md §6.4).
"""

from __future__ import annotations

import asyncio
import logging
import os
import threading
import time

from repro.core.errors import (
    DecayError,
    ParameterError,
    ProtocolError,
    SchemaError,
)
from repro.core.serde import (
    CHECKPOINT_FILENAME,
    dump_partials_checkpoint,
    load_partials_checkpoint,
    publish,
)
from repro.obs.registry import MetricsRegistry
from repro.serve import protocol
from repro.serve.protocol import HEADER, encode_frame, frame_name

__all__ = ["StreamServer", "ThreadedServer", "CHECKPOINT_FILENAME"]

_log = logging.getLogger(__name__)

#: How long a closing connection may take to flush the replies it has
#: buffered.  A peer that stopped reading never takes them, so after this
#: its transport is aborted: a stop is bounded by the grace, not the peer.
CLOSE_GRACE_S = 0.5

#: The JSON checkpoint earlier builds wrote; a state dir holding only this
#: is refused at start-up rather than silently started empty.
_LEGACY_CHECKPOINT = "checkpoint.json"


class _CloseConnection(Exception):
    """Internal: raised by handlers to end the connection after a reply."""


class _Connection:
    """Per-connection state: writer serialization, credits, subscriptions."""

    def __init__(self, reader, writer, server: "StreamServer"):
        self.reader = reader
        self.writer = writer
        self.server = server
        self.hello_done = False
        self.tuples_in = 0
        self.window = 0  # credits outstanding client-side (server's view)
        self.subscriptions: list[asyncio.Task] = []
        #: The ``_on_connection`` task serving this connection.
        self.handler = asyncio.current_task()
        self._next_sub = 1
        self._write_lock = asyncio.Lock()

    def next_subscription_id(self) -> int:
        sub = self._next_sub
        self._next_sub += 1
        return sub

    async def send(self, ftype: int, payload: dict | bytes | None = None) -> None:
        # Encoded before anything is written: a reply over the limit
        # raises FrameTooLarge with the byte stream still intact.
        await self.write(
            encode_frame(
                ftype, payload, max_frame_bytes=self.server.max_frame_bytes
            )
        )

    async def write(self, frame: bytes) -> None:
        """Write one encoded frame and wait until the socket has taken it."""
        server = self.server
        server.largest_reply_frame_bytes = max(
            server.largest_reply_frame_bytes, len(frame) - HEADER.size
        )
        async with self._write_lock:
            self.writer.write(frame)
            await self.writer.drain()

    async def close(self) -> None:
        """Close the transport: buffered replies get ``CLOSE_GRACE_S`` to
        drain, then whatever the peer has not taken is dropped."""
        for task in self.subscriptions:
            task.cancel()
        self.writer.close()
        try:
            await asyncio.wait_for(self.writer.wait_closed(), CLOSE_GRACE_S)
        except asyncio.TimeoutError:
            self.writer.transport.abort()
        except (OSError, asyncio.CancelledError):  # pragma: no cover
            pass


class StreamServer:
    """Serve one continuous query over TCP.

    Parameters
    ----------
    backend:
        A :mod:`repro.serve.backend` engine backend (built by
        :func:`~repro.serve.backend.build_backend`).
    host / port:
        Listen address; ``port=0`` picks a free port (see :attr:`port`
        after :meth:`start`).
    credit_window:
        Insert batches a client may have in flight (the backpressure
        bound granted in WELCOME).
    max_frame_bytes:
        Frame size ceiling, both ways: oversized requests are rejected
        before their body is read (connection-scoped); a RESULT is paged
        to fit it, and a PARTIALS_OK / CHECKPOINT_OK reply — or a single
        result row — that would exceed it becomes a frame-scoped
        ``reply-too-large`` ERROR.
    idle_timeout_s:
        Drop connections silent for this long (None = never).
    state_dir:
        Directory for the shutdown checkpoint; restored on :meth:`start`.
        None disables checkpointing (CHECKPOINT frames then fail with a
        structured error).
    checkpoint_interval_s:
        Write a background checkpoint this often (requires ``state_dir``;
        None disables periodic checkpointing).  Writes are atomic
        (temp-file + rename), so a crash mid-write never corrupts the
        previous checkpoint.
    metrics:
        :class:`~repro.obs.registry.MetricsRegistry` the server records
        connection/frame/row counters, ingest rate, and per-frame-type
        latency quantiles into, under ``serve.*``.  None (the default)
        means a disabled registry: every site still records, into the
        no-op metric.
    """

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        credit_window: int = 8,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        idle_timeout_s: float | None = None,
        state_dir: str | None = None,
        checkpoint_interval_s: float | None = None,
        metrics=None,
    ):
        if credit_window < 1:
            raise ParameterError(
                f"credit_window must be >= 1, got {credit_window!r}"
            )
        if checkpoint_interval_s is not None:
            if checkpoint_interval_s <= 0:
                raise ParameterError(
                    f"checkpoint_interval_s must be positive, "
                    f"got {checkpoint_interval_s!r}"
                )
            if state_dir is None:
                raise ParameterError(
                    "checkpoint_interval_s requires a state_dir to "
                    "checkpoint into"
                )
        self.backend = backend
        self.host = host
        self.port = port
        self.credit_window = credit_window
        self.max_frame_bytes = max_frame_bytes
        self.idle_timeout_s = idle_timeout_s
        self.state_dir = state_dir
        self.checkpoint_interval_s = checkpoint_interval_s
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry(enabled=False)
        )
        # Decodes the columns the backend's plan reads and nothing else.
        self._decoder = protocol.FrameDecoder(
            max_frame_bytes, columns=backend.columns_read
        )
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        self._stopping = False
        self._checkpoint_task: asyncio.Task | None = None
        self.started_at: float | None = None
        self.frames_total = 0
        self.insert_bytes_total = 0
        self.rows_total = 0
        self.cols_blocks_decoded = 0
        self.cols_blocks_skipped = 0
        self.errors_total = 0
        self.queries_total = 0
        self.result_pages_total = 0
        self.result_rows_total = 0
        self.largest_reply_frame_bytes = 0
        self.connections_total = 0
        self.restored_blobs = 0
        self.checkpoints_written = 0
        self.checkpoint_errors = 0
        self.last_checkpoint_at: float | None = None

    # -- lifecycle ----------------------------------------------------------------

    @property
    def checkpoint_path(self) -> str | None:
        if self.state_dir is None:
            return None
        return os.path.join(self.state_dir, CHECKPOINT_FILENAME)

    async def start(self) -> None:
        """Bind the listener, restoring a checkpoint first if one exists."""
        path = self.checkpoint_path
        if path is not None and os.path.exists(path):
            with open(path, "rb") as handle:
                image = handle.read()
            try:
                blobs = load_partials_checkpoint(
                    image, self.backend.sql, self.backend.schema.names()
                )
            except ParameterError as error:
                raise ParameterError(f"{path}: {error}") from error
            self.backend.restore_blobs(blobs)
            self.restored_blobs = len(blobs)
        elif path is not None:
            legacy = os.path.join(self.state_dir, _LEGACY_CHECKPOINT)
            if os.path.exists(legacy):
                raise ParameterError(
                    f"{legacy} is a JSON checkpoint from an earlier build; "
                    f"this build restores only {CHECKPOINT_FILENAME} and "
                    "will not start empty over it — move it away to start "
                    "fresh"
                )
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        self.started_at = time.time()
        if self.checkpoint_interval_s is not None:
            self._checkpoint_task = asyncio.get_running_loop().create_task(
                self._checkpoint_loop()
            )

    async def _checkpoint_loop(self) -> None:
        """Background periodic checkpointing (the crash-recovery story).

        Engine calls are synchronous, so each checkpoint is atomic with
        respect to batch handling under asyncio's cooperative scheduling
        — a blob never captures half a batch.  A failing write is counted
        and retried next interval rather than killing the task: serving
        degraded beats not serving.
        """
        while True:
            await asyncio.sleep(self.checkpoint_interval_s)
            try:
                self.write_checkpoint()
                self.checkpoints_written += 1
                self.last_checkpoint_at = time.time()
                self.metrics.counter("serve.checkpoints").add(1.0)
            except asyncio.CancelledError:  # pragma: no cover - shutdown
                raise
            except Exception:  # pragma: no cover - disk full and friends
                self.checkpoint_errors += 1
                self.metrics.counter("serve.checkpoint_errors").add(1.0)

    async def stop(self) -> str | None:
        """Graceful shutdown: drain connections, checkpoint, close.

        Returns the checkpoint path (None without a ``state_dir``).
        Idempotent.
        """
        self._stopping = True
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            try:
                await self._checkpoint_task
            except asyncio.CancelledError:
                pass
            self._checkpoint_task = None
        # Connections before the listener: Server.wait_closed() (Python
        # >= 3.12.1) waits for every live connection, so it cannot come
        # first.  close() only stops the accept loop.
        if self._server is not None:
            self._server.close()
        connections = list(self._connections)
        if connections:
            await asyncio.gather(*(conn.close() for conn in connections))
            # Each handler ends once its transport is gone (a read or a
            # drain it was parked on fails), leaving no task behind.
            await asyncio.wait([conn.handler for conn in connections])
        self._connections.clear()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        path = self.write_checkpoint()
        self.backend.close()
        return path

    def write_checkpoint(self) -> str | None:
        """Persist every backend partial state to ``state_dir`` (atomic).

        Store-backed backends checkpoint through their segment manifest
        (``checkpoint_blobs`` publishes it and returns no blobs); the
        file written here then only marks that a checkpoint ran.
        """
        path = self.checkpoint_path
        if path is None:
            return None
        image = dump_partials_checkpoint(
            self.backend.sql,
            self.backend.schema.names(),
            self.backend.checkpoint_blobs(),
        )
        os.makedirs(self.state_dir, exist_ok=True)
        publish(path, image)
        self.metrics.gauge("serve.checkpoint.bytes").set(float(len(image)))
        return path

    # -- statistics ---------------------------------------------------------------

    def stats(self) -> dict:
        """Server-side statistics plus the backend's and metrics snapshot."""
        server = {
            "connections": len(self._connections),
            "connections_total": self.connections_total,
            "frames_total": self.frames_total,
            "insert_bytes_total": self.insert_bytes_total,
            "rows_total": self.rows_total,
            "cols_blocks_decoded": self.cols_blocks_decoded,
            "cols_blocks_skipped": self.cols_blocks_skipped,
            "errors_total": self.errors_total,
            "queries_total": self.queries_total,
            "result_pages_total": self.result_pages_total,
            "result_rows_total": self.result_rows_total,
            "largest_reply_frame_bytes": self.largest_reply_frame_bytes,
            "uptime_s": (
                time.time() - self.started_at if self.started_at else 0.0
            ),
            "credit_window": self.credit_window,
            "pressure": self.backend.pressure(),
            "restored_blobs": self.restored_blobs,
            "checkpoint_path": self.checkpoint_path,
            "checkpoint_interval_s": self.checkpoint_interval_s,
            "checkpoints_written": self.checkpoints_written,
            "checkpoint_errors": self.checkpoint_errors,
            "last_checkpoint_at": self.last_checkpoint_at,
        }
        stats = {"server": server, "backend": self.backend.stats()}
        if self.metrics.enabled:
            stats["metrics"] = self.metrics.snapshot()
        return stats

    # -- connection handling ------------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        conn = _Connection(reader, writer, self)
        self._connections.add(conn)
        self.connections_total += 1
        self.metrics.counter("serve.connections").add(1.0)
        self.metrics.gauge("serve.connections.open").set(
            float(len(self._connections))
        )
        try:
            while not self._stopping:
                try:
                    frame = await self._read_frame(reader)
                except asyncio.IncompleteReadError:
                    break  # peer went away between (or mid-) frames
                except asyncio.TimeoutError:
                    await self._error(
                        conn, "idle-timeout",
                        f"no frames for {self.idle_timeout_s:g}s", close=True,
                    )
                except ProtocolError as error:
                    await self._error(
                        conn, "malformed-frame", str(error), close=True
                    )
                try:
                    await self._dispatch(conn, frame)
                except (_CloseConnection, ConnectionError):
                    raise  # a reply asked for the close / the peer is gone
                except Exception as error:
                    # The handlers turn every failure they expect into a
                    # frame-scoped ERROR; this one they did not, so what
                    # it left half-done on the stream is unknown.
                    _log.exception("%s handler failed", frame.name)
                    await self._error(
                        conn, "internal-error",
                        f"{type(error).__name__}: {error}",
                        close=True, frame=frame.ftype,
                    )
        except (_CloseConnection, ConnectionError):
            pass  # close=True replies end the loop from wherever they are
        finally:
            self._connections.discard(conn)
            await conn.close()
            self.metrics.gauge("serve.connections.open").set(
                float(len(self._connections))
            )

    async def _read_frame(self, reader) -> protocol.Frame:
        read = reader.readexactly(HEADER.size)
        if self.idle_timeout_s is not None:
            header = await asyncio.wait_for(read, self.idle_timeout_s)
        else:
            header = await read
        (length,) = HEADER.unpack(header)
        if length == 0:
            raise ProtocolError("empty frame (zero-length body)")
        if length > self.max_frame_bytes:
            raise ProtocolError(
                f"oversized frame: {length} bytes (limit {self.max_frame_bytes})"
            )
        body = await reader.readexactly(length)
        frame = self._decoder.decode(body)
        if frame.ftype == protocol.INSERT_COLS:
            payload = frame.payload
            # Kept for the rejection path, which decodes it whole.
            payload["body"] = body
            # The packed batch as received (type byte excluded): with
            # rows_total, the wire bytes per row of a live server.
            self.insert_bytes_total += length - 1
            skipped = payload["skipped"]
            decoded = len(payload["kinds"]) - skipped
            self.cols_blocks_decoded += decoded
            self.cols_blocks_skipped += skipped
            counter = self.metrics.counter
            counter("serve.ingest.bytes").add(length - 1.0)
            counter("serve.ingest.blocks_decoded").add(float(decoded))
            counter("serve.ingest.blocks_skipped").add(float(skipped))
        return frame

    async def _error(
        self, conn: _Connection, code: str, message: str,
        *, close: bool = False, frame: int | None = None,
    ) -> None:
        self.errors_total += 1
        self.metrics.counter("serve.errors").add(1.0)
        payload = {"code": code, "message": message}
        if frame is not None:
            payload["frame"] = frame_name(frame)
        try:
            await conn.send(protocol.ERROR, payload)
        except (ConnectionResetError, BrokenPipeError, OSError):
            close = True
        if close:
            raise _CloseConnection()

    async def _dispatch(self, conn: _Connection, frame: protocol.Frame) -> None:
        self.frames_total += 1
        self.metrics.counter("serve.frames").add(1.0)
        handler = self._HANDLERS.get(frame.ftype)
        if handler is None:
            await self._error(
                conn, "unknown-frame",
                f"unknown frame type {frame.ftype}", frame=frame.ftype,
            )
            return
        if not conn.hello_done and frame.ftype != protocol.HELLO:
            await self._error(
                conn, "handshake-required",
                f"{frame.name} before HELLO", close=True, frame=frame.ftype,
            )
            return
        try:
            with self.metrics.timer(self._TIMERS[frame.ftype]):
                await handler(self, conn, frame.payload)
        except protocol.FrameTooLarge as error:
            # Nothing of the reply was written, so the stream, the credit
            # window and the backend are intact: fail this request only.
            await self._error(
                conn, "reply-too-large", str(error), frame=frame.ftype
            )

    # -- frame handlers -----------------------------------------------------------

    async def _handle_hello(self, conn: _Connection, payload: dict) -> None:
        version = payload.get("wire_version")
        negotiated = protocol.negotiate_version(version)
        if negotiated is None:
            await self._error(
                conn, "wire-version",
                f"server speaks wire versions "
                f"{protocol.MIN_WIRE_VERSION}..{protocol.WIRE_VERSION}, "
                f"client sent {version!r}", close=True,
            )
            return
        names = self.backend.schema.names()
        offered = payload.get("schema")
        if offered is not None and offered != names:
            await self._error(
                conn, "schema-mismatch",
                f"server stream schema is {names}, client offered {offered}",
                close=True,
            )
            return
        conn.hello_done = True
        conn.window = self.credit_window
        await conn.send(
            protocol.WELCOME,
            {
                "wire_version": negotiated,
                "server": "repro.serve",
                "query": self.backend.sql,
                "schema": names,
                "backend": self.backend.kind,
                "credits": self.credit_window,
                "max_frame_bytes": self.max_frame_bytes,
            },
        )

    def _credit_grant(self, conn: _Connection) -> int:
        """Credits to return for one consumed batch: 0, 1, or 2.

        The steady-state grant is 1 (one batch in, one credit back), which
        holds the connection's window where it is.  Under backend pressure
        (hot-tier thrash in a tiered store) the target window shrinks
        toward 1, and the server withholds a credit per batch (grant 0)
        until the window meets the target; when pressure subsides it
        grants doubles (2) to grow the window back.  The window never
        drops below 1, so ingest degrades to lock-step rather than
        deadlocking — and the client's flush logic tracks the shrunken
        window from the credits themselves, with no protocol change.
        """
        target = max(
            1, round(self.credit_window * (1.0 - self.backend.pressure()))
        )
        if conn.window > target:
            conn.window -= 1
            return 0
        if conn.window < target:
            conn.window += 1
            return 2
        return 1

    async def _handle_insert_cols(self, conn: _Connection, payload: dict) -> None:
        # The frame body was already parsed into typed columns by the
        # protocol layer, so this handler validates column-at-a-time and
        # feeds the backend's bulk path — no row tuple is built anywhere
        # between socket and UDAF state.
        cols = payload.get("cols", [])
        schema = self.backend.schema
        try:
            try:
                count = schema.validate_cols(cols, payload.get("kinds"))
            except SchemaError:
                # The offending block may be an unread one, zero-filled
                # here: decoded whole, the verdict names what was sent.
                whole = protocol.decode_cols(memoryview(payload["body"])[1:])
                schema.validate_cols(whole[0])
                raise
            self.backend.insert_cols(cols)
        except DecayError as error:
            # The batch was rejected wholesale (validation happens before
            # ingest), so state is untouched; the credit is still returned.
            await self._error(conn, "bad-rows", str(error))
        else:
            conn.tuples_in += count
            self.rows_total += count
            self.metrics.rate("serve.ingest.rows").observe(float(count))
        # The echoed batch seq lets a retrying client match each CREDIT to
        # the exact batch it acknowledges (idempotent replay keying);
        # clients that send no seq get the bare frame.
        credit = {"credits": self._credit_grant(conn)}
        if payload.get("seq") is not None:
            credit["seq"] = payload["seq"]
        await conn.send(protocol.CREDIT, credit)

    def _query(self) -> list:
        """The backend's answer, taken in one synchronous step and counted."""
        self.queries_total += 1
        self.metrics.counter("serve.query.queries").add(1.0)
        with self.metrics.timer("serve.query.snapshot.us"):
            return self.backend.query()

    async def _send_result(self, conn: _Connection, rows: list, **push) -> None:
        """Send ``rows`` as a page sequence, one page in flight at a time:
        the next page is encoded only once the socket drained the last."""
        for frame in protocol.result_pages(
            rows, max_frame_bytes=self.max_frame_bytes, **push
        ):
            await conn.write(frame)
            self.result_pages_total += 1
            self.metrics.counter("serve.query.pages").add(1.0)
        self.result_rows_total += len(rows)
        self.metrics.counter("serve.query.rows").add(float(len(rows)))

    async def _handle_query(self, conn: _Connection, payload: dict) -> None:
        try:
            rows = self._query()
        except DecayError as error:
            await self._error(conn, "query-failed", str(error))
            return
        await self._send_result(conn, rows)

    async def _handle_subscribe(self, conn: _Connection, payload: dict) -> None:
        interval = payload.get("interval_s")
        count = payload.get("count")
        if not isinstance(interval, (int, float)) or interval <= 0:
            await self._error(
                conn, "bad-subscribe",
                f"interval_s must be a positive number, got {interval!r}",
            )
            return
        if count is not None and (not isinstance(count, int) or count < 1):
            await self._error(
                conn, "bad-subscribe",
                f"count must be a positive integer or null, got {count!r}",
            )
            return
        sub = conn.next_subscription_id()
        task = asyncio.get_running_loop().create_task(
            self._push_results(conn, sub, float(interval), count)
        )
        conn.subscriptions.append(task)

    async def _push_results(
        self, conn: _Connection, sub: int, interval: float, count: int | None
    ) -> None:
        """One subscription: evaluate-and-push until done or disconnected."""
        seq = 0
        try:
            while count is None or seq < count:
                seq += 1
                done = count is not None and seq >= count
                try:
                    await self._send_result(
                        conn, self._query(), sub=sub, seq=seq, done=done
                    )
                except OSError:
                    raise  # the subscriber went away: handled below
                except Exception as error:
                    # In place of the push (or of its next page): the
                    # subscription ends, the connection does not — nothing
                    # a push does touches ingest state or the credit window.
                    message = str(error)
                    if isinstance(error, protocol.FrameTooLarge):
                        code = "reply-too-large"
                    elif isinstance(error, DecayError):
                        code = "query-failed"
                    else:
                        # Not a failure the backend is known to raise: the
                        # direct-request outcome, minus the close.
                        _log.exception("subscription %d push failed", sub)
                        self.errors_total += 1
                        self.metrics.counter("serve.errors").add(1.0)
                        code = "internal-error"
                        message = f"{type(error).__name__}: {error}"
                    await conn.send(
                        protocol.ERROR,
                        {"code": code, "message": message, "sub": sub},
                    )
                    return
                if not done:
                    await asyncio.sleep(interval)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # subscriber went away; the read loop handles teardown

    async def _handle_checkpoint(self, conn: _Connection, payload: dict) -> None:
        if self.state_dir is None:
            await self._error(
                conn, "no-state-dir",
                "server was started without --state-dir; nothing to "
                "checkpoint to",
            )
            return
        path = self.write_checkpoint()
        await conn.send(
            protocol.CHECKPOINT_OK,
            {"path": path, "bytes": os.path.getsize(path)},
        )

    async def _handle_partials(self, conn: _Connection, payload: dict) -> None:
        # The cluster router's read path: the node's mergeable partial
        # states, exactly what the shutdown checkpoint persists.  The
        # backend keeps its state and keeps ingesting (merge-at-query).
        try:
            blobs = self.backend.partial_blobs()
        except DecayError as error:
            await self._error(conn, "partials-failed", str(error))
            return
        await conn.send(protocol.PARTIALS_OK, protocol.encode_blobs(blobs))

    async def _handle_adopt(self, conn: _Connection, payload: dict) -> None:
        # The cluster router's rebalance path: fold partial states taken
        # from another node into this backend.  Blob validation happens
        # in restore_blobs (wrong query/schema fails here, frame-scoped),
        # so a bad shipment never corrupts the engine.
        try:
            blobs = protocol.decode_blobs(payload["body"])
            self.backend.restore_blobs(blobs)
        except DecayError as error:
            await self._error(conn, "bad-adopt", str(error))
            return
        await conn.send(protocol.ADOPT_OK, {"adopted": len(blobs)})

    async def _handle_stats(self, conn: _Connection, payload: dict) -> None:
        await conn.send(protocol.STATS_OK, self.stats())

    async def _handle_bye(self, conn: _Connection, payload: dict) -> None:
        await conn.send(protocol.GOODBYE, {"tuples_in": conn.tuples_in})
        raise _CloseConnection()

    _HANDLERS = {
        protocol.HELLO: _handle_hello,
        protocol.INSERT_COLS: _handle_insert_cols,
        protocol.QUERY: _handle_query,
        protocol.SUBSCRIBE: _handle_subscribe,
        protocol.CHECKPOINT: _handle_checkpoint,
        protocol.PARTIALS: _handle_partials,
        protocol.ADOPT: _handle_adopt,
        protocol.STATS: _handle_stats,
        protocol.BYE: _handle_bye,
    }
    #: Each handled frame type's latency metric, named once.
    _TIMERS = {
        ftype: f"serve.frame.{protocol.frame_name(ftype)}.us" for ftype in _HANDLERS
    }


class ThreadedServer:
    """Run a :class:`StreamServer` on a background event loop.

    The in-process harness used by the test suite, the loopback benchmark,
    and anyone embedding the server next to synchronous code::

        with ThreadedServer(StreamServer(backend)) as server:
            client = ServeClient(server.host, server.port)

    ``start()`` returns once the listener is bound; ``stop()`` runs the
    server's graceful shutdown (checkpoint included) and joins the thread.
    """

    def __init__(self, server: StreamServer):
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as error:  # startup failed: surface in start()
            self._startup_error = error
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    def start(self) -> "ThreadedServer":
        """Spawn the loop thread; returns once the listener is bound."""
        if self._thread is not None and self._thread.is_alive():
            return self  # idempotent: `serve().start()` inside `with`
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self) -> str | None:
        """Gracefully stop the server; returns the checkpoint path."""
        if self._loop is None or not self._thread or not self._thread.is_alive():
            return None
        future = asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
        path = future.result(timeout=30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        return path

    def kill(self) -> None:
        """Simulate a crash: tear everything down with *no* graceful
        shutdown — no final checkpoint, connections aborted, the
        listening socket released so a successor can rebind the port.

        The in-process analogue of SIGKILL for crash-recovery tests and
        the recovery benchmark: the only durable state afterwards is
        whatever checkpoints were already on disk.  Idempotent.
        """
        if self._loop is None or not self._thread or not self._thread.is_alive():
            return

        async def drop() -> None:
            server = self.server
            if server._checkpoint_task is not None:
                server._checkpoint_task.cancel()
                server._checkpoint_task = None
            if server._server is not None:
                server._server.close()
            for conn in list(server._connections):
                for task in conn.subscriptions:
                    task.cancel()
                conn.writer.transport.abort()
            server._connections.clear()
            # After the connections, as in stop(): wait_closed() waits
            # for them on Python >= 3.12.1.
            if server._server is not None:
                await server._server.wait_closed()
                server._server = None
            # Let the transports' scheduled connection_lost callbacks run
            # so the sockets actually close (RST) before the loop dies.
            await asyncio.sleep(0)
            await asyncio.sleep(0)

        future = asyncio.run_coroutine_threadsafe(drop(), self._loop)
        future.result(timeout=30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
