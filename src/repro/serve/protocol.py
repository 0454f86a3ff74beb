"""The ``repro.serve`` wire protocol: versioned, length-prefixed frames.

The paper's system runs as a *service*: Gigascope answers continuous GSQL
queries over a live packet tap.  This module is the reproduction's front
door — a small binary protocol that a client speaks to stream tuples into
a server-resident engine and read continuously re-evaluated results back.

Frame layout (all integers big-endian)::

    +----------------+------------+------------------------+
    | length: uint32 | type: byte | body: UTF-8 JSON       |
    +----------------+------------+------------------------+

``length`` counts the type byte plus the body.  Bodies are JSON objects;
values that JSON would mangle (non-finite floats, tuple-vs-list identity)
travel through the tagged encoding of
:func:`repro.core.protocol.tag_key`, so result rows round-trip the wire
byte-exactly.

Three frame types are the exception and carry a *binary* body, a
:mod:`repro.core.cols` packed batch.  ``INSERT_COLS`` — the one ingest
frame — holds a batch of stream tuples transposed into typed column
buffers, so a million-row batch costs one ``struct`` unpack per column
instead of a million tagged JSON values; ``PARTIALS_OK`` and ``ADOPT``
hold one ``bytes`` column whose rows are the raw partial-state blobs
(:func:`encode_blobs` — no hex, no envelope).  Layout after the type
byte: the packed batch of :mod:`repro.core.cols`, whose module docstring
has the diagram (version, ``seq+1``, row and column counts, then one
``kind | nbytes | payload`` block per column).

``seq+1`` is zero when the batch carries no sequence number.  The per-
column ``kind`` is chosen from the *values* (falling back to ``tagged``
for mixed or out-of-range columns), so int/float/str identity survives
the wire bit-exactly — a served batch produces byte-identical results to
the same rows fed to an in-process engine.  Rows exist only above the
client API: ``insert(rows)`` transposes once and everything below it,
this module included, sees columns.

Frame types
-----------

========== ===== ============ ====================================================
name       code  direction    body
========== ===== ============ ====================================================
HELLO      1     client → srv ``wire_version``, ``schema`` (names), ``client``
WELCOME    2     srv → client negotiated ``credits``, server ``query``/``schema``
(reserved) 3     —            the retired row INSERT; answered ``unknown-frame``
CREDIT     4     srv → client ``credits`` granted back (backpressure); echoes
                              the batch's ``seq`` so acks key to batches
(reserved) 5     —            the retired HEARTBEAT; answered ``unknown-frame``
QUERY      6     client → srv (empty) request merged results now
RESULT     7     srv → client one *page* of ``rows``; ``more`` when another page
                              follows; push pages carry ``sub``/``seq``, the
                              last one ``done``
SUBSCRIBE  8     client → srv ``interval_s``, ``count`` — periodic RESULT pushes
CHECKPOINT 9     client → srv (empty) force a state-dir checkpoint
CHECK_OK   10    srv → client ``path``, ``bytes``
STATS      11    client → srv (empty)
STATS_OK   12    srv → client server/backend/metrics statistics
ERROR      13    srv → client structured ``code`` + ``message`` (+ ``frame``)
BYE        14    client → srv (empty) graceful goodbye
GOODBYE    15    srv → client ``tuples_in`` — connection totals, then close
INSERT_COLS 16   client → srv binary columnar batch; consumes one credit;
                              optional ``seq`` — client batch id for replay
PARTIALS   17    client → srv (empty) request the backend's partial-state
                              blobs (the Section VI-B mergeable form)
PARTIALS_OK 18   srv → client binary blob batch — what a cluster router
                              folds with ``fold_partials``
ADOPT      19    client → srv binary blob batch — fold foreign partial
                              states into this backend (shard rebalance)
ADOPT_OK   20    srv → client ``adopted`` — blob count folded in
========== ===== ============ ====================================================

``PARTIALS`` / ``ADOPT`` are the cluster tier's router frames: a
coordinator fans ``PARTIALS`` out to every node and folds the returned
blobs exactly (fixed numerators make decayed partials mergeable), and
ships checkpoint blobs *between* nodes with ``ADOPT`` when a shard moves.
They are capability frames of the wire version — a server predating
them answers with a frame-scoped ``unknown-frame`` error and the
connection keeps going.

**A reply to QUERY (and every subscription push) is a page sequence**:
one or more RESULT frames, each at most :data:`RESULT_PAGE_ROWS` rows and
never over ``max_frame_bytes`` (a page that would be is halved and
re-encoded), every page but the last carrying ``"more": true``.  The
server takes its read-only snapshot first, then encodes one page, writes
it and waits for the socket to drain before encoding the next
(:func:`result_pages`), so it holds the row list plus one encoded page
however large the answer, and a slow reader back-pressures it page by
page.  A lone RESULT frame without ``more`` is the one-page case.  Pages
of a direct reply, CREDITs and pages of pushes may interleave on one
connection; a push's pages repeat its ``sub`` / ``seq``.  An ERROR in
place of a page ends that sequence and the pages before it are void.

Version negotiation: HELLO carries the client's highest ``wire_version``;
the server answers WELCOME with ``wire_version = min(client, server)``
and both sides speak that, so a future client negotiates *down* to this
build.  Version 8 is the only one spoken; each older one differs in
something this build reads or writes: version 1's row-JSON ``INSERT``
frames (under half the columnar rate, EXPERIMENTS.md), version 2's
one-frame RESULT (its client would take a first page for the answer), the
:mod:`repro.core.cols` decoders of versions 3–7 (no typed, no narrow
``f64``, no string head, JSON ``tagged`` columns; this build *reads*
their batches but for such a column, they would refuse its own) and
version 5's HEARTBEAT punctuation, which no engine ever acted on (forward
decay fixes a weight's numerator on arrival).  A HELLO below the minimum
(or with a junk version) earns a connection-scoped ``wire-version`` ERROR
naming the supported range.

Framing errors (bad length, oversized frame, undecodable body — columnar
bodies included) are *connection-scoped*: the server answers with ERROR
and drops that connection, never the process; so is a handler failing
with an unexpected exception (``internal-error``).  Semantic errors (bad
rows, unknown frame type, a query failure — ``query-failed``, HAVING /
ORDER BY that cannot be evaluated over the results included — an
undecodable ADOPT blob batch, a PARTIALS_OK / CHECKPOINT_OK reply or a
*single result row* larger than ``max_frame_bytes`` — code
``reply-too-large``) are *frame-scoped*: ERROR is sent and the connection
keeps going.
"""

from __future__ import annotations

import json
import struct

from repro.core.cols import COL_TAGGED, cols_to_rows, open_cols, pack_cols
from repro.core.cols import rows_to_cols, unpack_cols
from repro.core.errors import ProtocolError
from repro.core.protocol import tag_key, untag_key

__all__ = [
    "WIRE_VERSION",
    "MIN_WIRE_VERSION",
    "MAX_FRAME_BYTES",
    "RESULT_PAGE_ROWS",
    "HEADER",
    "Frame",
    "FrameDecoder",
    "RemoteError",
    "FrameTooLarge",
    "encode_frame",
    "decode_frame_body",
    "encode_cols",
    "decode_cols",
    "rows_to_cols",
    "cols_to_rows",
    "encode_result_rows",
    "decode_result_rows",
    "result_pages",
    "encode_blobs",
    "decode_blobs",
    "frame_name",
    "negotiate_version",
]

#: Highest protocol revision this build speaks (carried in HELLO).
WIRE_VERSION = 8

#: Oldest revision still accepted (the module docstring says why).
MIN_WIRE_VERSION = 8

#: Default ceiling on ``length``; larger frames are rejected before the
#: body is buffered, so a hostile length prefix cannot balloon memory.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Most rows one RESULT page carries; a reply is as many pages as it needs.
RESULT_PAGE_ROWS = 512

#: ``struct`` format of the length prefix.
HEADER = struct.Struct(">I")

# Frame type codes (see the module docstring table).  3 and 5 are
# reserved: they were the row INSERT and HEARTBEAT and must never be
# reassigned to a different body.
HELLO = 1
WELCOME = 2
CREDIT = 4
QUERY = 6
RESULT = 7
SUBSCRIBE = 8
CHECKPOINT = 9
CHECKPOINT_OK = 10
STATS = 11
STATS_OK = 12
ERROR = 13
BYE = 14
GOODBYE = 15
INSERT_COLS = 16
PARTIALS = 17
PARTIALS_OK = 18
ADOPT = 19
ADOPT_OK = 20

_FRAME_NAMES = {
    HELLO: "HELLO",
    WELCOME: "WELCOME",
    CREDIT: "CREDIT",
    QUERY: "QUERY",
    RESULT: "RESULT",
    SUBSCRIBE: "SUBSCRIBE",
    CHECKPOINT: "CHECKPOINT",
    CHECKPOINT_OK: "CHECKPOINT_OK",
    STATS: "STATS",
    STATS_OK: "STATS_OK",
    ERROR: "ERROR",
    BYE: "BYE",
    GOODBYE: "GOODBYE",
    INSERT_COLS: "INSERT_COLS",
    PARTIALS: "PARTIALS",
    PARTIALS_OK: "PARTIALS_OK",
    ADOPT: "ADOPT",
    ADOPT_OK: "ADOPT_OK",
}


def frame_name(ftype: int) -> str:
    """Human-readable name of a frame type (``type-N`` when unknown)."""
    return _FRAME_NAMES.get(ftype, f"type-{ftype}")


def negotiate_version(client_version) -> int | None:
    """The wire version a server should speak with a client, or None.

    The result is ``min(client, WIRE_VERSION)``; clients older than
    :data:`MIN_WIRE_VERSION` (and junk versions) get ``None`` — reject.
    """
    if type(client_version) is not int or client_version < MIN_WIRE_VERSION:
        return None
    return min(client_version, WIRE_VERSION)


class Frame(tuple):
    """A decoded frame: ``(ftype, payload)`` with named access."""

    __slots__ = ()

    def __new__(cls, ftype: int, payload: dict) -> "Frame":
        return tuple.__new__(cls, (ftype, payload))

    @property
    def ftype(self) -> int:
        return self[0]

    @property
    def payload(self) -> dict:
        return self[1]

    @property
    def name(self) -> str:
        return frame_name(self[0])


class RemoteError(ProtocolError):
    """An ERROR frame received from the server, surfaced client-side."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code


class FrameTooLarge(ProtocolError):
    """A frame to be sent exceeds ``max_frame_bytes`` (nothing was sent)."""


#: Frame types whose body is a packed blob batch, parsed on demand with
#: :func:`decode_blobs` (the payload carries the raw ``body``).
_BLOB_FRAMES = frozenset((PARTIALS_OK, ADOPT))


def encode_frame(
    ftype: int,
    payload: dict | bytes | None = None,
    *,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> bytes:
    """Serialize one frame: header + type byte + body.

    A dict (or None) becomes the JSON body; ``bytes`` are a binary body
    already encoded (:func:`encode_blobs`, a packed column batch).
    """
    if isinstance(payload, bytes):
        body = payload
    else:
        body = json.dumps(
            payload or {}, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
    length = 1 + len(body)
    if length > max_frame_bytes:
        raise FrameTooLarge(
            f"{frame_name(ftype)} frame is {length} bytes; "
            f"the wire limit is {max_frame_bytes}"
        )
    return HEADER.pack(length) + bytes([ftype]) + body


def decode_frame_body(body, columns=None) -> Frame:
    """Parse the post-header part of a frame (type byte + body).

    Accepts ``bytes``, ``bytearray``, or a ``memoryview`` slice — the
    decoder feeds views straight off its reassembly buffer, so nothing is
    copied until actual Python values are built.  ``columns`` names the
    INSERT_COLS columns the receiver reads (:func:`decode_cols`); the
    payload's ``kinds`` is every block's kind byte, ``skipped`` how many
    blocks were shape-checked and not decoded.
    """
    if not len(body):
        raise ProtocolError("empty frame (zero-length body)")
    ftype = body[0]
    if ftype == INSERT_COLS:
        with memoryview(body) as view, view[1:] as batch:
            cols, seq, count = decode_cols(batch, columns)
            kinds = [kind for kind, _start, _end in open_cols(batch)[2]]
        skipped = 0 if columns is None else sum(
            # A tagged block is decoded whether or not it is read.
            index not in columns and kind != COL_TAGGED
            for index, kind in enumerate(kinds)
        )
        payload = {
            "cols": cols, "count": count, "kinds": kinds, "skipped": skipped,
        }
        if seq is not None:
            payload["seq"] = seq
        return Frame(INSERT_COLS, payload)
    if ftype in _BLOB_FRAMES:
        return Frame(ftype, {"body": bytes(body[1:])})
    try:
        payload = json.loads(bytes(body[1:]).decode("utf-8") or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame body: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(payload).__name__}"
        )
    return Frame(ftype, payload)


class FrameDecoder:
    """Incremental frame parser for a byte stream (sync clients, tests).

    Feed arbitrary chunks with :meth:`feed`; iterate complete frames with
    :meth:`frames`.  Framing violations raise :class:`ProtocolError` —
    after that the stream position is undefined and the connection should
    be dropped, mirroring the server's behaviour.

    The reassembly buffer is index-tracked: consumed frames advance a read
    position instead of shifting the buffer left on every frame (which
    made a chunk of *m* frames cost O(m²) bytes moved), and frame bodies
    are handed to :func:`decode_frame_body` as ``memoryview`` slices with
    no intermediate copy.  The consumed prefix is compacted away once it
    passes ``compact_bytes`` or the buffer is fully drained.

    ``columns`` is the INSERT_COLS column indices the receiver's plan
    reads (the rest are shape-checked and zero-filled:
    :func:`repro.core.cols.unpack_cols`); ``None`` — a client, a test, any
    reader with no plan — decodes every column.
    """

    def __init__(
        self,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        *,
        compact_bytes: int = 1 << 16,
        columns=None,
    ):
        self.max_frame_bytes = max_frame_bytes
        self.compact_bytes = compact_bytes
        self.columns = None if columns is None else frozenset(columns)
        self._buffer = bytearray()
        self._pos = 0

    def decode(self, body) -> Frame:
        """One frame from its post-header bytes (type byte + body)."""
        return decode_frame_body(body, self.columns)

    def feed(self, data: bytes) -> None:
        """Append a received chunk to the internal reassembly buffer."""
        pos = self._pos
        if pos and (pos >= len(self._buffer) or pos >= self.compact_bytes):
            del self._buffer[:pos]
            self._pos = 0
        self._buffer.extend(data)

    def frames(self):
        """Yield every complete :class:`Frame` buffered so far."""
        buffer = self._buffer
        pos = self._pos
        header_size = HEADER.size
        try:
            while True:
                if len(buffer) - pos < header_size:
                    return
                (length,) = HEADER.unpack_from(buffer, pos)
                if length == 0:
                    raise ProtocolError("empty frame (zero-length body)")
                if length > self.max_frame_bytes:
                    raise ProtocolError(
                        f"oversized frame: {length} bytes "
                        f"(limit {self.max_frame_bytes})"
                    )
                if len(buffer) - pos < header_size + length:
                    return
                start = pos + header_size
                pos = start + length
                # The view must be released before yielding: an exported
                # memoryview would make the next feed()'s extend blow up.
                with memoryview(buffer) as view:
                    frame = self.decode(view[start:pos])
                yield frame
        finally:
            self._pos = pos


# -- columnar encoding -------------------------------------------------------------
#
# The codec itself lives in :mod:`repro.core.cols` (the shard transport
# packs the same batches without importing this package); this module
# re-exports it and adds the wire framing.


def encode_cols(
    cols,
    *,
    seq: int | None = None,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> bytes:
    """Serialize a complete INSERT_COLS frame from per-field columns.

    ``cols`` is a list of equal-length columns (one per schema field), as
    produced by :func:`rows_to_cols`.  Returns header + type byte + binary
    body, ready for the socket.
    """
    return encode_frame(
        INSERT_COLS, pack_cols(cols, seq=seq), max_frame_bytes=max_frame_bytes
    )


#: Parse an INSERT_COLS body → ``(columns, seq, row_count)``; given
#: ``columns``, only those are decoded.  Truncation, trailing garbage or a
#: malformed column raises :class:`ProtocolError` — framing errors,
#: connection-scoped like every other undecodable body.
decode_cols = unpack_cols


def encode_blobs(blobs) -> bytes:
    """Partial-state blobs → a PARTIALS_OK / ADOPT frame body.

    The body is a packed batch of one ``bytes`` column, one row per blob:
    the blobs travel raw, length-prefixed by the column's length table.
    """
    return pack_cols([[bytes(blob) for blob in blobs]])


def decode_blobs(body) -> list[bytes]:
    """Inverse of :func:`encode_blobs`; shape errors become ProtocolError."""
    cols, _seq, _count = unpack_cols(body)
    if len(cols) != 1 or set(map(type, cols[0])) - {bytes}:
        raise ProtocolError("blob batch must be one column of bytes")
    return cols[0]


def _tag_value(value):
    """Tag one result value for JSON: :func:`~repro.core.protocol.tag_key`'s
    tags plus a ``list`` tag for list-valued finalizers."""
    if isinstance(value, list):
        return ["list", [_tag_value(part) for part in value]]
    return tag_key(value)


def _untag_value(tag):
    """Inverse of :func:`_tag_value`."""
    if tag[0] == "list":
        return [_untag_value(part) for part in tag[1]]
    return untag_key(tag)


def encode_result_rows(rows) -> list:
    """Result rows (alias → value dicts) → tagged JSON, order-preserving.

    Values go through the engine's key tagging (plus a ``list`` tag for
    list-valued finalizers like heavy-hitter reports), so non-finite
    floats and int/float/tuple identity survive the wire exactly.
    """
    return [
        [[alias, _tag_value(value)] for alias, value in row.items()]
        for row in rows
    ]


def decode_result_rows(data: list) -> list:
    """Inverse of :func:`encode_result_rows`."""
    try:
        return [
            {alias: _untag_value(tag) for alias, tag in row} for row in data
        ]
    except (TypeError, ValueError, IndexError) as exc:
        raise ProtocolError(f"malformed RESULT rows: {exc}") from exc


def result_pages(rows: list, *, max_frame_bytes: int = MAX_FRAME_BYTES, **push):
    """Yield the RESULT frames of one reply, each encoded when asked for.

    ``rows`` is the complete answer; ``push`` holds a subscription push's
    ``sub`` / ``seq`` (repeated on every page) and ``done`` (last page
    only).  A page starts at :data:`RESULT_PAGE_ROWS` rows and is halved
    until it fits ``max_frame_bytes`` — later pages keep the smaller size
    — so the one :class:`FrameTooLarge` left is a single row over the
    limit, raised in place of that page.  An empty answer is one empty
    page.
    """
    done = push.pop("done", None)
    start, size = 0, RESULT_PAGE_ROWS
    while True:
        stop = min(start + size, len(rows))
        payload = {"rows": encode_result_rows(rows[start:stop]), **push}
        if stop < len(rows):
            payload["more"] = True
        elif done is not None:
            payload["done"] = done
        try:
            frame = encode_frame(
                RESULT, payload, max_frame_bytes=max_frame_bytes
            )
        except FrameTooLarge:
            if stop - start <= 1:
                raise
            size = (stop - start) // 2
            continue
        yield frame
        start = stop
        if start >= len(rows):
            return
