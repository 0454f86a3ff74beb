"""Typed column-batch codec shared by the wire protocol and shard transport.

A batch of stream tuples is transposed into per-field columns and each
column is packed as one dense ``struct`` block, so a million-row batch
costs one pack/unpack per column instead of a million per-value tag
operations.  Layout of a packed batch (all integers network order)::

    +----+---------+------------+------------+----------------------+
    | v  | seq+1   | rows: u32  | cols: u16  | column block × cols  |
    | u8 | u64     |            |            |                      |
    +----+---------+------------+------------+----------------------+

    column block := kind: u8 | nbytes: u32 | payload[nbytes]

    kind 1  i64     payload = rows × int64
    kind 2  f64     payload = rows × float64
    kind 3  str     payload = rows × u32 byte-lengths, then UTF-8 blobs
    kind 4  tagged  payload = JSON list of tag_key-tagged values
    kind 5  bytes   payload = rows × u32 byte-lengths, then the raw buffers

``seq+1`` is zero when the batch carries no sequence number.  The per-
column ``kind`` is chosen from the *values* (falling back to ``tagged``
for mixed or out-of-range columns), so int/float/str identity survives
packing bit-exactly: unpacking a packed batch yields values equal to the
originals under ``type()`` and ``repr()``, which is what lets the
columnar data plane promise byte-identical query results.

Three consumers share this module: :mod:`repro.serve.protocol` wraps a
packed batch in an ``INSERT_COLS`` wire frame (and a one-column ``bytes``
batch in ``PARTIALS_OK`` / ``ADOPT``), :mod:`repro.parallel.sharded` ships
packed batches to shard workers instead of pickling per-row tuples, and
:mod:`repro.dsms.engine` packs its partial state as one batch with a row
per group.  It deliberately lives in :mod:`repro.core` — below all of
them — so no layer imports another.

All malformed input raises :class:`~repro.core.errors.ProtocolError`.
"""

from __future__ import annotations

import json
import struct
from itertools import accumulate

from repro.core.errors import ProtocolError
from repro.core.protocol import tag_key, untag_key

__all__ = [
    "COLS_CODEC_VERSION",
    "COL_I64",
    "COL_F64",
    "COL_STR",
    "COL_TAGGED",
    "COL_BYTES",
    "row_count",
    "rows_to_cols",
    "cols_to_rows",
    "pack_cols",
    "unpack_cols",
    "pack_column",
    "read_column",
    "open_cols",
    "block_values",
    "describe_cols",
    "tag_value",
    "untag_value",
]

#: Layout version byte leading every packed batch.
COLS_CODEC_VERSION = 1

#: Column payload kinds (see the module docstring diagram).
COL_I64 = 1
COL_F64 = 2
COL_STR = 3
COL_TAGGED = 4
COL_BYTES = 5

_KIND_NAMES = {
    COL_I64: "i64", COL_F64: "f64", COL_STR: "str", COL_TAGGED: "tagged",
    COL_BYTES: "bytes",
}

#: codec version, seq+1 (0 = none), row count, column count.
_COLS_HEAD = struct.Struct("!BQIH")

#: kind, payload byte count — one per column.
_COL_HEAD = struct.Struct("!BI")

_ONE_I64 = struct.Struct("!q")
_ONE_F64 = struct.Struct("!d")


def row_count(cols, error: type[Exception] = ProtocolError) -> int:
    """Rows in a column batch (0 when empty); ragged columns raise ``error``."""
    count = len(cols[0]) if cols else 0
    for index, col in enumerate(cols):
        if len(col) != count:
            raise error(
                f"ragged columnar batch: column {index} has {len(col)} "
                f"rows, column 0 has {count}"
            )
    return count


def rows_to_cols(rows) -> list[list]:
    """Transpose stream tuples into per-field columns (ragged rows raise)."""
    try:
        return [list(col) for col in zip(*rows, strict=True)]
    except ValueError as exc:
        raise ProtocolError(f"ragged rows in columnar batch: {exc}") from exc


def cols_to_rows(cols) -> list[tuple]:
    """Inverse of :func:`rows_to_cols`."""
    return list(zip(*cols, strict=True))


def tag_value(value):
    """Tag one value for JSON transport (engine key tags + a list tag)."""
    if isinstance(value, list):
        return ["list", [tag_value(part) for part in value]]
    return tag_key(value)


def untag_value(tag):
    """Inverse of :func:`tag_value`."""
    kind = tag[0]
    if kind == "list":
        return [untag_value(part) for part in tag[1]]
    return untag_key(tag)


def _pack_column(values) -> tuple[int, bytes]:
    """Choose the densest kind that preserves every value's type exactly."""
    kinds = set(map(type, values))
    if kinds == {int}:
        try:
            # One C-level pack instead of a Python range scan; out-of-range
            # ints raise struct.error and fall through to the tagged kind.
            return COL_I64, struct.pack(f"!{len(values)}q", *values)
        except struct.error:
            pass
    elif kinds == {float}:
        # IEEE doubles round-trip struct 'd' bit-exactly, NaN/inf included.
        return COL_F64, struct.pack(f"!{len(values)}d", *values)
    elif kinds == {str}:
        blob = "".join(values)
        data = blob.encode("utf-8")
        if len(data) == len(blob):
            # All-ASCII column: byte lengths equal character lengths, so
            # one join + one encode replaces a per-string encode loop.
            return COL_STR, struct.pack(
                f"!{len(values)}I", *map(len, values)
            ) + data
        encoded = [v.encode("utf-8") for v in values]
        return COL_STR, struct.pack(
            f"!{len(encoded)}I", *map(len, encoded)
        ) + b"".join(encoded)
    elif kinds == {bytes}:
        return COL_BYTES, struct.pack(
            f"!{len(values)}I", *map(len, values)
        ) + b"".join(values)
    tagged = json.dumps(
        [tag_value(v) for v in values], separators=(",", ":")
    ).encode("utf-8")
    return COL_TAGGED, tagged


def _unpack_column(kind: int, view, count: int) -> list:
    if kind == COL_I64:
        if len(view) != 8 * count:
            raise ProtocolError(
                f"i64 column: {len(view)} bytes for {count} rows"
            )
        return list(struct.unpack(f"!{count}q", view))
    if kind == COL_F64:
        if len(view) != 8 * count:
            raise ProtocolError(
                f"f64 column: {len(view)} bytes for {count} rows"
            )
        return list(struct.unpack(f"!{count}d", view))
    if kind == COL_STR or kind == COL_BYTES:
        head = 4 * count
        if len(view) < head:
            raise ProtocolError("column shorter than its length table")
        lengths = struct.unpack(f"!{count}I", view[:head])
        if head + sum(lengths) != len(view):
            raise ProtocolError("column blob does not match its lengths")
        if kind == COL_BYTES:
            out = []
            offset = head
            for length in lengths:
                end = offset + length
                out.append(bytes(view[offset:end]))
                offset = end
            return out
        try:
            decoded = str(view[head:], "utf-8")
        except UnicodeDecodeError as exc:
            # Valid per-string slices concatenate to a valid blob, so a
            # blob that fails as a whole has at least one bad slice.
            raise ProtocolError(f"undecodable str column: {exc}") from exc
        out = []
        offset = 0
        if len(decoded) == len(view) - head:
            # All-ASCII blob: byte offsets are character offsets, so one
            # decode + cheap str slices replaces a per-string decode loop.
            for length in lengths:
                end = offset + length
                out.append(decoded[offset:end])
                offset = end
            return out
        # Multi-byte characters present: decode per slice so a length
        # table that splits a character is rejected, not resynthesized.
        offset = head
        try:
            for length in lengths:
                end = offset + length
                out.append(str(view[offset:end], "utf-8"))
                offset = end
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"undecodable str column: {exc}") from exc
        return out
    if kind == COL_TAGGED:
        try:
            tags = json.loads(bytes(view).decode("utf-8"))
            values = [untag_value(tag) for tag in tags]
        except (UnicodeDecodeError, json.JSONDecodeError, TypeError,
                ValueError, IndexError, KeyError) as exc:
            raise ProtocolError(f"undecodable tagged column: {exc}") from exc
        if len(values) != count:
            raise ProtocolError(
                f"tagged column has {len(values)} values for {count} rows"
            )
        return values
    raise ProtocolError(f"unknown column kind {kind}")


def pack_column(values) -> bytes:
    """One self-describing column block, ``kind | nbytes | payload`` —
    the unit :func:`pack_cols` repeats, for a lone typed list in a header
    of the caller's own; read back with :func:`read_column`."""
    kind, payload = _pack_column(values)
    return _COL_HEAD.pack(kind, len(payload)) + payload


def _block(view, offset: int) -> tuple[int, int, int]:
    """``(kind, payload start, payload end)`` of the column block at ``offset``."""
    try:
        kind, nbytes = _COL_HEAD.unpack_from(view, offset)
    except struct.error as exc:
        raise ProtocolError(f"truncated columnar column header: {exc}") from exc
    start = offset + _COL_HEAD.size
    if start + nbytes > len(view):
        raise ProtocolError("truncated columnar column payload")
    return kind, start, start + nbytes


def read_column(view, offset: int, count: int) -> tuple[list, int]:
    """Parse the column block of ``count`` rows at ``offset`` into
    ``(values, end offset)``; malformed input raises :class:`ProtocolError`."""
    kind, start, end = _block(view, offset)
    return _unpack_column(kind, view[start:end], count), end


def pack_cols(cols, *, seq: int | None = None) -> bytes:
    """Pack equal-length per-field columns into one dense byte string.

    ``cols`` is a list of columns as produced by :func:`rows_to_cols`.
    The result is the codec body only — callers add their own framing
    (the wire protocol's length prefix, or none at all on a queue).
    """
    count = row_count(cols)
    if seq is not None and not 0 <= seq < (1 << 64) - 1:
        raise ProtocolError(f"seq out of range: {seq!r}")
    parts = [
        _COLS_HEAD.pack(
            COLS_CODEC_VERSION,
            0 if seq is None else seq + 1,
            count,
            len(cols),
        )
    ]
    parts.extend(map(pack_column, cols))
    return b"".join(parts)


def open_cols(view) -> tuple[int, int | None, list[tuple[int, int, int]]]:
    """``(row count, seq, [(kind, payload start, payload end) per column])``
    of a packed batch, with no column decoded: the header is checked and the
    blocks must tile ``view`` exactly.  Decode the ones you need with
    :func:`block_values`."""
    try:
        version, seq_tag, count, ncols = _COLS_HEAD.unpack_from(view, 0)
    except struct.error as exc:
        raise ProtocolError(f"truncated columnar header: {exc}") from exc
    if version != COLS_CODEC_VERSION:
        raise ProtocolError(f"unknown columnar codec version {version}")
    blocks = []
    offset = _COLS_HEAD.size
    for _ in range(ncols):
        kind, start, offset = _block(view, offset)
        blocks.append((kind, start, offset))
    if offset != len(view):
        raise ProtocolError(
            f"{len(view) - offset} trailing bytes after columnar columns"
        )
    return count, (seq_tag - 1 if seq_tag else None), blocks


def block_values(view, block: tuple[int, int, int], count: int, rows=None) -> list:
    """The values of one :func:`open_cols` block: all ``count`` of them, or
    only those at the row indices ``rows`` (each below ``count``).

    Picking rows out of a fixed-width column is an ``unpack_from`` per
    row and out of a ``str`` / ``bytes`` column one pass over its length
    table; a ``tagged`` column decodes whole either way.
    """
    kind, start, end = block
    if rows is None:
        return _unpack_column(kind, view[start:end], count)
    if kind == COL_I64 or kind == COL_F64:
        if end - start != 8 * count:
            raise ProtocolError(
                f"fixed-width column: {end - start} bytes for {count} rows"
            )
        unpack_from = (_ONE_I64 if kind == COL_I64 else _ONE_F64).unpack_from
        return [unpack_from(view, start + 8 * row)[0] for row in rows]
    if kind == COL_STR or kind == COL_BYTES:
        head = start + 4 * count
        if head > end:
            raise ProtocolError("column shorter than its length table")
        ends = list(accumulate(
            struct.unpack_from(f"!{count}I", view, start), initial=head
        ))
        if ends[-1] != end:
            raise ProtocolError("column blob does not match its lengths")
        try:
            return [
                bytes(view[ends[row]:ends[row + 1]]) if kind == COL_BYTES
                else str(view[ends[row]:ends[row + 1]], "utf-8")
                for row in rows
            ]
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"undecodable str column: {exc}") from exc
    values = _unpack_column(kind, view[start:end], count)
    return [values[row] for row in rows]


def unpack_cols(body) -> tuple[list[list], int | None, int]:
    """Parse a packed batch → ``(columns, seq, row_count)``.

    Any truncation, trailing garbage, or malformed column payload raises
    :class:`ProtocolError`.
    """
    with memoryview(body) as view:
        count, seq, blocks = open_cols(view)
        cols = [block_values(view, block, count) for block in blocks]
    return cols, seq, count


def describe_cols(body) -> tuple[int, list[tuple[str, int]]]:
    """``(row count, [(kind name, payload bytes) per column])`` of a packed
    batch that :func:`unpack_cols` accepts — what an inspector prints."""
    with memoryview(body) as view:
        count, _seq, blocks = open_cols(view)
        for block in blocks:
            block_values(view, block, count)
    return count, [
        (_KIND_NAMES[kind], end - start) for kind, start, end in blocks
    ]
