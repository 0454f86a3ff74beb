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

The kind byte's low nibble is the kind, bits 4-5 a **width shrink** (how
many times the kind's integer width is halved) and bit 7 a string block's
**head**.  Version 1 wrote shrink 0 alone, 2 narrowed ints, lengths and
codes, 3 integral floats, 4 heads — one decoder reads all four::

    kind byte            name             payload
    0x01 0x11 0x21 0x31  i64 i32 i16 i8   rows × signed int of 8 >> shrink bytes
    0x02                 f64              rows × float64
    0x12 0x22 0x32       f64/i32 i16 i8   rows × signed int of 8 >> shrink bytes,
                                          each read back as a float (0 at a
                                          patched row), then patches × (row:
                                          u32 | float64), rows ascending
    0x03 0x13 0x23       str/u32 u16 u8   rows × byte lengths (4 >> shrink bytes
                                          each), then the UTF-8 entries
    0x83 0x93 0xA3       str/…+head8      one entry more, first: the head all
                                          rows share; each row's entry its rest
    0x04                 tagged           JSON list of tag_key-tagged values
    0x05 0x15 0x25 (+80) bytes/u32 u16 u8 the same over raw buffers (both are
                                          :mod:`repro.core.tree` string blocks)
    0x06 0x16 0x26       dict[n]/u32 u16 u8
                                          entries: u32 | a nested str block of the
                                          entries distinct strings in first-seen
                                          order | rows × codes (4 >> shrink bytes)

``seq+1`` is zero when the batch carries no sequence number.  The
encoding is chosen from the *values* alone: the kind from their types
(``tagged`` for mixed, empty or beyond-int64 columns), an int width from
the ``min`` / ``max``, a float column's int width — every value finite,
integral and not ``-0.0`` — as the i8 / i16 / i32 whose ints plus patches
for the values it does not hold are fewest bytes (else ``f64``), a length
width from the longest entry, a code width from the table size, a head
(the common prefix of ``min`` and ``max``) where it makes the block
smaller, and the dictionary exactly when it is smaller than the plain
``str`` block, each sized after its head.  So unpacking yields values
equal to the originals under ``type()`` and ``repr()`` (a lone surrogate
too), which lets the columnar data plane promise byte-identical query
results — and equal columns pack to equal bytes.

Its consumers: :mod:`repro.serve.protocol` (``INSERT_COLS``; a ``bytes``
batch in ``PARTIALS_OK`` / ``ADOPT``), the shard transport and
:mod:`repro.dsms.engine`'s partial state (as in a segment page).

**A reader that names its columns pays for those and nothing else.**
:func:`unpack_cols` given ``columns`` decodes those blocks; every other
block is *shape-checked, not content-checked* (:func:`block_zeros`): its
byte count must match its rows — a fixed width times the rows, a length
table that sums to its blob (a head within its growth bound), a ``str``
table and one code per row — and the blocks must tile the body, so
truncation and trailing bytes fail for every column, read or not.
Invalid UTF-8 or a code beyond the table inside an unread block is never
looked at: the column comes back as ``rows`` references to the kind's
zero (``0``, ``0.0``, ``""``, ``b""``), a plain list.  A ``tagged`` block
has no shape apart from its content and is always decoded.

All malformed input raises :class:`~repro.core.errors.ProtocolError`.
"""

from __future__ import annotations

import json
import struct
from itertools import compress
from math import trunc
from operator import itemgetter

from repro.core.errors import ProtocolError
from repro.core.protocol import tag_key, untag_key
from repro.core.tree import HEADED, read_strings, string_block, string_head, shrink_of

__all__ = [
    "COLS_CODEC_VERSION",
    "COL_I64",
    "COL_F64",
    "COL_STR",
    "COL_TAGGED",
    "COL_BYTES",
    "COL_DICT",
    "row_count",
    "take_rows",
    "rows_to_cols",
    "cols_to_rows",
    "pack_cols",
    "unpack_cols",
    "pack_column",
    "read_column",
    "open_cols",
    "block_values",
    "block_zeros",
    "block_type",
    "block_name",
    "describe_cols",
    "tag_value",
    "untag_value",
]

#: Layout version byte leading every packed batch a writer emits; the one
#: decoder reads every version (module docstring).
COLS_CODEC_VERSION = 4

#: Column payload kinds: the low nibble of a block's kind byte (see the
#: module docstring).  Each name is the kind at width shrink 0.
COL_I64 = 1
COL_F64 = 2
COL_STR = 3
COL_TAGGED = 4
COL_BYTES = 5
COL_DICT = 6

#: ``struct`` codes by width shrink: an int is ``8 >> shrink`` bytes, a
#: length or dictionary code ``4 >> shrink``.
_SIGNED = "qihb"
_UNSIGNED = "IHB"
#: ``(shrink, limit)``, narrowest first: the ints in ``[-limit, limit)`` fit.
_INT_LIMITS = tuple((shrink, 1 << ((64 >> shrink) - 1)) for shrink in (3, 2, 1, 0))
_ONE = {fmt: struct.Struct("!" + fmt) for fmt in _SIGNED + _UNSIGNED + "d"}
_NEGATIVE_ZERO = _ONE["d"].pack(-0.0)
#: A narrow ``f64`` block's patch: a row its int width does not hold, and
#: that row's value as a float64.
_PATCH = struct.Struct("!Id")

#: codec version, seq+1 (0 = none), row count, column count.
_COLS_HEAD = struct.Struct("!BQIH")

#: kind, payload byte count — one per column.
_COL_HEAD = struct.Struct("!BI")

#: distinct entries — leads a dictionary payload.
_DICT_HEAD = struct.Struct("!I")


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


def take_rows(indices):
    """``column -> tuple of its values at indices`` (one or more), gathered
    in one C call per column."""
    if len(indices) == 1:  # itemgetter(i) would hand back a scalar
        return lambda column: (column[indices[0]],)
    return itemgetter(*indices)


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


def _frame(kind: int, payload: bytes) -> bytes:
    """One column block: ``kind | nbytes | payload``."""
    return _COL_HEAD.pack(kind, len(payload)) + payload


def _pack_str_column(values) -> tuple[int, bytes]:
    """A plain ``str`` block or a dictionary block, whichever is smaller
    once each has taken its head — settled before either is packed."""
    count = len(values)
    table = dict.fromkeys(values)  # the distinct strings, first seen first
    entries = len(table)
    head = string_head(table)  # the column's, from its distinct strings
    table_size, table_layout, pack_table, top = string_block(table, head)
    size, layout, pack, _top = string_block(values, head, top)
    code_shrink = shrink_of(entries - 1)
    codes = (4 >> code_shrink) * count
    if _DICT_HEAD.size + _COL_HEAD.size + table_size + codes >= size:
        return COL_STR | layout, pack()
    table.update(zip(table, range(entries)))  # entry -> code
    return COL_DICT | code_shrink << 4, b"".join((
        _DICT_HEAD.pack(entries),
        _frame(COL_STR | table_layout, pack_table()),
        struct.pack(
            f"!{count}{_UNSIGNED[code_shrink]}",
            *map(table.__getitem__, values),
        ),
    ))


def _float_layout(values) -> tuple[int, list[int]]:
    """``(shrink, patched rows)`` of a float column's fewest-bytes layout.

    A column of finite, integral floats none of which is ``-0.0`` may take
    an int width, shrink 3 / 2 / 1 (i8 / i16 / i32), with the rows whose
    value that width does not hold carried as patches; it takes the width
    whose ints plus patches are fewest bytes, the wider one on a tie, and
    stays ``f64`` — ``(0, [])`` — when no width is smaller.  So one
    outlier costs a patch, not the whole column's width.  The integrality
    test stops at the first fractional value, NaN or infinity.
    """
    # -0.0 == 0.0: only a zero's bits tell them apart.
    if not all(map(float.is_integer, values)) or (
        0.0 in values and _has_negative_zero(values)
    ):
        return 0, []
    count = len(values)
    low, high = min(values), max(values)
    best, best_size, best_rows = 0, 8 * count, []
    outside = []  # the rows the last width that was counted patches
    for shrink, limit in _INT_LIMITS[-2::-1]:  # i32, i16, i8: widest first
        size = (8 >> shrink) * count
        patched = []
        if not (-limit <= low and high < limit):
            # A narrower width patches at least the rows a wider one did.
            if size + _PATCH.size * max(len(outside), 1) >= best_size:
                continue
            outside = patched = _rows_outside(values, low, high, limit)
            size += _PATCH.size * len(patched)
        if size < best_size:
            best, best_size, best_rows = shrink, size, patched
    return best, best_rows


def _rows_outside(values, low: float, high: float, limit: int) -> list[int]:
    """The rows, ascending, whose value is outside ``[-limit, limit)``
    (``low`` / ``high`` are the values' min / max): one C pass a side."""
    every = range(len(values))
    above = (
        compress(every, map(float(limit).__le__, values)) if high >= limit else ()
    )
    below = (
        compress(every, map(float(-limit).__gt__, values)) if low < -limit else ()
    )
    return sorted((*above, *below))


def _has_negative_zero(values) -> bool:
    """Whether a ``-0.0`` is among ``values``: its 8 bytes at a multiple
    of 8 in the packed doubles (one C pack and a byte search)."""
    packed = struct.pack(f"!{len(values)}d", *values)
    at = packed.find(_NEGATIVE_ZERO)
    while at % 8 and at > 0:
        at = packed.find(_NEGATIVE_ZERO, at + 1)
    return at >= 0


def _pack_column(values) -> tuple[int, bytes]:
    """Choose the densest encoding that preserves every value's type exactly."""
    kinds = set(map(type, values))
    if kinds == {int}:
        low, high = min(values), max(values)
        for shrink, limit in _INT_LIMITS:
            if -limit <= low and high < limit:
                return COL_I64 | shrink << 4, struct.pack(
                    f"!{len(values)}{_SIGNED[shrink]}", *values
                )
        # Beyond int64: falls through to the tagged kind.
    elif kinds == {float}:
        # IEEE doubles round-trip struct 'd' bit-exactly, NaN/inf included,
        # and an integral one round-trips through an int or a patch.
        shrink, patched = _float_layout(values)
        if not shrink:
            return COL_F64, struct.pack(f"!{len(values)}d", *values)
        ints = list(map(trunc, values))
        for row in patched:
            ints[row] = 0
        return COL_F64 | shrink << 4, b"".join((
            struct.pack(f"!{len(values)}{_SIGNED[shrink]}", *ints),
            *(_PATCH.pack(row, values[row]) for row in patched),
        ))
    elif kinds == {str}:
        return _pack_str_column(values)
    elif kinds == {bytes}:
        _size, layout, pack, _top = string_block(values, string_head(values))
        return COL_BYTES | layout, pack()
    tagged = json.dumps(
        [tag_value(v) for v in values], separators=(",", ":")
    ).encode("ascii")  # json.dumps escapes every non-ASCII character
    return COL_TAGGED, tagged


def _fixed_values(fmt: str, view, offset: int, count: int, rows) -> list:
    """``count`` network-order ``fmt`` items at ``offset``, or only those
    at the indices ``rows`` (an ``unpack_from`` per row)."""
    if rows is None:
        return list(struct.unpack_from(f"!{count}{fmt}", view, offset))
    one = _ONE[fmt]
    unpack_from, size = one.unpack_from, one.size
    return [unpack_from(view, offset + size * row)[0] for row in rows]


def _unpack_column(kind: int, view, count: int, rows=None) -> list:
    """The ``count`` values of one column payload, or those at ``rows``.
    Every shape check runs before a value is built, so picking no rows
    (``rows=()``) is the shape check alone (``tagged`` excepted)."""
    base, shrink = kind & 15, kind >> 4
    shape_only = rows is not None and not len(rows)
    if (base == COL_I64 and shrink < 4) or kind == COL_F64:
        if len(view) != (8 >> shrink) * count:
            raise ProtocolError(
                f"{_fixed_name(kind)} column: {len(view)} bytes for {count} rows"
            )
        fmt = "d" if kind == COL_F64 else _SIGNED[shrink]
        return _fixed_values(fmt, view, 0, count, rows)
    if base == COL_F64 and shrink < 4:
        return _narrow_floats(kind, view, count, rows)
    if base == COL_STR or base == COL_BYTES:
        values, end = read_strings(view, 0, count, kind, base == COL_STR, rows)
        if end != len(view):
            raise ProtocolError("column blob does not match its lengths")
        return values
    if base == COL_DICT and shrink < 3:
        try:
            (entries,) = _DICT_HEAD.unpack_from(view)
        except struct.error as exc:
            raise ProtocolError(f"truncated dict column: {exc}") from exc
        table_kind, start, end = _block(view, _DICT_HEAD.size)
        if table_kind & 15 != COL_STR:
            raise ProtocolError(f"dict column table has kind {table_kind}")
        if len(view) - end != (4 >> shrink) * count:
            raise ProtocolError(
                f"dict column: {len(view) - end} code bytes for {count} rows"
            )
        table = _unpack_column(
            table_kind, view[start:end], entries, () if shape_only else None
        )
        try:
            return list(map(
                table.__getitem__,
                _fixed_values(_UNSIGNED[shrink], view, end, count, rows),
            ))
        except IndexError:
            raise ProtocolError(
                f"dict column: code beyond its {entries} entries"
            ) from None
    if kind == COL_TAGGED:
        try:
            tags = json.loads(bytes(view).decode("ascii"))
            values = [untag_value(tag) for tag in tags]
        except (UnicodeDecodeError, json.JSONDecodeError, TypeError,
                ValueError, IndexError, KeyError) as exc:
            raise ProtocolError(f"undecodable tagged column: {exc}") from exc
        if len(values) != count:
            raise ProtocolError(
                f"tagged column has {len(values)} values for {count} rows"
            )
        return values if rows is None else [values[row] for row in rows]
    raise ProtocolError(f"unknown column kind {kind}")


def _narrow_floats(kind: int, view, count: int, rows) -> list:
    """A narrow ``f64`` payload's floats, all or those at ``rows``: its
    ints read as floats, then its patches (rows ascending, each below
    ``count``) written over them."""
    head = (8 >> (kind >> 4)) * count
    if len(view) < head or (len(view) - head) % _PATCH.size:
        raise ProtocolError(
            f"{_fixed_name(kind)} column: {len(view)} bytes for {count} rows"
        )
    if rows is not None and not len(rows):
        return []
    values = list(map(float, _fixed_values(_SIGNED[kind >> 4], view, 0, count, rows)))
    patches = {}
    previous = -1
    for row, value in _PATCH.iter_unpack(view[head:]):
        if not previous < row < count:
            raise ProtocolError(
                f"{_fixed_name(kind)} column: patch row {row} out of order "
                f"or beyond {count} rows"
            )
        patches[row] = value
        previous = row
    if rows is None:
        for row, value in patches.items():
            values[row] = value
        return values
    return [patches.get(row, value) for row, value in zip(rows, values)]


def _fixed_name(kind: int) -> str:
    """``i8`` … ``i64``, ``f64`` or ``f64/i8`` … ``f64/i32``."""
    width = f"i{64 >> (kind >> 4)}"
    return width if kind & 15 == COL_I64 else f"f64/{width}" if kind >> 4 else "f64"


def block_name(view, block: tuple[int, int, int]) -> str:
    """The encoding of one decodable :func:`open_cols` block as an
    inspector prints it: ``i8`` … ``i64``, ``f64``, ``f64/i16``,
    ``str/u8``, ``bytes/u32``, ``dict[1000]/u16`` (entries, code width),
    ``tagged``; ``+head8`` when a string block, or a dictionary's table,
    stores an 8-byte head once."""
    kind, start, _end = block
    base, shrink = kind & 15, kind >> 4 & 3
    if base == COL_I64 or base == COL_F64:
        return _fixed_name(kind)
    if base == COL_DICT:
        name = f"dict[{_DICT_HEAD.unpack_from(view, start)[0]}]"
        kind, start, _end = _block(view, start + _DICT_HEAD.size)  # its table
    elif base == COL_STR or base == COL_BYTES:
        name = "str" if base == COL_STR else "bytes"
    else:
        return "tagged"
    name = f"{name}/u{32 >> shrink}"
    if kind & HEADED:  # the head's length leads the length table
        name += f"+head{_ONE[_UNSIGNED[kind >> 4 & 3]].unpack_from(view, start)[0]}"
    return name


def pack_column(values) -> bytes:
    """One self-describing column block, ``kind | nbytes | payload`` —
    the unit :func:`pack_cols` repeats, for a lone typed list in a header
    of the caller's own; read back with :func:`read_column`."""
    return _frame(*_pack_column(values))


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
    block = _block(view, offset)
    return block_values(view, block, count), block[2]


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
    if not 1 <= version <= COLS_CODEC_VERSION:
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
    row, out of a ``str`` / ``bytes`` column one pass over its length
    table, and out of a dictionary column its table decoded once plus a
    code per row; a ``tagged`` column decodes whole either way.
    """
    kind, start, end = block
    return _unpack_column(kind, view[start:end], count, rows)


_BLOCK_TYPES = {
    COL_I64: int, COL_F64: float, COL_STR: str, COL_BYTES: bytes, COL_DICT: str,
}


def block_type(kind: int) -> type | None:
    """The one type every value of a block with this kind byte has — a
    typed block *is* its type by construction — or None for ``tagged``."""
    return _BLOCK_TYPES.get(kind & 15)


def block_zeros(view, block: tuple[int, int, int], count: int) -> list:
    """One :func:`open_cols` block its reader does not want: shape
    checked, content not looked at, ``count`` references to its kind's
    zero returned (module docstring); a ``tagged`` block is decoded."""
    kind, start, end = block
    if kind == COL_TAGGED:
        return block_values(view, block, count)
    _unpack_column(kind, view[start:end], count, ())
    return [block_type(kind)()] * count


def unpack_cols(body, columns=None) -> tuple[list[list], int | None, int]:
    """Parse a packed batch → ``(columns, seq, row_count)``.

    ``columns`` — a container of column indices — names the ones the
    caller reads; the others come back as :func:`block_zeros`.  ``None``
    decodes every column.  Any truncation, trailing garbage, or malformed
    payload of a decoded column raises :class:`ProtocolError`.
    """
    with memoryview(body) as view:
        count, seq, blocks = open_cols(view)
        cols = [
            block_values(view, block, count)
            if columns is None or index in columns
            else block_zeros(view, block, count)
            for index, block in enumerate(blocks)
        ]
    return cols, seq, count


def describe_cols(body) -> tuple[int, list[tuple[str, int]]]:
    """``(row count, [(encoding name, payload bytes) per column])`` of a
    packed batch that :func:`unpack_cols` accepts — what an inspector
    prints, each block named by :func:`block_name`."""
    with memoryview(body) as view:
        count, _seq, blocks = open_cols(view)
        for block in blocks:
            block_values(view, block, count)
        return count, [
            (block_name(view, block), block[2] - block[1]) for block in blocks
        ]
