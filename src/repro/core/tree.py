"""Packed payload trees: the struct codec under ``StreamSummary.to_bytes``.

Every summary describes its state as a JSON-compatible tree (``dict`` /
``list`` / ``str`` / ``int`` / ``float`` / ``bool`` / ``None``) through
its ``_state_payload`` hook.  This module packs *any* such tree — no
per-class layout — and promises ``unpack_tree(pack_tree(p))`` equals
``json.loads(json.dumps(p))`` under ``type()`` and ``repr()``: tuples
read back as lists, everything else as itself, floats bit-exactly (NaN,
±inf and -0.0 included).  The one thing JSON does that this codec
refuses is coercing non-``str`` dict keys.  Little-endian but the string block::

    value  := tag: u8, then
        0 None | 1 False | 2 True                 nothing
        3 int     i64          4 bigint  n: u32, n bytes (signed, big-endian)
        5 float   f64          6 str     n: u32, n bytes of UTF-8
        7 list    n: u32, column(n) if n
        8 dict    n: u32, column(n) of keys, column(n) of values, if n

    column(n) := kind: u8, then
        0 generic  n values
        1 run      one value — the column is that scalar n times (n >= 2)
        2 u8 | 3 u16 | 4 u32 | 5 i64 | 6 f64      n packed numbers
        7 str      layout: u8, then a string block of n entries
        8 records  k: u32, then k column(n)s — n equal-length lists,
                   transposed (1 <= k <= n, so a wide matrix keeps its rows)

    string block := lengths (u32 >> shrink, network order) | the bytes
        layout bits 4-5: shrink (2 = u8, 1 = u16, 0 = u32); bit 7: headed,
        entry 0 the prefix all values share, each other entry its value's
        rest (UTF-8 with surrogatepass; repro.core.cols' str / bytes too)

The column kind is chosen from the values, as :mod:`repro.core.cols`
chooses its kinds: a dense block for one scalar type (ints at the
narrowest width), a transposed table for equal-length records (so a
column of ``["str", item]`` tags becomes a run and a ``str`` block), and
tagged values otherwise.  Lives below :mod:`repro.core.protocol`, which
:mod:`repro.core.cols` imports, hence the stand-alone struct code.

A reader never allocates past the bytes that remain: every count is
checked against them before anything is built.  Two things expand.  Runs
— ten bytes may say "a million zeros" — spend one budget of
``RUN_BUDGET`` elements per buffer on both sides, in encoding order (the
writer then falls back to a dense block, the reader refuses); a head,
repeated on every entry, may not outgrow ``HEAD_GROWTH`` times its block.
All malformed input raises :class:`~repro.core.errors.ParameterError`.
"""

from __future__ import annotations

import struct
from itertools import accumulate
from operator import itemgetter
from os.path import commonprefix

from repro.core.errors import ParameterError, ProtocolError

__all__ = ["RUN_BUDGET", "pack_tree", "unpack_tree", "string_block", "read_strings"]

#: Elements that all the runs of one buffer may expand to.
RUN_BUDGET = 1 << 20
#: Times its own bytes that a string block's repeated head may expand to.
HEAD_GROWTH = 16

_NONE, _FALSE, _TRUE, _INT, _BIGINT, _FLOAT, _STR, _LIST, _DICT = range(9)
_GENERIC, _RUN, _U8, _U16, _U32, _I64, _F64, _STRS, _RECORDS = range(9)

_TAG_I64 = struct.Struct("<Bq")
_TAG_F64 = struct.Struct("<Bd")
_TAG_U32 = struct.Struct("<BI")  # a tag or kind byte and the count after it
_COUNT = struct.Struct("<I")
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

#: Integer block kinds, narrowest first: (kind, struct code, min, max).
_INTS = (
    (_U8, "B", 0, 0xFF), (_U16, "H", 0, 0xFFFF), (_U32, "I", 0, 0xFFFFFFFF),
    (_I64, "q", _I64_MIN, _I64_MAX),
)
#: kind → (struct code, bytes per number) of every numeric block.
_BLOCKS = {kind: (code, struct.calcsize(code)) for kind, code, _, _ in _INTS}
_BLOCKS[_F64] = ("d", 8)
_SCALARS = (int, float, str, bool, type(None))


class _Writer:
    def __init__(self) -> None:
        self.parts: list[bytes] = []
        self.runs_left = RUN_BUDGET

    def value(self, value) -> None:
        add = self.parts.append
        kind = type(value)
        if kind is float:
            add(_TAG_F64.pack(_FLOAT, value))
        elif kind is str:
            raw = value.encode("utf-8", "surrogatepass")
            add(_TAG_U32.pack(_STR, len(raw)))
            add(raw)
        elif kind is bool or value is None:
            add(bytes((_NONE if value is None else _TRUE if value else _FALSE,)))
        elif kind is int:
            if _I64_MIN <= value <= _I64_MAX:
                add(_TAG_I64.pack(_INT, value))
            else:
                raw = value.to_bytes(value.bit_length() // 8 + 1, "big", signed=True)
                add(_TAG_U32.pack(_BIGINT, len(raw)))
                add(raw)
        elif isinstance(value, (list, tuple)):
            add(_TAG_U32.pack(_LIST, len(value)))
            if value:
                self.column(value)
        elif isinstance(value, dict):
            add(_TAG_U32.pack(_DICT, len(value)))
            if value:
                keys = list(value)
                if set(map(type, keys)) != {str}:
                    raise ParameterError(
                        "cannot pack a dict with non-str keys: "
                        f"{sorted(map(repr, keys))[:3]}"
                    )
                self.column(keys)
                self.column(list(value.values()))
        else:
            for base in (float, int, str):
                if isinstance(value, base):  # numpy.float64, an IntEnum:
                    return self.value(base(value))  # what JSON would write
            raise ParameterError(
                f"cannot pack a value of type {kind.__name__!r}; payload "
                "trees hold dict, list, str, int, float, bool and None"
            )

    def column(self, values) -> None:
        """Pack ``len(values) >= 1`` values under the densest exact kind."""
        add = self.parts.append
        count = len(values)
        kinds = set(map(type, values))
        kind = next(iter(kinds)) if len(kinds) == 1 else None
        if kind is float:
            block = struct.pack(f"<{count}d", *values)
            # Compared as bytes: 0.0 == -0.0 and nan != nan, bits do not lie.
            if not self._run(values, block == block[:8] * count):
                add(bytes((_F64,)))
                add(block)
            return
        if kind in _SCALARS and self._run(
            values, values.count(values[0]) == count
        ):
            return
        if kind is int:
            low, high = min(values), max(values)
            for block, code, floor, ceiling in _INTS:
                if floor <= low and high <= ceiling:
                    add(bytes((block,)))
                    add(struct.pack(f"<{count}{code}", *values))
                    return
        elif kind is str:
            _size, layout, pack, _top = string_block(values, string_head(values))
            add(bytes((_STRS, layout)) + pack())
            return
        elif kinds <= {list, tuple}:
            width = len(values[0])
            if 1 <= width <= count and all(len(v) == width for v in values):
                add(_TAG_U32.pack(_RECORDS, width))
                for column in zip(*values):
                    self.column(column)
                return
        add(bytes((_GENERIC,)))
        for value in values:
            self.value(value)

    def _run(self, values, uniform: bool) -> bool:
        """Write ``values`` as a run if they are one scalar, budget allowing."""
        count = len(values)
        if not uniform or count < 2 or count > self.runs_left:
            return False
        self.runs_left -= count
        self.parts.append(bytes((_RUN,)))
        self.value(values[0])
        return True


def pack_tree(tree) -> bytes:
    """One JSON-compatible tree as a packed buffer (module docstring)."""
    writer = _Writer()
    try:
        writer.value(tree)
    except RecursionError as exc:
        raise ParameterError(f"payload tree nests too deeply: {exc}") from exc
    return b"".join(writer.parts)


class _Reader:
    def __init__(self, data) -> None:
        self.data = bytes(data)
        self.at = 0
        self.runs_left = RUN_BUDGET

    def take(self, size: int) -> int:
        """Claim the next ``size`` bytes; returns where they start."""
        start = self.at
        if size < 0 or start + size > len(self.data):
            raise ValueError(
                f"{size} bytes wanted at offset {start}, "
                f"{len(self.data) - start} remain"
            )
        self.at = start + size
        return start

    def count(self) -> int:
        return _COUNT.unpack_from(self.data, self.take(_COUNT.size))[0]

    def value(self):
        data = self.data
        tag = data[self.take(1)]
        if tag == _FLOAT:
            return struct.unpack_from("<d", data, self.take(8))[0]
        if tag == _INT:
            return struct.unpack_from("<q", data, self.take(8))[0]
        if tag <= _TRUE:
            return (None, False, True)[tag]
        count = self.count()
        if tag == _STR:  # take() moves self.at past the bytes it claims
            return data[self.take(count):self.at].decode("utf-8", "surrogatepass")
        if tag == _BIGINT:
            start = self.take(count)
            return int.from_bytes(data[start:self.at], "big", signed=True)
        if tag == _LIST:
            return self.column(count) if count else []
        if tag == _DICT:
            if not count:
                return {}
            keys = self.column(count)
            if set(map(type, keys)) != {str}:
                raise ValueError("dict keys are not all str")
            tree = dict(zip(keys, self.column(count)))
            if len(tree) != count:
                raise ValueError("duplicate dict key")
            return tree
        raise ValueError(f"unknown value tag {tag} at offset {self.at - 5}")

    def column(self, count: int) -> list:
        data = self.data
        kind = data[self.take(1)]
        if kind in _BLOCKS:
            letter, size = _BLOCKS[kind]
            start = self.take(count * size)
            return list(struct.unpack_from(f"<{count}{letter}", data, start))
        if kind == _RUN:
            if count > self.runs_left:
                raise ValueError(f"runs expand past {RUN_BUDGET} elements")
            self.runs_left -= count
            value = self.value()
            if type(value) not in _SCALARS:
                raise ValueError("run of a non-scalar")
            return [value] * count
        if kind == _STRS and not data[self.take(1)] & 15:  # the layout byte
            values, self.at = read_strings(data, self.at, count, data[self.at - 1])
            return values
        if kind == _RECORDS:
            width = self.count()
            # Every column spends its kind byte at least.
            if not 1 <= width <= len(data) - self.at:
                raise ValueError(f"records of width {width}")
            columns = [self.column(count) for _ in range(width)]
            return list(map(list, zip(*columns)))
        if kind == _GENERIC:
            if count > len(data) - self.at:
                raise ValueError(f"{count} values in {len(data) - self.at} bytes")
            return [self.value() for _ in range(count)]
        raise ValueError(f"unknown column kind {kind} at offset {self.at - 1}")


def unpack_tree(data):
    """Inverse of :func:`pack_tree`; every defect is a ``ParameterError``."""
    reader = _Reader(data)
    try:
        tree = reader.value()
        if reader.at != len(reader.data):
            raise ValueError(
                f"{len(reader.data) - reader.at} trailing bytes after the tree"
            )
    except (ValueError, RecursionError) as exc:
        # ValueError: the reader's own checks, and UnicodeDecodeError.
        raise ParameterError(f"malformed payload tree: {exc}") from exc
    return tree


# -- the string block (module docstring): also repro.core.cols' str / bytes payload

HEADED = 0x80  # a string block's layout bit: its head leads
_WIDTHS = "IHB"  # a length by shrink: u32, u16, u8


def shrink_of(top: int) -> int:
    """Halvings of a u32 that still hold ``top``: 2 = u8, 1 = u16, 0 = u32."""
    return 2 if top < 1 << 8 else 1 if top < 1 << 16 else 0


def string_head(values):
    """The prefix all ``values`` share: none when the first and last share
    none, else that of the min and max (two C passes)."""
    ends = (next(iter(values)), next(reversed(values)))
    return commonprefix(ends) and commonprefix((min(values), max(values)))


def string_block(values, head, top: int = 0) -> tuple:
    """``(bytes, layout, pack(), top)`` of the smaller string block over
    ``values`` (longest: ``top`` bytes): headless, or led by ``head``."""
    joined = head[:0].join(values)
    size_of = len
    if type(head) is str and not joined.isascii():  # one encode per distinct value
        seen = {head: None, **dict.fromkeys(values)}
        size_of = {v: len(v.encode("utf-8", "surrogatepass")) for v in seen}.__getitem__
    total = len(joined) if size_of is len else sum(map(size_of, values))
    count, cut, top = len(values), size_of(head), top or max(map(size_of, values))
    shrink = shrink_of(top)
    size, layout = (4 >> shrink) * count + total, shrink << 4
    shrink = shrink_of(max(top - cut, cut))
    headed = (4 >> shrink) * (count + 1) + total - (count - 1) * cut
    if cut and headed < size and count * cut <= HEAD_GROWTH * headed:
        size, layout = headed, shrink << 4 | HEADED

    def pack() -> bytes:
        sizes, data = list(map(size_of, values)), joined
        if layout & HEADED:  # one C-level slice map
            sizes = [cut, *map(cut.__rsub__, sizes)]
            data = head + head[:0].join(map(itemgetter(slice(len(head), None)), values))
        data = data.encode("utf-8", "surrogatepass") if type(data) is str else data
        return struct.pack(f"!{len(sizes)}{_WIDTHS[layout >> 4 & 3]}", *sizes) + data

    return size, layout, pack, top


def read_strings(view, at: int, count: int, layout: int, text: bool = True,
                 rows=None) -> tuple[list, int]:
    """``(values, end)`` of the block of ``count`` str (``text``) or bytes at
    ``at``: all, those at ``rows``, or none (the shape alone) for ``()``."""
    shrink, headed = layout >> 4 & 7, layout >> 7
    if shrink > 2:
        raise ProtocolError(f"unknown column kind {layout}")
    start = at + (4 >> shrink) * (count + headed)
    if start > len(view):
        raise ProtocolError("column shorter than its length table")
    ends = list(accumulate(
        struct.unpack_from(f"!{count + headed}{_WIDTHS[shrink]}", view, at), initial=0
    ))
    end = start + ends[-1]
    if end > len(view):
        raise ProtocolError("column blob does not match its lengths")
    if headed and count * ends[1] > HEAD_GROWTH * (end - at):
        raise ProtocolError(f"a {ends[1]}-byte head on {count} rows outgrows its block")
    if rows is not None and not len(rows):
        return [], end
    blob, starts = view[start:end], ends[headed:]  # value i: starts[i]:starts[i + 1]
    spans = zip(starts, starts[1:])
    if rows is not None:
        spans = [(starts[row], starts[row + 1]) for row in rows]
    decode = (lambda piece: str(piece, "utf-8", "surrogatepass")) if text else bytes
    try:
        # Per entry, so a length (or a head) that splits a character is
        # refused — but at once where byte offsets are character offsets.
        head = decode(blob[:ends[headed]])
        if text and rows is None and len(whole := decode(blob)) == len(blob):
            values = [head + whole[a:b] for a, b in spans]
        else:
            values = [head + decode(blob[a:b]) for a, b in spans]
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"undecodable str column: {exc}") from exc
    return values, end
