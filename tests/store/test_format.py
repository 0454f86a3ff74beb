"""Segment format stability and byte-level robustness.

Two guarantees pinned here:

* **Golden bytes.**  The writer's output for a fixed set of pages is
  byte-for-byte stable.  Any codec change that alters bytes on disk —
  intentional or not — fails these tests and forces a version bump
  instead of a silent format fork.  The segment an older build wrote
  (``GOLDEN_V3_WIDE``) is refused by its version; the widest column kinds
  inside a current-version file still decode.

* **No garbage, ever.**  A segment truncated at *any* byte, or with any
  single corrupted byte, must either read back exactly the original
  rows or raise a located :class:`StoreError` (segment + offset).
  No other exception type, and never silently different data — the
  sweep is a row of ``tests/test_hostile.py``.
"""

from __future__ import annotations

import binascii
import struct

import pytest

from repro.core.errors import StoreError
from repro.core.serde import SEGMENT, frame, head
from repro.store.segment import (
    SEGMENT_VERSION,
    SegmentReader,
    SegmentWriter,
    read_record_at,
)

#: The segment layer never parses a summary: any buffer will do.
SUMMARY = b"\x02\x03abc-opaque-summary-buffer"

#: One page per shape the group-batch packing has: fixed-arity scalar
#: slots under a key column of mixed types (None / bool / an int past
#: i64 fall to the tagged kind), a summary slot, and a ragged slot
#: (scalar arity differs between the two groups).
PAGES = [
    (
        [(7, "h-alpha"), (None, "h-beta"), (True, "h-gamma"), (1 << 70, "h-δ")],
        [[[3, 40.5], [1]], [[0, -0.0], [2]], [[1, float("inf")], [3]],
         [[2, 1e300], [4]]],
    ),
    ([(2.5,)], [[[9], SUMMARY]]),
    ([("a",), ("b",)], [[[1, 2.0]], [[1]]]),
]

#: The writer's output: the page batches at the typed column encodings
#: (i8 states, str/u8 keys, a bytes/u8 summary column).
GOLDEN = (
    "5253454705c40000007250b9c502000200040000000200010003000000000000"
    "0000000000040005040000004c5b5b22696e74222c375d2c5b226c6974657261"
    "6c222c6e756c6c5d2c5b226c69746572616c222c747275655d2c5b22696e7422"
    "2c313138303539313632303731373431313330333432345d5d230000001c0706"
    "0704682d616c706861682d62657461682d67616d6d61682dceb4310000000403"
    "0001020200000020404440000000000080000000000000007ff0000000000000"
    "7e37e43c8800759c3100000004010203044f000000f3b249ef01000200010000"
    "000100ffff030000000000000000000000010003020000000840040000000000"
    "00310000000109250000001c1b02036162632d6f70617175652d73756d6d6172"
    "792d62756666657260000000c81c326a0100010002000000feff030000000000"
    "00000000000002000223000000040101616204000000395b5b226c697374222c"
    "5b5b22696e74222c315d2c5b22666c6f6174222c322e305d5d5d2c5b226c6973"
    "74222c5b5b22696e74222c315d5d5d5d240000002292422f0300000007000000"
    "00000000cc000000040000005700000001000000680000000200000090010000"
    "00000000"
)
#: The same pages as a version-3 segment of the commits before typed
#: column encodings (every int 8 bytes, every length 4).
GOLDEN_V3_WIDE = (
    "525345470308010000d293100402000200040000000200010001000000000000"
    "0000000000040005040000004c5b5b22696e74222c375d2c5b226c6974657261"
    "6c222c6e756c6c5d2c5b226c69746572616c222c747275655d2c5b22696e7422"
    "2c313138303539313632303731373431313330333432345d5d03000000280000"
    "0007000000060000000700000004682d616c706861682d62657461682d67616d"
    "6d61682dceb40100000020000000000000000300000000000000000000000000"
    "0000010000000000000002020000002040444000000000008000000000000000"
    "7ff00000000000007e37e43c8800759c01000000200000000000000001000000"
    "00000000020000000000000003000000000000000459000000fb1a38f0010002"
    "00010000000100ffff0100000000000000000000000100030200000008400400"
    "000000000001000000080000000000000009050000001f0000001b0203616263"
    "2d6f70617175652d73756d6d6172792d62756666657266000000fbee8d150100"
    "010002000000feff010000000000000000000000020002030000000a00000001"
    "00000001616204000000395b5b226c697374222c5b5b22696e74222c315d2c5b"
    "22666c6f6174222c322e305d5d5d2c5b226c697374222c5b5b22696e74222c31"
    "5d5d5d5d2800000099b034d60300000003000000070000000000000010010000"
    "0400000061000000010000006e00000002000000e40100000000000047455352"
)


def restamp(golden: str) -> bytes:
    """A version-3 segment as a current one: its page index (less its
    version word) framed behind a bare offset, every page untouched (the
    column codec reads every version it ever wrote)."""
    data = binascii.unhexlify(golden)
    (footer,) = struct.unpack_from("<Q", data, len(data) - 12)
    (length,) = struct.unpack_from("<I", data, footer)
    index = data[footer + 12:footer + 8 + length]
    return b"".join((
        head(SEGMENT), data[len(head(SEGMENT)):footer],
        frame(index), struct.pack("<Q", footer),
    ))


def build_segment(path: str) -> str:
    writer = SegmentWriter(path)
    for keys, rows in PAGES:
        writer.write_page(keys, rows)
    return writer.finalize()


def read_everything(path: str) -> list:
    """Open, enumerate, and fully decode a segment (every CRC checked)."""
    reader = SegmentReader(path)
    out = [
        (page.offset, page.keys, page.states()) for page in reader.iter_pages()
    ]
    # The page index must agree with sequential iteration, one-row reads
    # (the record-shaped view of a page's first row) included.
    for offset, length, _rows in reader.pages:
        read_record_at(path, offset, length)
    return out


class TestGoldenBytes:
    def test_writer_output_is_byte_stable(self, tmp_path):
        path = build_segment(str(tmp_path / "g.seg"))
        with open(path, "rb") as handle:
            data = handle.read()
        assert data == binascii.unhexlify(GOLDEN), binascii.hexlify(data)

    @pytest.mark.parametrize(
        "golden", [binascii.unhexlify(GOLDEN), restamp(GOLDEN_V3_WIDE)]
    )
    def test_golden_bytes_decode_to_the_source_rows(self, tmp_path, golden):
        # The inverse direction: committed bytes (not freshly written
        # ones) must still decode — this is what protects segments
        # already on users' disks.
        path = str(tmp_path / "g.seg")
        with open(path, "wb") as handle:
            handle.write(golden)
        reader = SegmentReader(path)
        assert SEGMENT_VERSION == 5
        assert reader.records == 7
        assert [rows for _o, _l, rows in reader.pages] == [4, 1, 2]
        decoded = [(keys, states) for _o, keys, states in read_everything(path)]
        assert [
            [(repr(key), repr(states)) for key, states in zip(keys, rows)]
            for keys, rows in decoded
        ] == [
            [(repr(key), repr(states)) for key, states in zip(keys, rows)]
            for keys, rows in PAGES
        ]  # repr: True is not 1, -0.0 is not 0.0
        assert [page.slots for page in reader.iter_pages()] == [
            [2, 1], [1, -1], [-2],
        ]

    def test_an_older_segment_is_refused_naming_its_version(self, tmp_path):
        path = tmp_path / "g.seg"
        path.write_bytes(binascii.unhexlify(GOLDEN_V3_WIDE))
        with pytest.raises(StoreError, match="unsupported version 3 at offset 4 ") as excinfo:
            SegmentReader(str(path))
        assert excinfo.value.segment == str(path)

    def test_the_record_shape_is_the_first_row_of_a_page(self, tmp_path):
        path = build_segment(str(tmp_path / "g.seg"))
        (_, _, _), (offset, length, _), _ = SegmentReader(path).pages
        assert read_record_at(path, offset, length) == {
            "k": [["float", 2.5]],
            "s": [["plain", [9]], ["summary", SUMMARY]],
        }
