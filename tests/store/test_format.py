"""Segment format stability and byte-level robustness.

Two guarantees pinned here:

* **Golden bytes.**  The writer's output for a fixed set of pages is
  byte-for-byte stable.  Any codec change that alters bytes on disk —
  intentional or not — fails these tests and forces a version bump
  instead of a silent format fork.  The segments older builds wrote
  (``GOLDEN_V3_WIDE``, ``GOLDEN_V3``) are refused by their version; the
  widest column kinds inside a current-version file still decode.

* **No garbage, ever.**  A segment truncated at *any* byte, or with any
  single corrupted byte, must either read back exactly the original
  rows or raise a located :class:`StoreError` (segment + offset).
  No other exception type, and never silently different data.
"""

from __future__ import annotations

import binascii
import struct
import zlib

import pytest

from repro.core.errors import StoreError
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
    "5253454704c40000007250b9c502000200040000000200010003000000000000"
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
    "74222c5b5b22696e74222c315d5d5d5d28000000995e997c0400000003000000"
    "0700000000000000cc0000000400000057000000010000006800000002000000"
    "900100000000000047455352"
)
#: The same pages as a version-3 segment of the commits before typed
#: column encodings (every int 8 bytes, every length 4) ...
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
#: ... and of the commits before narrow ``f64`` (the batches at codec
#: version 2).
GOLDEN_V3 = (
    "5253454703c4000000f7dc5d3002000200040000000200010002000000000000"
    "0000000000040005040000004c5b5b22696e74222c375d2c5b226c6974657261"
    "6c222c6e756c6c5d2c5b226c69746572616c222c747275655d2c5b22696e7422"
    "2c313138303539313632303731373431313330333432345d5d230000001c0706"
    "0704682d616c706861682d62657461682d67616d6d61682dceb4310000000403"
    "0001020200000020404440000000000080000000000000007ff0000000000000"
    "7e37e43c8800759c3100000004010203044f000000ab56086201000200010000"
    "000100ffff020000000000000000000000010003020000000840040000000000"
    "00310000000109250000001c1b02036162632d6f70617175652d73756d6d6172"
    "792d62756666657260000000a22e86f00100010002000000feff020000000000"
    "00000000000002000223000000040101616204000000395b5b226c697374222c"
    "5b5b22696e74222c315d2c5b22666c6f6174222c322e305d5d5d2c5b226c6973"
    "74222c5b5b22696e74222c315d5d5d5d28000000ceada4860300000003000000"
    "0700000000000000cc0000000400000057000000010000006800000002000000"
    "900100000000000047455352"
)


def restamp(golden: str) -> bytes:
    """A committed segment as a current-version file: the header and
    footer versions rewritten and the footer CRC resealed, every page (and
    the column batches inside, whose codec reads every version it ever
    wrote) untouched."""
    data = bytearray(binascii.unhexlify(golden))
    data[4] = SEGMENT_VERSION
    (footer,) = struct.unpack_from("<Q", data, len(data) - 12)
    (length,) = struct.unpack_from("<I", data, footer)
    body = footer + 8
    struct.pack_into("<I", data, body, SEGMENT_VERSION)
    struct.pack_into("<I", data, footer + 4, zlib.crc32(data[body:body + length]))
    return bytes(data)


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
        assert reader.version == SEGMENT_VERSION == 4
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

    @pytest.mark.parametrize("golden", [GOLDEN_V3_WIDE, GOLDEN_V3])
    def test_an_older_segment_is_refused_naming_its_version(
        self, tmp_path, golden
    ):
        path = str(tmp_path / "g.seg")
        with open(path, "wb") as handle:
            handle.write(binascii.unhexlify(golden))
        with pytest.raises(StoreError, match="unsupported version 3 ") as excinfo:
            SegmentReader(path)
        assert excinfo.value.segment == path

    def test_the_record_shape_is_the_first_row_of_a_page(self, tmp_path):
        path = build_segment(str(tmp_path / "g.seg"))
        (_, _, _), (offset, length, _), _ = SegmentReader(path).pages
        assert read_record_at(path, offset, length) == {
            "k": [["float", 2.5]],
            "s": [["plain", [9]], ["summary", SUMMARY]],
        }


@pytest.mark.chaos
class TestByteLevelFuzz:
    def test_truncation_at_every_byte_is_a_located_error(self, tmp_path):
        path = build_segment(str(tmp_path / "t.seg"))
        with open(path, "rb") as handle:
            data = handle.read()
        mutant = str(tmp_path / "mutant.seg")
        for cut in range(len(data)):
            with open(mutant, "wb") as handle:
                handle.write(data[:cut])
            with pytest.raises(StoreError) as excinfo:
                read_everything(mutant)
            assert excinfo.value.segment == mutant

    def test_bit_flips_never_yield_garbage(self, tmp_path):
        path = build_segment(str(tmp_path / "f.seg"))
        with open(path, "rb") as handle:
            data = handle.read()
        baseline = repr(read_everything(path))
        mutant = str(tmp_path / "mutant.seg")
        flipped = 0
        surfaced = 0
        for pos in range(len(data)):
            for mask in (0x01, 0x80, 0xFF):  # low bit, high bit, whole byte
                corrupt = bytearray(data)
                corrupt[pos] ^= mask
                with open(mutant, "wb") as handle:
                    handle.write(bytes(corrupt))
                flipped += 1
                try:
                    result = read_everything(mutant)
                except StoreError as error:
                    # A located refusal is the expected outcome.
                    assert error.segment == mutant
                    surfaced += 1
                else:
                    # The only acceptable alternative: the flip was
                    # semantically invisible and the data is *identical*.
                    assert repr(result) == baseline, (
                        f"byte {pos} mask {mask:#x}: decoded garbage"
                    )
        # Every byte of the format is load-bearing: corruption must
        # essentially always surface, not be read around.
        assert surfaced >= flipped * 0.99
