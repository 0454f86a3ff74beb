"""Segment format stability and byte-level robustness.

Two guarantees pinned here:

* **Golden bytes.**  The writer's output for a fixed set of pages is
  byte-for-byte stable.  Any codec change that alters bytes on disk —
  intentional or not — fails these tests and forces a version bump
  instead of a silent format fork.  The segments older builds wrote
  (``GOLDEN_V3_WIDE``, ``GOLDEN_V5``, ``GOLDEN_V6``, ``GOLDEN_V7``) are
  refused by their version, and their pages inside a current-version
  file by the JSON ``tagged`` column they hold.

* **No garbage, ever.**  A segment truncated at *any* byte, or with any
  single corrupted byte, must either read back exactly the original
  rows or raise a located :class:`StoreError` (segment + offset).
  No other exception type, and never silently different data — the
  sweep is a row of ``tests/test_hostile.py``.
"""

from __future__ import annotations

import binascii
import struct
import zlib

import pytest

from repro.core.errors import StoreError
from repro.core.serde import SEGMENT, frame, head, inflate
from repro.store.segment import (
    SEGMENT_VERSION,
    SegmentReader,
    SegmentWriter,
    read_record_at,
)
from tests.dsms.test_partial_codec import GOLDEN_ZLIB

#: How a segment frames its footer: plain.
PLAIN = SEGMENT._replace(deflated=False)
#: The segment layer never parses a summary: any buffer will do.
SUMMARY = b"\x02\x03abc-opaque-summary-buffer"

#: One page per shape the group-batch packing has: fixed-arity scalar
#: slots under a key column of mixed types (None / bool / an int past
#: i64 fall to the tagged kind), a summary slot, and a ragged slot
#: (scalar arity differs between the two groups: a tagged column of lists).
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
#: (i8 states, str/u8 keys with their shared "h-" once, a bytes/u8
#: summary column, tree-packed tagged columns), each page deflated (by
#: zlib 1.2.13: ``GOLDEN_ZLIB``).
GOLDEN = (
    "525345470872000000050d6fd501920000006362606260616000928c0cac401a"
    "06581858d9816c797690240333880d064c2c9c40da01c26160580c648833b1b2"
    "b03265e826e614642426a59624a627e6e6269edb620894636166606462023214"
    "1c5c1c8014034303986460a8ff0061d4993fb1e960289d0356cdc8c4cc020044"
    "000000fe3c9843014f0000006364606260646000e2ffff5981340c3032303301"
    "d91c0e2c10114320c5c8a90a2465a4999813939275f30b120b4b53758b4b7373"
    "138b2a75934ad3d2528b0036000000f68a7b7d014c0000006364606460626060"
    "f8f79f1548c2001303933290cdc2c89898c40e64a8b283d43040486646101b08"
    "603a1cd841224c8c00240000003d5bce7c0300000007000000000000007a0000"
    "00040000004c000000010000003e000000020000000901000000000000"
)
#: The same pages as a version-7 segment of the commits before a ``tagged``
#: column was a :mod:`repro.core.tree` list: its first and last pages hold
#: JSON ``tagged`` blocks (kind 4).
GOLDEN_V7 = (
    "52534547079b000000f4eb718201bf0000006362606260616000928c601ac804"
    "0316065690b04f74b452665e89928e79ac4eb4524e66496a51628e924e5e694e"
    "0e8a404951692a4800acd6d0d0c2c0d4d2d0ccc8c0dcd0dcc4d0d0d8c0d8c4c8"
    "24367631d0407126561656a60cddc49c828cc4a4d492c4f4c4dcdcc4735b0c81"
    "722ccc0c8c4c4c408682838b039062606800930c0cf51f208c3af327361d0ca5"
    "73c0aa199998590044000000ee45b54a014f0000006364606260646000e2ffff"
    "5980340c3032303301d91c0e504143208791531548ca483331272625ebe61724"
    "1696a6ea1697e6e6261655ea2695a6a5a516010047000000b15d118401600000"
    "006364606460626060f8f79f0548c2001303933290cdc2c898980412b78c8e56"
    "cac92c2e51d2013232f380b461ac4eb4525a4e7e22906da467101b0be2a32b01"
    "8a02002400000048e3125b030000000700000000000000a3000000040000004c"
    "000000010000004f000000020000004301000000000000"
)
#: The same pages as a version-6 segment of the commits before deflated
#: pages: each page body is what ``GOLDEN``'s pages inflate to.
GOLDEN_V6 = (
    "5253454706bf0000009d13ef4e02000200040000000200010004000000000000"
    "0000000000040005040000004c5b5b22696e74222c375d2c5b226c6974657261"
    "6c222c6e756c6c5d2c5b226c69746572616c222c747275655d2c5b22696e7422"
    "2c313138303539313632303731373431313330333432345d5da3000000170205"
    "040502682d616c7068616265746167616d6d61ceb43100000004030001020200"
    "000020404440000000000080000000000000007ff00000000000007e37e43c88"
    "00759c3100000004010203044f000000f9036efb01000200010000000100ffff"
    "0400000000000000000000000100030200000008400400000000000031000000"
    "0109250000001c1b02036162632d6f70617175652d73756d6d6172792d627566"
    "666572600000005c8fdc190100010002000000feff0400000000000000000000"
    "0002000223000000040101616204000000395b5b226c697374222c5b5b22696e"
    "74222c315d2c5b22666c6f6174222c322e305d5d5d2c5b226c697374222c5b5b"
    "22696e74222c315d5d5d5d24000000b40751a5030000000700000000000000c7"
    "00000004000000570000000100000068000000020000008b01000000000000"
)
#: The same pages as a version-5 segment of the commits before string
#: heads (each key spelled out whole).
GOLDEN_V5 = (
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


def pages_of(data: bytes) -> tuple[bytes, list[tuple[bytes, int]]]:
    """A segment's page index head and ``(stored body, rows)`` per page."""
    trailer = 12 if data[4] == 3 else 8  # version 3 ended in a footer magic
    (footer,) = struct.unpack_from("<Q", data, len(data) - trailer)
    (length,) = struct.unpack_from("<I", data, footer)
    index = data[footer + trailer:footer + 8 + length]  # less 3's version word
    pages, at = [], len(head(SEGMENT))
    for framed, rows in struct.iter_unpack("<II", index[12:]):
        pages.append((data[at + 8:at + framed], rows))
        at += framed
    return index[:12], pages


def segment_of(index_head: bytes, pages: list[tuple[bytes, int]]) -> bytes:
    """A current-version segment of ``(framed page, rows)`` pages."""
    index = index_head + b"".join(struct.pack("<II", len(p), n) for p, n in pages)
    return b"".join((
        head(SEGMENT), *(page for page, _rows in pages), frame(PLAIN, index),
        struct.pack("<Q", len(head(SEGMENT)) + sum(len(p) for p, _n in pages)),
    ))


def restamp(golden: str) -> bytes:
    """A version-3, -5, -6 or -7 segment as a current one: each page body
    framed (and so deflated) afresh behind a rebuilt index, every body
    untouched."""
    data = binascii.unhexlify(golden)
    index_head, pages = pages_of(data)
    if data[4] == 7:  # deflated bodies: each re-framed as what it inflates to
        pages = [(inflate(SEGMENT._replace(version=7), body), n) for body, n in pages]
    return segment_of(index_head, [(frame(SEGMENT, body), n) for body, n in pages])


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
        if zlib.ZLIB_RUNTIME_VERSION == GOLDEN_ZLIB:  # another picks other streams
            assert data == binascii.unhexlify(GOLDEN), binascii.hexlify(data)
        # Version 8 changed the tagged blocks alone: the summary page, which
        # holds none, inflates to version 7's body; the other two shrink.
        inflated = [bytes(inflate(SEGMENT, body)) for body, _ in pages_of(data)[1]]
        v7 = SEGMENT._replace(version=7)
        older = [bytes(inflate(v7, body)) for body, _ in
                 pages_of(binascii.unhexlify(GOLDEN_V7))[1]]
        cols = 8 + 2 * 2  # the page head and two slot codes: its version byte
        assert (older[1][cols], inflated[1][cols]) == (4, 5)
        assert older[1][:cols] + older[1][cols + 1:] == (
            inflated[1][:cols] + inflated[1][cols + 1:])
        assert [len(a) - len(b) for a, b in zip(inflated, older)] == [-45, 0, -20]
        # Version 7 deflated version 6's page bodies, byte for byte.
        assert older == [
            body for body, _rows in pages_of(binascii.unhexlify(GOLDEN_V6))[1]
        ]

    def test_golden_bytes_decode_to_the_source_rows(self, tmp_path):
        # The inverse direction: committed bytes (not freshly written
        # ones) must still decode — this is what protects segments
        # already on users' disks.
        path = str(tmp_path / "g.seg")
        with open(path, "wb") as handle:
            handle.write(binascii.unhexlify(GOLDEN))
        reader = SegmentReader(path)
        assert SEGMENT_VERSION == 8
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

    @pytest.mark.parametrize("golden, version", [
        (GOLDEN_V3_WIDE, 3), (GOLDEN_V5, 5), (GOLDEN_V6, 6), (GOLDEN_V7, 7),
    ])
    def test_an_older_segment_is_refused_naming_its_version(
        self, tmp_path, golden, version
    ):
        path = tmp_path / "g.seg"
        path.write_bytes(binascii.unhexlify(golden))
        with pytest.raises(
            StoreError, match=f"unsupported version {version} at offset 4 "
        ) as excinfo:
            SegmentReader(str(path))
        assert excinfo.value.segment == str(path)

    @pytest.mark.parametrize("golden", [GOLDEN_V3_WIDE, GOLDEN_V5, GOLDEN_V6, GOLDEN_V7],
                             ids=["v3-wide", "v5", "v6", "v7"])
    def test_an_older_page_is_refused_by_its_json_tagged_column(self, tmp_path, golden):
        # Re-framed in a current segment, an older page's JSON tagged block
        # is never read as a tree: a located StoreError names the kind.
        path = tmp_path / "g.seg"
        path.write_bytes(restamp(golden))
        reader = SegmentReader(str(path))
        first, _summary, last = reader.pages
        with pytest.raises(StoreError, match="retired column kind 4") as excinfo:
            read_everything(str(path))
        assert (excinfo.value.segment, excinfo.value.offset) == (str(path), first[0])
        with pytest.raises(StoreError, match="retired column kind 4") as excinfo:
            read_record_at(str(path), last[0], last[1])
        assert excinfo.value.offset == last[0]

    def test_the_record_shape_is_the_first_row_of_a_page(self, tmp_path):
        path = build_segment(str(tmp_path / "g.seg"))
        (_, _, _), (offset, length, _), _ = SegmentReader(path).pages
        assert read_record_at(path, offset, length) == {
            "k": [["float", 2.5]],
            "s": [["plain", [9]], ["summary", SUMMARY]],
        }
