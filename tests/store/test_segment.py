"""Segment file format: framing, atomic publish, and corruption evidence.

Every byte the cold tier trusts is covered here: CRC-framed pages, the
footer's page index, the fixed trailer, and the
write-then-rename-then-directory-fsync publish.  The corruption tests are the contract the chaos tests build on
— a damaged segment must raise a :class:`StoreError` that *names the
segment and offset*, never return wrong bytes.
"""

from __future__ import annotations

import os

import pytest

from repro.core.errors import StoreError
from repro.store import (
    SEGMENT_VERSION,
    SegmentReader,
    SegmentWriter,
    canonical_key,
    read_record_at,
)
from repro.core.registry import create_summary
from repro.store import segment as segment_mod
from repro.store.segment import read_page

KEY_A = [["int", 1], ["str", "h1"]]
KEY_B = [["int", 2], ["str", "h2"]]
STATES = [["plain", [3, 120.0]], ["plain", [7]]]


def write_segment(path: str, keys=(KEY_A, KEY_B)):
    """One page of one row per key — the record-shaped writer API."""
    writer = SegmentWriter(path)
    locations = {}
    for key in keys:
        offset, length = writer.append(key, STATES)
        locations[canonical_key(key)] = [offset, length]
    writer.finalize()
    return locations


class TestWriterReader:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "000000.seg")
        locations = write_segment(path)
        reader = SegmentReader(path)
        assert SEGMENT_VERSION == 8
        assert reader.records == 2
        assert [(o, n) for o, n, _rows in reader.pages] == [
            tuple(loc) for loc in locations.values()
        ]
        offset, length = locations[canonical_key(KEY_A)]
        assert read_record_at(path, offset, length) == {"k": KEY_A, "s": STATES}

    def test_a_page_holds_many_groups_column_wise(self, tmp_path):
        path = str(tmp_path / "s.seg")
        writer = SegmentWriter(path)
        keys = [(i, f"h{i}") for i in range(100)]
        rows = [[[i, i * 1.5], [7]] for i in range(100)]
        offset, length = writer.write_page(keys, rows)
        assert writer.records == 100 and writer.pages == [(offset, length, 100)]
        writer.finalize()
        with open(path, "rb") as handle:
            page = read_page(handle, path, offset, length)
        assert page.keys == keys and len(page) == 100
        assert page.states() == rows
        # Picking rows decodes those rows only, in the order asked for.
        assert page.states([41, 3]) == [rows[41], rows[3]]
        assert length < 100 * 40  # ~29 B/group of payload, one page frame

    def test_a_summary_state_is_its_raw_buffer(self, tmp_path):
        summary = create_summary("weighted_spacesaving")
        summary.update("h", 2.5)
        states = [["plain", [1]], ["summary", summary.to_bytes()]]
        path = str(tmp_path / "s.seg")
        writer = SegmentWriter(path)
        offset, length = writer.append(KEY_A, states)
        # A live summary is serialized by the page writer itself.
        live, _ = writer.write_page([(1, "h1")], [[[1], summary]])
        writer.finalize()
        assert read_record_at(path, offset, length)["s"] == states
        assert read_record_at(path, live, length)["s"] == states

    def test_writer_takes_no_version(self, tmp_path):
        with pytest.raises(TypeError):
            SegmentWriter(str(tmp_path / "s.seg"), version=2)

    def test_finalize_is_atomic(self, tmp_path):
        path = str(tmp_path / "s.seg")
        writer = SegmentWriter(path)
        writer.append(KEY_A, STATES)
        # Nothing at the final path until finalize; staging file exists.
        assert not os.path.exists(path)
        assert os.path.exists(writer.staging_path)
        writer.finalize()
        assert os.path.exists(path)
        assert not os.path.exists(writer.staging_path)

    def test_finalize_fsyncs_parent_directory(self, tmp_path, monkeypatch):
        # The rename publish is directory metadata: without an fsync of
        # the parent directory a power loss can forget the whole segment.
        synced = []
        monkeypatch.setattr(
            segment_mod, "fsync_dir", lambda d: synced.append(d)
        )
        path = str(tmp_path / "s.seg")
        writer = SegmentWriter(path)
        writer.append(KEY_A, STATES)
        assert synced == []
        writer.finalize()
        assert synced == [str(tmp_path)]

    def test_abort_removes_staging(self, tmp_path):
        path = str(tmp_path / "s.seg")
        writer = SegmentWriter(path)
        writer.append(KEY_A, STATES)
        writer.abort()
        assert not os.path.exists(path)
        assert not os.path.exists(writer.staging_path)

    def test_open_writer_readable_after_flush(self, tmp_path):
        # The store reads spilled groups back out of its *open* segment;
        # a flushed staging file must serve exact records.
        path = str(tmp_path / "s.seg")
        writer = SegmentWriter(path)
        offset, length = writer.append(KEY_A, STATES)
        writer.flush()
        record = read_record_at(writer.staging_path, offset, length)
        assert record["k"] == KEY_A and record["s"] == STATES
        writer.abort()

    def test_bytes_written_counts_records_only(self, tmp_path):
        # The docstring contract: bytes_written excludes the header (and
        # footer/trailer), so the store's rotation threshold compares
        # page payload against page payload.
        writer = SegmentWriter(str(tmp_path / "s.seg"))
        assert writer.bytes_written == 0
        offset, length = writer.append(KEY_A, STATES)
        assert writer.bytes_written == length
        writer.abort()


class TestCorruptionEvidence:
    def test_record_bit_flip_names_segment_and_offset(self, tmp_path):
        path = tmp_path / "000003.seg"
        offset, length = write_segment(str(path))[canonical_key(KEY_A)]
        footer = SegmentReader(str(path)).footer_offset
        data = bytearray(path.read_bytes())
        data[offset + 8 + 2] ^= 0xFF  # inside the record body
        path.write_bytes(data)
        with pytest.raises(StoreError, match="fails its CRC32") as excinfo:
            read_record_at(str(path), offset, length)
        assert excinfo.value.segment == str(path)
        assert excinfo.value.offset == offset
        assert "000003.seg" in str(excinfo.value)
        data[footer + 8 + 3] ^= 0xFF  # inside the footer body
        path.write_bytes(data)
        with pytest.raises(StoreError, match="footer") as excinfo:
            SegmentReader(str(path))
        assert excinfo.value.offset == footer

    def test_truncated_record_read(self, tmp_path):
        path = str(tmp_path / "s.seg")
        locations = write_segment(path)
        canon = sorted(
            locations, key=lambda k: locations[k][0], reverse=True
        )[0]
        offset, length = locations[canon]
        with open(path, "r+b") as handle:
            handle.truncate(offset + 4)
        with pytest.raises(StoreError, match="truncated"):
            read_record_at(path, offset, length)

    def test_overlong_read_is_not_called_truncated(self, tmp_path):
        # A stale directory entry spanning past its record delivers MORE
        # body bytes than the frame header promises; the error must name
        # the length mismatch, not claim truncation.
        path = str(tmp_path / "s.seg")
        locations = write_segment(path)
        canon = min(locations, key=lambda k: locations[k][0])
        offset, length = locations[canon]
        with pytest.raises(StoreError, match="length mismatch") as excinfo:
            read_record_at(path, offset, length + 8)
        assert "truncated" not in str(excinfo.value)
        assert excinfo.value.offset == offset

    # A damaged byte, a truncation, another magic or version anywhere in
    # a segment: tests/test_hostile.py.

    def test_footer_count_mismatch_is_rejected(self, tmp_path):
        # A footer whose declared row count disagrees with its own page
        # index is evidence of corruption, not something to trust.
        path = str(tmp_path / "s.seg")
        writer = SegmentWriter(path)
        writer.append(KEY_A, STATES)
        writer.append(KEY_B, STATES)
        writer.records = 3  # lie, then finalize with a consistent CRC
        writer.finalize()
        with pytest.raises(StoreError, match="disagree with its index"):
            SegmentReader(path)
