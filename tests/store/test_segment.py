"""Segment file format: framing, atomic publish, and corruption evidence.

Every byte the cold tier trusts is covered here: CRC-framed records, the
footer index (JSON in version 1, packed key-hash entries in version 2),
the fixed trailer, and the write-then-rename-then-directory-fsync
publish.  The corruption tests are the contract the chaos tests build on
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

KEY_A = [["int", 1], ["str", "h1"]]
KEY_B = [["int", 2], ["str", "h2"]]
STATES = [["plain", [3, 120.0]], ["plain", [7]]]

BOTH_VERSIONS = pytest.mark.parametrize("version", [1, 2])


def write_segment(path: str, keys=(KEY_A, KEY_B), version=SEGMENT_VERSION):
    writer = SegmentWriter(path, version=version)
    locations = {}
    for i, key in enumerate(keys):
        offset, length = writer.append(key, STATES, generation=i)
        locations[canonical_key(key)] = [offset, length]
    writer.finalize()
    return locations


class TestWriterReader:
    @BOTH_VERSIONS
    def test_round_trip(self, tmp_path, version):
        path = str(tmp_path / "000000.seg")
        locations = write_segment(path, version=version)
        reader = SegmentReader(path)
        assert reader.version == version
        assert reader.records == 2
        for canon, loc in locations.items():
            assert reader.lookup(canon) == [tuple(loc)]
        record = reader.read(canonical_key(KEY_A))
        assert record["k"] == KEY_A
        assert record["s"] == STATES
        assert record["g"] == 0

    def test_v1_reader_exposes_canonical_index(self, tmp_path):
        path = str(tmp_path / "000000.seg")
        locations = write_segment(path, version=1)
        assert SegmentReader(path).index == locations

    @BOTH_VERSIONS
    def test_iter_records_in_file_order(self, tmp_path, version):
        path = str(tmp_path / "s.seg")
        write_segment(path, version=version)
        offsets = [offset for offset, _ in SegmentReader(path).iter_records()]
        assert offsets == sorted(offsets)

    def test_versions_decode_identically(self, tmp_path):
        records = {}
        for version in (1, 2):
            path = str(tmp_path / f"v{version}.seg")
            write_segment(path, version=version)
            records[version] = [r for _, r in SegmentReader(path).iter_records()]
        assert records[1] == records[2]

    def test_a_summary_state_is_its_raw_buffer_in_both_versions(self, tmp_path):
        # Version-1 bodies are JSON and spell a summary as its envelope;
        # the record dict a reader hands out holds the to_bytes buffer.
        summary = create_summary("weighted_spacesaving")
        summary.update("h", 2.5)
        states = [["plain", [1]], ["summary", summary.to_bytes()]]
        for version in (1, 2):
            path = str(tmp_path / f"v{version}.seg")
            writer = SegmentWriter(path, version=version)
            offset, length = writer.append(KEY_A, states)
            writer.finalize()
            assert read_record_at(path, offset, length)["s"] == states
        with open(str(tmp_path / "v1.seg"), "rb") as handle:
            assert b'"summary",{"type":"WeightedSpaceSaving"' in handle.read()

    def test_v2_is_smaller_than_v1(self, tmp_path):
        sizes = {}
        for version in (1, 2):
            path = str(tmp_path / f"v{version}.seg")
            write_segment(path, version=version)
            sizes[version] = os.path.getsize(path)
        assert sizes[2] < sizes[1]

    def test_unknown_write_version_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="cannot write version"):
            SegmentWriter(str(tmp_path / "s.seg"), version=3)

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

    @BOTH_VERSIONS
    def test_open_writer_readable_after_flush(self, tmp_path, version):
        # The store reads spilled groups back out of its *open* segment;
        # a flushed staging file must serve exact records.
        path = str(tmp_path / "s.seg")
        writer = SegmentWriter(path, version=version)
        offset, length = writer.append(KEY_A, STATES)
        writer.flush()
        record = read_record_at(writer.staging_path, offset, length)
        assert record["k"] == KEY_A and record["s"] == STATES
        writer.abort()

    def test_bytes_written_counts_records_only(self, tmp_path):
        # The docstring contract: bytes_written excludes the header (and
        # footer/trailer), so the store's rotation threshold compares
        # record payload against record payload.
        writer = SegmentWriter(str(tmp_path / "s.seg"))
        assert writer.bytes_written == 0
        offset, length = writer.append(KEY_A, STATES)
        assert writer.bytes_written == length
        writer.abort()


class TestCorruptionEvidence:
    def corrupt(self, path: str, offset: int, xor: int = 0xFF) -> None:
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ xor]))

    @BOTH_VERSIONS
    def test_record_bit_flip_names_segment_and_offset(self, tmp_path, version):
        path = str(tmp_path / "000003.seg")
        locations = write_segment(path, version=version)
        offset, length = locations[canonical_key(KEY_A)]
        self.corrupt(path, offset + 8 + 2)  # inside the record body
        with pytest.raises(StoreError, match="CRC mismatch") as excinfo:
            read_record_at(path, offset, length)
        assert excinfo.value.segment == path
        assert excinfo.value.offset == offset
        assert "000003.seg" in str(excinfo.value)

    @BOTH_VERSIONS
    def test_truncated_record_read(self, tmp_path, version):
        path = str(tmp_path / "s.seg")
        locations = write_segment(path, version=version)
        canon = sorted(
            locations, key=lambda k: locations[k][0], reverse=True
        )[0]
        offset, length = locations[canon]
        with open(path, "r+b") as handle:
            handle.truncate(offset + 4)
        with pytest.raises(StoreError, match="truncated"):
            read_record_at(path, offset, length)

    @BOTH_VERSIONS
    def test_overlong_read_is_not_called_truncated(self, tmp_path, version):
        # A stale directory entry spanning past its record delivers MORE
        # body bytes than the frame header promises; the error must name
        # the length mismatch, not claim truncation.
        path = str(tmp_path / "s.seg")
        locations = write_segment(path, version=version)
        canon = min(locations, key=lambda k: locations[k][0])
        offset, length = locations[canon]
        with pytest.raises(StoreError, match="length mismatch") as excinfo:
            read_record_at(path, offset, length + 8)
        assert "truncated" not in str(excinfo.value)
        assert excinfo.value.offset == offset

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "s.seg")
        write_segment(path)
        self.corrupt(path, 0)
        with pytest.raises(StoreError, match="bad magic"):
            SegmentReader(path)

    def test_unsupported_version(self, tmp_path):
        path = str(tmp_path / "s.seg")
        write_segment(path)
        with open(path, "r+b") as handle:
            handle.seek(4)
            handle.write(bytes([SEGMENT_VERSION + 9]))
        with pytest.raises(StoreError, match="unsupported version"):
            SegmentReader(path)

    @BOTH_VERSIONS
    def test_truncated_finalize(self, tmp_path, version):
        path = str(tmp_path / "s.seg")
        write_segment(path, version=version)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 7)  # rips through the trailer
        with pytest.raises(StoreError):
            SegmentReader(path)

    @BOTH_VERSIONS
    def test_corrupt_footer(self, tmp_path, version):
        path = str(tmp_path / "s.seg")
        write_segment(path, version=version)
        reader = SegmentReader(path)
        self.corrupt(path, reader.footer_offset + 8 + 3)
        with pytest.raises(StoreError, match="footer"):
            SegmentReader(path)

    @BOTH_VERSIONS
    def test_footer_count_mismatch_is_rejected(self, tmp_path, version):
        # A footer whose declared record count disagrees with its own
        # index length is evidence of corruption, not something to trust.
        path = str(tmp_path / "s.seg")
        writer = SegmentWriter(path, version=version)
        writer.append(KEY_A, STATES)
        writer.append(KEY_B, STATES)
        writer.records = 3  # lie, then finalize with a consistent CRC
        writer.finalize()
        with pytest.raises(StoreError, match="disagrees with index length"):
            SegmentReader(path)

    def test_too_short_file(self, tmp_path):
        path = str(tmp_path / "s.seg")
        with open(path, "wb") as handle:
            handle.write(b"RSEG\x01")
        with pytest.raises(StoreError, match="too short"):
            SegmentReader(path)
