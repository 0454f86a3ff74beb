"""The on-disk key directory: hashing, collisions, growth, snapshots.

The directory is the structure that lets the store hold ten million cold
groups without a per-key Python object in RAM, so these tests hammer the
properties the tiered store leans on: inserts are never lost across
growth, collisions surface every candidate (never a silently wrong one),
deletes tombstone exactly the entry named, and a checkpoint snapshot is
an independent, consistent copy.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.errors import StoreError
from repro.store.directory import KeyDirectory


@pytest.fixture
def directory(tmp_path):
    d = KeyDirectory(str(tmp_path / "keys.dir"))
    yield d
    d.close()


class TestBasics:
    def test_put_lookup_delete(self, directory):
        directory.put(0xDEAD, seg=3, offset=40, length=17)
        assert directory.lookup(0xDEAD) == [(3, 40, 17)]
        assert directory.lookup(0xBEEF) == []
        assert len(directory) == 1
        assert directory.delete(0xDEAD, seg=3, offset=40)
        assert directory.lookup(0xDEAD) == []
        assert len(directory) == 0
        assert not directory.delete(0xDEAD, seg=3, offset=40)

    def test_collisions_yield_every_candidate(self, directory):
        # Same 64-bit hash, different records: both entries must surface,
        # in probe order, so the caller can verify keys record-by-record.
        directory.put(7, seg=1, offset=10, length=5)
        directory.put(7, seg=2, offset=99, length=6)
        assert directory.lookup(7) == [(1, 10, 5), (2, 99, 6)]
        # Deleting one candidate leaves the other reachable (the
        # tombstone must not break the probe chain).
        assert directory.delete(7, seg=1, offset=10)
        assert directory.lookup(7) == [(2, 99, 6)]

    def test_delete_matches_exact_entry(self, directory):
        directory.put(7, seg=1, offset=10, length=5)
        assert not directory.delete(7, seg=1, offset=11)
        assert not directory.delete(7, seg=2, offset=10)
        assert directory.lookup(7) == [(1, 10, 5)]

    def test_seg_id_out_of_range(self, directory):
        with pytest.raises(StoreError, match="out of range"):
            directory.put(1, seg=0xFFFFFFFF, offset=0, length=1)

    def test_drop_segment(self, directory):
        for i in range(20):
            directory.put(i, seg=i % 2, offset=i, length=1)
        assert directory.drop_segment(0) == 10
        assert len(directory) == 10
        for i in range(20):
            expected = [] if i % 2 == 0 else [(1, i, 1)]
            assert directory.lookup(i) == expected


class TestGrowth:
    def test_growth_preserves_every_entry(self, tmp_path):
        d = KeyDirectory(str(tmp_path / "keys.dir"))
        rng = random.Random(11)
        entries = {}
        for i in range(20_000):
            h = rng.getrandbits(64)
            entries[h] = (i % 50, i, 1 + i % 100)
            d.put(h, *entries[h])
        assert d.capacity > 4096  # grew at least twice
        assert len(d) == len(entries)
        for h, entry in entries.items():
            assert entry in d.lookup(h)
        assert sorted(h for h, *_ in d.items()) == sorted(entries)
        # Snapshot entries that would pass the load limit grow the table.
        snap, capacity = str(tmp_path / "keys-0001.dir"), d.capacity
        d.publish_snapshot(snap, [(i, 99, i, 1) for i in range(3_000)])
        assert d.capacity == 2 * capacity and len(d) == len(entries)
        d.close()
        restored = KeyDirectory.open_snapshot(snap, str(tmp_path / "work.dir"))
        assert len(restored) == len(entries) + 3_000
        assert all((99, i, 1) in restored.lookup(i) for i in range(3_000))
        restored.close()

    def test_churn_purges_tombstones_without_growing(self, tmp_path):
        # Steady-state eviction churn: every fault-in deletes an entry and
        # every spill adds one.  Live count never grows, so the table must
        # reclaim tombstones instead of doubling forever.
        d = KeyDirectory(str(tmp_path / "keys.dir"))
        rng = random.Random(5)
        live: list[int] = []
        for i in range(500):
            h = rng.getrandbits(64)
            d.put(h, seg=0, offset=i, length=1)
            live.append(h)
        offsets = {h: i for i, h in enumerate(live)}
        for i in range(20_000):
            victim = live.pop(rng.randrange(len(live)))
            assert d.delete(victim, seg=0, offset=offsets[victim])
            h = rng.getrandbits(64)
            d.put(h, seg=0, offset=500 + i, length=1)
            offsets[h] = 500 + i
            live.append(h)
        assert len(d) == 500
        assert d.capacity <= 8192
        for h in live:
            assert (0, offsets[h], 1) in d.lookup(h)
        d.close()


class TestSnapshotRecovery:
    def test_snapshot_round_trip(self, tmp_path):
        d = KeyDirectory(str(tmp_path / "keys.dir"))
        for i in range(100):
            d.put(i * 31, seg=1, offset=i, length=2)
        assert d.delete(31, seg=1, offset=1)  # a tombstone to reuse
        snap = str(tmp_path / "keys-0001.dir")
        # Extra entries join the snapshot where put would place them, not
        # the table; mutations after the snapshot must not leak into it.
        d.publish_snapshot(snap, [(31, 4, 9, 3), (62, 4, 10, 3)])
        assert (len(d), d.tombstones, d.lookup(62)) == (99, 1, [(1, 2, 2)])
        d.put(12345, seg=2, offset=7, length=9)
        d.close()

        restored = KeyDirectory.open_snapshot(snap, str(tmp_path / "work.dir"))
        assert (len(restored), restored.tombstones) == (101, 0)
        assert restored.lookup(12345) == []
        assert restored.lookup(31) == [(4, 9, 3)]
        assert restored.lookup(62) == [(1, 2, 2), (4, 10, 3)]
        for i in range(3, 100):
            assert restored.lookup(i * 31) == [(1, i, 2)]
        # The working copy is independent of the snapshot file.
        restored.put(999, seg=3, offset=1, length=1)
        restored.close()
        again = KeyDirectory.open_snapshot(snap, str(tmp_path / "work2.dir"))
        assert again.lookup(999) == []
        again.close()

    def test_reopen_existing_file(self, tmp_path):
        path = str(tmp_path / "keys.dir")
        d = KeyDirectory(path)
        d.put(42, seg=0, offset=5, length=5)
        d.close()
        d2 = KeyDirectory(path)
        assert d2.lookup(42) == [(0, 5, 5)]
        assert len(d2) == 1
        d2.close()

    # Every damaged byte and version of a snapshot, and a sealed table of
    # the wrong shape: tests/test_hostile.py.

    def test_a_missing_snapshot_is_a_store_error(self, tmp_path):
        snap = str(tmp_path / "keys-0001.dir")
        with pytest.raises(StoreError, match="No such file") as excinfo:
            KeyDirectory.open_snapshot(snap, str(tmp_path / "work.dir"))
        assert excinfo.value.segment == snap

    def test_size_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "keys.dir")
        KeyDirectory(path).close()
        with open(path, "ab") as handle:
            handle.write(b"\x00" * 7)
        with pytest.raises(StoreError, match="does not match"):
            KeyDirectory(path)

    def test_closed_directory_raises(self, tmp_path):
        d = KeyDirectory(str(tmp_path / "keys.dir"))
        d.close()
        with pytest.raises(StoreError, match="closed"):
            d.lookup(1)

    def test_stats(self, tmp_path):
        d = KeyDirectory(str(tmp_path / "keys.dir"))
        d.put(1, seg=0, offset=0, length=1)
        stats = d.stats()
        assert stats["entries"] == 1
        assert stats["capacity"] == 4096
        assert stats["bytes"] == os.path.getsize(d.path)
        d.close()
