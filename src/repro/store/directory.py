"""The on-disk key directory: where a spilled group's record lives.

At one million groups the store could afford a Python dict mapping every
canonical key string to its ``(segment, offset, length)`` — roughly 250
bytes of RAM per cold group.  At ten million that dict *is* the memory
bottleneck, so the directory moves to disk: an mmap-backed open-addressing
hash table of fixed 24-byte slots keyed by the 64-bit BLAKE2b key hash
(:func:`repro.store.segment.key_hash`).  RAM residency is bounded by the
page cache, not the group count, and the table survives as a file the
manifest checkpoint can reference instead of embedding millions of JSON
entries.

Hashes are not keys: two groups may share a 64-bit hash.  The directory
therefore never pretends uniqueness — :meth:`KeyDirectory.put` always
inserts (the store's one-live-copy invariant guarantees the same group is
never inserted twice), and :meth:`KeyDirectory.lookup` returns *every*
entry under a hash, in probe order.  The caller reads each candidate
record — records carry their full key — and verifies before trusting it,
so collisions cost an extra read, never a wrong group.

Layout::

    header   <4s magic "RDIR"> <u8 version> <3x pad>
             <u64 capacity> <u64 live count> <u64 tombstones>
    slots    capacity x <u64 key hash> <u64 offset> <u32 seg+1> <u32 length>

A slot's segment field is stored as ``seg_id + 1`` so the zero-filled
file that :func:`mmap` hands back reads as all-empty; ``0xFFFFFFFF``
marks a tombstone left by :meth:`KeyDirectory.delete`.  The table grows
by rebuilding into a fresh file at double capacity once live+tombstone
load crosses 70% (a pure tombstone purge rebuilds at the same size), so
probes stay short under churn.

Durability: the working file is a cache — after a crash it may be
arbitrarily stale or torn, and recovery never reads it.  Checkpoints call
:meth:`KeyDirectory.snapshot_to` to publish a consistent, fsynced copy
for the manifest; :meth:`KeyDirectory.open_snapshot` re-opens one.
"""

from __future__ import annotations

import mmap
import os
import struct
from typing import Iterator

from repro.core.errors import StoreError

from repro.store.segment import fsync_dir

__all__ = ["KeyDirectory", "DIRECTORY_VERSION"]

DIRECTORY_VERSION = 1

_MAGIC = b"RDIR"
_HEADER = struct.Struct("<4sB3xQQQ")
_SLOT = struct.Struct("<QQII")  # key hash, offset, seg_id + 1, framed length

_EMPTY = 0
_TOMBSTONE = 0xFFFFFFFF
_MAX_SEG = _TOMBSTONE - 2  # highest encodable seg_id
_LOAD_LIMIT = 0.70

_DEFAULT_CAPACITY = 1 << 12


def _round_capacity(wanted: int) -> int:
    capacity = _DEFAULT_CAPACITY
    while capacity < wanted:
        capacity <<= 1
    return capacity


class KeyDirectory:
    """Open-addressing ``key hash -> (seg, offset, length)`` table on disk."""

    def __init__(self, path: str, capacity: int = _DEFAULT_CAPACITY):
        self.path = path
        self._mm: mmap.mmap | None = None
        self._handle = None
        if os.path.exists(path):
            self._open_existing()
        else:
            self._create(_round_capacity(capacity))

    # -- file lifecycle -------------------------------------------------------------

    def _create(self, capacity: int) -> None:
        size = _HEADER.size + capacity * _SLOT.size
        handle = open(self.path, "w+b")
        handle.truncate(size)
        mm = mmap.mmap(handle.fileno(), size)
        _HEADER.pack_into(mm, 0, _MAGIC, DIRECTORY_VERSION, capacity, 0, 0)
        self._handle, self._mm = handle, mm
        self.capacity = capacity
        self.count = 0
        self.tombstones = 0

    def _open_existing(self) -> None:
        size = os.path.getsize(self.path)
        if size < _HEADER.size:
            raise StoreError(
                f"key directory {self.path}: too short ({size} bytes)"
            )
        handle = open(self.path, "r+b")
        mm = mmap.mmap(handle.fileno(), size)
        magic, version, capacity, count, tombstones = _HEADER.unpack_from(mm, 0)
        if magic != _MAGIC:
            mm.close()
            handle.close()
            raise StoreError(
                f"key directory {self.path}: bad magic {magic!r}"
            )
        if version != DIRECTORY_VERSION:
            mm.close()
            handle.close()
            raise StoreError(
                f"key directory {self.path}: unsupported version {version}"
            )
        if size != _HEADER.size + capacity * _SLOT.size:
            mm.close()
            handle.close()
            raise StoreError(
                f"key directory {self.path}: size {size} does not match "
                f"capacity {capacity}"
            )
        self._handle, self._mm = handle, mm
        self.capacity = capacity
        self.count = count
        self.tombstones = tombstones

    @classmethod
    def open_snapshot(cls, snapshot_path: str, working_path: str) -> "KeyDirectory":
        """Restore a checkpoint snapshot as the new working directory.

        Copies the snapshot to ``working_path`` first — the snapshot file
        stays untouched (it is what the manifest references; recovery may
        run again), while the working copy absorbs all future mutation.
        """
        with open(snapshot_path, "rb") as src:
            data = src.read()
        with open(working_path, "wb") as dst:
            dst.write(data)
        return cls(working_path)

    def flush(self) -> None:
        """Write header counters and push dirty pages to the OS."""
        mm = self._require()
        _HEADER.pack_into(
            mm, 0, _MAGIC, DIRECTORY_VERSION,
            self.capacity, self.count, self.tombstones,
        )
        mm.flush()

    def write_copy(self, path: str) -> None:
        """Write a raw byte copy of the table (header counters included).

        No rename, no fsync — the checkpoint path stages a copy, splices
        in the hot tier's entries, and only then publishes durably.
        """
        mm = self._require()
        self.flush()
        with open(path, "wb") as out:
            out.write(mm)

    def snapshot_to(self, path: str) -> None:
        """Publish a consistent, durable copy of the table at ``path``.

        Stages to ``path + ".tmp"``, fsyncs, renames, and fsyncs the
        parent directory — the same publish discipline as segments.
        """
        mm = self._require()
        self.flush()
        staging = path + ".tmp"
        with open(staging, "wb") as out:
            out.write(mm)
            out.flush()
            os.fsync(out.fileno())
        os.replace(staging, path)
        fsync_dir(os.path.dirname(os.path.abspath(path)))

    def close(self) -> None:
        """Flush counters and release the mmap and file handle."""
        if self._mm is not None:
            try:
                self.flush()
            except (OSError, ValueError):  # pragma: no cover - best effort
                pass
            self._mm.close()
            self._mm = None
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _require(self) -> mmap.mmap:
        if self._mm is None:
            raise StoreError(f"key directory {self.path}: closed")
        return self._mm

    # -- table operations -----------------------------------------------------------

    def put(self, key_hash: int, seg: int, offset: int, length: int) -> None:
        """Insert one entry (always an insert — see module docstring)."""
        if not 0 <= seg <= _MAX_SEG:
            raise StoreError(
                f"key directory {self.path}: segment id {seg} out of range"
            )
        if (self.count + self.tombstones + 1) > self.capacity * _LOAD_LIMIT:
            self._rebuild()
        mm = self._require()
        mask = self.capacity - 1
        idx = key_hash & mask
        while True:
            base = _HEADER.size + idx * _SLOT.size
            stored_seg = _SLOT.unpack_from(mm, base)[2]
            if stored_seg == _EMPTY or stored_seg == _TOMBSTONE:
                _SLOT.pack_into(mm, base, key_hash, offset, seg + 1, length)
                if stored_seg == _TOMBSTONE:
                    self.tombstones -= 1
                self.count += 1
                return
            idx = (idx + 1) & mask

    def lookup(self, key_hash: int) -> list[tuple[int, int, int]]:
        """All ``(seg, offset, length)`` entries under a hash, probe order."""
        mm = self._require()
        mask = self.capacity - 1
        idx = key_hash & mask
        found: list[tuple[int, int, int]] = []
        for _ in range(self.capacity):
            base = _HEADER.size + idx * _SLOT.size
            h, offset, stored_seg, length = _SLOT.unpack_from(mm, base)
            if stored_seg == _EMPTY:
                return found
            if stored_seg != _TOMBSTONE and h == key_hash:
                found.append((stored_seg - 1, offset, length))
            idx = (idx + 1) & mask
        return found  # pragma: no cover - table is never 100% full

    def delete(self, key_hash: int, seg: int, offset: int) -> bool:
        """Remove the exact entry ``(hash, seg, offset)``; True if found."""
        mm = self._require()
        mask = self.capacity - 1
        idx = key_hash & mask
        for _ in range(self.capacity):
            base = _HEADER.size + idx * _SLOT.size
            h, stored_off, stored_seg, _length = _SLOT.unpack_from(mm, base)
            if stored_seg == _EMPTY:
                return False
            if (stored_seg not in (_EMPTY, _TOMBSTONE)
                    and h == key_hash
                    and stored_seg - 1 == seg
                    and stored_off == offset):
                _SLOT.pack_into(mm, base, 0, 0, _TOMBSTONE, 0)
                self.count -= 1
                self.tombstones += 1
                return True
            idx = (idx + 1) & mask
        return False  # pragma: no cover - table is never 100% full

    def drop_segment(self, seg: int) -> int:
        """Tombstone every entry pointing into ``seg`` (quarantine path)."""
        mm = self._require()
        dropped = 0
        for idx in range(self.capacity):
            base = _HEADER.size + idx * _SLOT.size
            stored_seg = _SLOT.unpack_from(mm, base)[2]
            if stored_seg not in (_EMPTY, _TOMBSTONE) and stored_seg - 1 == seg:
                _SLOT.pack_into(mm, base, 0, 0, _TOMBSTONE, 0)
                self.count -= 1
                self.tombstones += 1
                dropped += 1
        return dropped

    def items(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield every live ``(hash, seg, offset, length)`` (scan order).

        Snapshot the result before mutating the table mid-iteration — a
        rebuild triggered by :meth:`put` remaps the file under the scan.
        """
        mm = self._require()
        for idx in range(self.capacity):
            base = _HEADER.size + idx * _SLOT.size
            h, offset, stored_seg, length = _SLOT.unpack_from(mm, base)
            if stored_seg not in (_EMPTY, _TOMBSTONE):
                yield h, stored_seg - 1, offset, length

    def __len__(self) -> int:
        return self.count

    @property
    def size_bytes(self) -> int:
        """On-disk footprint of the table file."""
        return _HEADER.size + self.capacity * _SLOT.size

    def stats(self) -> dict:
        """Occupancy counters, JSON-compatible."""
        return {
            "capacity": self.capacity,
            "entries": self.count,
            "tombstones": self.tombstones,
            "bytes": self.size_bytes,
        }

    # -- growth ---------------------------------------------------------------------

    def _rebuild(self) -> None:
        """Re-hash into a fresh file: double when genuinely full, purge
        tombstones in place-sized rebuilds otherwise."""
        if self.count + 1 > self.capacity * (_LOAD_LIMIT / 2):
            new_capacity = self.capacity * 2
        else:
            new_capacity = self.capacity  # churn left tombstones; purge them
        entries = list(self.items())
        old_mm, old_handle = self._mm, self._handle
        grow_path = self.path + ".grow"
        size = _HEADER.size + new_capacity * _SLOT.size
        handle = open(grow_path, "w+b")
        handle.truncate(size)
        mm = mmap.mmap(handle.fileno(), size)
        mask = new_capacity - 1
        for h, seg, offset, length in entries:
            idx = h & mask
            while True:
                base = _HEADER.size + idx * _SLOT.size
                if _SLOT.unpack_from(mm, base)[2] == _EMPTY:
                    _SLOT.pack_into(mm, base, h, offset, seg + 1, length)
                    break
                idx = (idx + 1) & mask
        _HEADER.pack_into(
            mm, 0, _MAGIC, DIRECTORY_VERSION, new_capacity, len(entries), 0
        )
        self._mm, self._handle = mm, handle
        self.capacity = new_capacity
        self.count = len(entries)
        self.tombstones = 0
        old_mm.close()
        old_handle.close()
        os.replace(grow_path, self.path)
