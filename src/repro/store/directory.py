"""The on-disk key directory: where a spilled group's record lives.

A dict from every cold key to its location costs ~250 bytes of RAM a
group, the memory bottleneck at ten million groups, so the directory is
on disk: an mmap-backed open-addressing hash table of fixed 24-byte slots
keyed by the 64-bit :func:`repro.core.groups.group_hash`.  RAM residency
is bounded by the page cache, not the group count, and the table
survives as a file the manifest checkpoint references.

Hashes are not keys: two groups may share a 64-bit hash.  The directory
therefore never pretends uniqueness — :meth:`KeyDirectory.put` always
inserts (the store's one-live-copy invariant guarantees the same group is
never inserted twice), and :meth:`KeyDirectory.lookup` returns *every*
entry under a hash, in probe order.  The caller reads each candidate
record — records carry their full key — and verifies before trusting it,
so collisions cost an extra read, never a wrong group.

Layout of the working table, a raw mmap-able file::

    header   <u64 capacity> <u64 live count> <u64 tombstones>
    slots    capacity x <u64 key hash> <u64 offset> <u32 seg+1> <u32 length>

A slot's segment field is stored as ``seg_id + 1`` so the zero-filled
file that :func:`mmap` hands back reads as all-empty; ``0xFFFFFFFF``
marks a tombstone left by :meth:`KeyDirectory.delete`.  The table grows
by rebuilding into a fresh file at double capacity once live+tombstone
load crosses 70% (a pure tombstone purge rebuilds at the same size), so
probes stay short under churn.

Durability: the working file is a cache — after a crash it may be
arbitrarily stale or torn, recovery never reads it, and nothing msyncs
it.  A checkpoint publishes a consistent copy of the table sealed
(:meth:`KeyDirectory.publish_snapshot`) for the manifest;
:func:`read_snapshot` checks one whole — magic, version, length, CRC32
and table shape — before a slot of it is trusted.
"""

from __future__ import annotations

import mmap
import os
import struct
from typing import Iterator

from repro.core.errors import StoreError
from repro.core.serde import DIRECTORY_SNAPSHOT, envelope, publish, unseal

__all__ = ["KeyDirectory", "read_snapshot", "live_slots"]

_HEADER = struct.Struct("<QQQ")  # capacity, live count, tombstones
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
        _HEADER.pack_into(mm, 0, capacity, 0, 0)
        self._handle, self._mm = handle, mm
        self.capacity = capacity
        self.count = 0
        self.tombstones = 0

    def _open_existing(self) -> None:
        with open(self.path, "rb") as handle:
            header = handle.read(_HEADER.size)
        self.capacity, self.count, self.tombstones = _table_shape(
            header, os.path.getsize(self.path), self.path
        )
        handle = open(self.path, "r+b")
        self._handle = handle
        self._mm = mmap.mmap(handle.fileno(), 0)

    @classmethod
    def open_snapshot(cls, snapshot_path: str, working_path: str) -> "KeyDirectory":
        """Restore a checkpoint snapshot, checked whole first
        (:func:`read_snapshot`), as a new working directory at
        ``working_path``; the snapshot file itself stays untouched (the
        manifest references it; recovery may run again)."""
        table = read_snapshot(snapshot_path)
        with open(working_path, "wb") as dst:
            dst.write(table)
        return cls(working_path)

    def publish_snapshot(self, path: str, extra=()) -> None:
        """Publish at ``path``, sealed, this table plus the ``(hash, seg,
        offset, length)`` entries ``extra``, each in the slot :meth:`put`
        would give it, the rest streamed from the mapping.  The table
        itself only grows, if ``extra`` would pass its load limit."""
        extra = list(extra)
        while (self.count + self.tombstones + len(extra)
               > self.capacity * _LOAD_LIMIT):
            self._rebuild(len(extra))
        mm = self._require()
        placed: dict[int, bytes] = {}
        tombstones = self.tombstones
        for key_hash, seg, offset, length in extra:
            idx = self._free_slot(key_hash, placed)
            base = _HEADER.size + idx * _SLOT.size
            tombstones -= _SLOT.unpack_from(mm, base)[2] == _TOMBSTONE
            placed[idx] = _SLOT.pack(key_hash, offset, seg + 1, length)
        view = memoryview(mm)
        chunks = [_HEADER.pack(self.capacity, self.count + len(placed), tombstones)]
        at = _HEADER.size
        for idx in sorted(placed):
            base = _HEADER.size + idx * _SLOT.size
            chunks += (view[at:base], placed[idx])
            at = base + _SLOT.size
        chunks.append(view[at:])
        try:
            publish(path, envelope(DIRECTORY_SNAPSHOT, *chunks), *chunks)
        finally:  # a live view would keep the mapping from closing
            for chunk in chunks[1::2]:
                chunk.release()
            view.release()

    def close(self) -> None:
        """Write the header counters and release the mmap and file
        handle (the mapping is shared: readers see every slot already)."""
        if self._mm is not None:
            _HEADER.pack_into(self._mm, 0, self.capacity, self.count, self.tombstones)
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
            self._rebuild(1)
        mm = self._require()
        base = _HEADER.size + self._free_slot(key_hash) * _SLOT.size
        if _SLOT.unpack_from(mm, base)[2] == _TOMBSTONE:
            self.tombstones -= 1
        _SLOT.pack_into(mm, base, key_hash, offset, seg + 1, length)
        self.count += 1

    def _free_slot(self, key_hash: int, taken=()) -> int:
        """The first empty or tombstoned slot on ``key_hash``'s path not in ``taken``."""
        mm = self._require()
        mask = self.capacity - 1
        idx = key_hash & mask
        while idx in taken or _SLOT.unpack_from(
            mm, _HEADER.size + idx * _SLOT.size
        )[2] not in (_EMPTY, _TOMBSTONE):
            idx = (idx + 1) & mask
        return idx

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
        yield from live_slots(self._require())

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

    def _rebuild(self, adding: int) -> None:
        """Re-hash into a fresh file before ``adding`` entries arrive:
        double when genuinely full, purge tombstones in place-sized
        rebuilds otherwise."""
        if self.count + adding > self.capacity * (_LOAD_LIMIT / 2):
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
        _HEADER.pack_into(mm, 0, new_capacity, len(entries), 0)
        self._mm, self._handle = mm, handle
        self.capacity = new_capacity
        self.count = len(entries)
        self.tombstones = 0
        old_mm.close()
        old_handle.close()
        os.replace(grow_path, self.path)


def read_snapshot(snapshot_path: str) -> memoryview:
    """The table a checkpoint snapshot holds, checked whole — envelope
    and table shape — or a :class:`StoreError` naming the snapshot."""
    try:
        with open(snapshot_path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise StoreError(f"key directory snapshot {snapshot_path}: {exc}",
                         segment=snapshot_path) from exc
    table = unseal(DIRECTORY_SNAPSHOT, data, snapshot_path)
    _table_shape(table, len(table), snapshot_path)
    return table


def live_slots(table) -> Iterator[tuple[int, int, int, int]]:
    """Every live ``(hash, seg, offset, length)`` of ``table`` — a
    working file's mapping or a snapshot's body — in scan order."""
    for base in range(_HEADER.size, len(table), _SLOT.size):
        h, offset, stored_seg, length = _SLOT.unpack_from(table, base)
        if stored_seg not in (_EMPTY, _TOMBSTONE):
            yield h, stored_seg - 1, offset, length


def _table_shape(data, size: int, path: str) -> tuple[int, int, int]:
    """``(capacity, live count, tombstones)`` of a table of ``size`` bytes
    whose header starts ``data``, or a :class:`StoreError` naming ``path``
    when header and size disagree."""
    capacity, count, tombstones = (
        _HEADER.unpack_from(data) if size >= _HEADER.size else (0, 0, 0)
    )
    if (capacity < 1 or capacity & (capacity - 1) or count + tombstones > capacity
            or size != _HEADER.size + capacity * _SLOT.size):
        raise StoreError(
            f"key directory {path}: size {size} does not match capacity "
            f"{capacity} ({count} live, {tombstones} tombstones)", segment=path,
        )
    return capacity, count, tombstones
