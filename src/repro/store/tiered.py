"""The two-tier group-state manager: hot RAM map + cold on-disk segments.

:class:`TieredStore` is a collaborator one
:class:`~repro.dsms.engine.QueryEngine` calls, and bounds how many groups
live in RAM.  The **hot tier** is the engine's own group table, which the
engine hands over when it attaches; when it exceeds the configured group
budget, the store evicts the groups with the smallest *decayed touch
weight* — forward decay (Definition 3) over the store's arrival index, so
"coldest" is the paper's own notion of staleness: the group whose recent
activity, ``g``-weighted toward the present, is lowest.  Evicted state is
serialized exactly and appended to the **cold tier**, an append-only
:mod:`~repro.store.segment` file, one *page* per eviction batch — the
column packing of the engine's partial-state blob, so a cold group and a
shipped partial are the same bytes.

Exactness comes from the *write-back / fault-in* discipline, not from
merging: a group's state is always a single live object — either hot, or a
serialized blob on disk.  The paths that touch a cold group are the
engine's explicit calls — :meth:`TieredStore.fault_in` on a table miss
(a row, a batch, a partial-state merge), :meth:`TieredStore.take_cold` at
flush — and each loads the exact serialized state back first, so every
accumulator sees the identical update sequence as the all-RAM engine and
results are byte-identical — sketches, samplers and their RNG streams
included (the Section VI-B fixed-numerator property is what makes the
serialized partial states location-independent in the first place).

Past a few million groups no per-group Python object stays in RAM: cold
locations live in an mmap-backed :class:`~repro.store.directory.KeyDirectory`
keyed by the 64-bit :func:`~repro.core.groups.group_hash`, one name for
every spelling of a group.  A slot points at the group's *page*; the reader
matches the full key, which it must verify anyway because hashes may
collide (no two rows of one page share a hash, so a slot and a matching
key name exactly one row).  A batch's cold keys are looked up once and
each page they live in is read once into a per-batch stash
(:meth:`TieredStore.stage`), and enumeration (flush,
``partial_state_bytes``, ``group_count``, compaction) streams every live
segment's pages in file order, testing each row's hash against the
directory — O(cold) sequential reads, so steady-state ingest pays O(1) RAM.

The rest is mechanics: segments rotate at a byte threshold, compaction
rewrites segments dominated by dead records, inline from
:meth:`TieredStore.maintain` on the engine's own thread (every store call
runs there, so the store holds no lock), corruption quarantines the
offending segment and keeps serving from the rest, and :meth:`checkpoint`
publishes a manifest plus a directory snapshot that reference cold records
*in place* — only hot state is re-serialized.  The store also exposes
:meth:`pressure` — an EWMA of eviction/fault-in churn and cold-read
latency — which the serve layer uses to shrink ingest credit windows
instead of letting an overloaded store thrash segments.
"""

from __future__ import annotations

import collections
import heapq
import os
import time

from repro.core.errors import ParameterError, StoreError
from repro.core.groups import RAGGED_SLOT, SUMMARY_SLOT, group_hash
from repro.core.protocol import StreamSummary, summary_type_of
from repro.core.serde import SEGMENT, STORE_MANIFEST, publish, seal, unseal
from repro.core.tree import pack_tree, unpack_tree
from repro.store.directory import KeyDirectory, live_slots, read_snapshot
from repro.store.segment import Page, SegmentReader, SegmentWriter, _record, read_page

__all__ = ["TieredStore", "MANIFEST_NAME", "MANIFEST_VERSION", "describe_store"]

#: The name a store has always used for its manifest.  Recovery wipes
#: the segments of a directory that has none, so a new name would erase an
#: older store where keeping it refuses that store by version.
MANIFEST_NAME = "MANIFEST.json"
#: The manifest format: a few hundred bytes of a sealed
#: :mod:`repro.core.tree` dict referencing a sealed :class:`KeyDirectory`
#: snapshot file.  Any other version is refused (3 carried the engine's
#: open time bucket, 4 was bare JSON, 5 sealed JSON).
MANIFEST_VERSION = STORE_MANIFEST.version

#: Every field of the manifest, with the types it may hold: recovery
#: checks them all before it reads a segment or unlinks a file.
_MANIFEST_FIELDS = {
    "query": str, "schema": list, "tuples_in": int, "tuples_selected": int,
    "low_evictions": int, "segments": list, "directory_file": str,
    "directory_entries": int, "arrivals": int, "udaf_counters": list,
}

#: Working key-directory file (a cache; recovery never reads it).
_DIRECTORY_NAME = "keys.dir"

#: Open segment file handles kept for the fault-in hot path.
_HANDLE_CACHE = 64

#: Row cap of a page.  An eviction batch is one page up to this many rows;
#: checkpoints and compaction write full pages.  Larger pages amortize the
#: ~60 bytes of page framing further (33.8 B/group at 512 on the stack
#: benchmark's count/sum groups against 34.6 at 64) but cost a lone
#: fault-in a longer key column to decode.
_PAGE_ROWS = 512

#: A page also closes once the summary buffers in it reach this many bytes:
#: sketch-valued groups run to kilobytes each, and a fault-in reads and
#: CRC-checks the whole page it lands in.
_PAGE_SUMMARY_BYTES = 64 << 10

#: Rotate the open spill segment once it holds this many bytes.
_SEGMENT_BYTES = 4 << 20

#: Compaction considers a rewrite once this many sealed segments exist.
_COMPACT_MIN_SEGMENTS = 4

#: A sealed segment is rewritten once more than this fraction of its rows
#: are dead (faulted back in, re-spilled elsewhere or flushed).
_COMPACT_GARBAGE_RATIO = 0.5

#: Normalization points of :meth:`TieredStore.pressure`: churn (evictions
#: plus fault-ins per selected row) or smoothed cold-read latency at or
#: above these reads as pressure 1.0.
_PRESSURE_CHURN_LIMIT = 1.0
_PRESSURE_LATENCY_LIMIT_US = 5000.0


class _PageBuilder:
    """Packs rows into pages for one :class:`SegmentWriter`.

    A page closes at :data:`_PAGE_ROWS` rows or
    :data:`_PAGE_SUMMARY_BYTES` of summary buffers, and early when the
    next row's key hash is already in it: a directory slot names its page
    and the hash, so within a page a hash must name one row.
    """

    def __init__(self, writer: SegmentWriter):
        self.writer = writer
        #: ``(key hash, page offset, framed length)`` per row, in the
        #: order added (complete after :meth:`flush`).
        self.placed: list[tuple[int, int, int]] = []
        self._hashes: dict[int, None] = {}
        self._keys: list[tuple] = []
        self._rows: list[list] = []
        self._summary_bytes = 0

    def add(self, h: int, key: tuple, states: list) -> None:
        if (
            len(self._keys) >= _PAGE_ROWS
            or self._summary_bytes >= _PAGE_SUMMARY_BYTES
            or h in self._hashes
        ):
            self.flush()
        row = []
        for state in states:
            if isinstance(state, StreamSummary):
                state = state.to_bytes()
            if type(state) is bytes:
                self._summary_bytes += len(state)
            row.append(state)
        self._hashes[h] = None
        self._keys.append(key)
        self._rows.append(row)

    def flush(self) -> None:
        if self._keys:
            offset, length = self.writer.write_page(self._keys, self._rows)
            self.placed.extend((h, offset, length) for h in self._hashes)
            self._hashes, self._keys, self._rows = {}, [], []
            self._summary_bytes = 0


class TieredStore:
    """Tiered storage for one engine's group state.

    Parameters
    ----------
    directory:
        Root directory for this store (created if missing).  Segments live
        under ``<directory>/segments/``; the working key directory is
        ``<directory>/keys.dir``; the checkpoint manifest is
        ``<directory>/MANIFEST.json`` next to its ``keys-NNNNNN.dir``
        directory snapshot.
    hot_groups:
        Hot-tier budget: the maximum number of groups kept in the engine's
        table (a store-backed engine is one-level).

    Segment rotation, compaction and the :meth:`pressure` scale are the
    module constants ``_SEGMENT_BYTES``, ``_COMPACT_MIN_SEGMENTS``,
    ``_COMPACT_GARBAGE_RATIO``, ``_PRESSURE_CHURN_LIMIT`` and
    ``_PRESSURE_LATENCY_LIMIT_US``.  Every call runs on the thread that
    drives the engine, compaction included, so the store holds no lock.
    """

    def __init__(self, directory: str, hot_groups: int = 4096):
        if hot_groups < 1:
            raise ParameterError(f"hot_groups must be >= 1, got {hot_groups!r}")
        self.directory = directory
        self.hot_groups = hot_groups
        self._segments_dir = os.path.join(directory, "segments")
        self._dir_path = os.path.join(directory, _DIRECTORY_NAME)
        self._table: dict | None = None
        self._dir: KeyDirectory | None = None
        # segment id <-> name; ids are the number embedded in the name,
        # so they survive recovery and fit the directory's u32 field.
        self._seg_by_id: dict[int, str] = {}
        self._seg_total: dict[int, int] = {}
        self._seg_live: dict[int, int] = {}
        self._writer: SegmentWriter | None = None
        self._writer_id: int | None = None
        self._writer_dirty = False
        self._next_seg = 0
        #: Paths of compacted segments the manifest still references.
        self._retired: list[str] = []
        #: Segment names the on-disk manifest references.  Compacted
        #: victims in this set must survive until the next checkpoint
        #: (crash recovery may need them); victims outside it are
        #: unreferenced and deleted as soon as their records are copied.
        self._manifest_segments: set[str] = set()
        self._ckpt_names: list[str] = []
        self._dir_snapshots: list[str] = []
        self._handles: dict[int, object] = {}
        # Read-ahead of one batch: what stage()'s _lookup() found.
        self._stash: dict[tuple, tuple | None] = {}
        # Eviction priorities: key -> [decayed touch weight over the
        # arrival index, the key the engine's table files the group
        # under] (lazy-deletion min-heap; priorities only grow).
        self._prio: dict[tuple, list] = {}
        self._heap: list[tuple[float, int, list]] = []
        self._seq = 0
        self._arrivals = 0
        # Lifetime counters, as stats() reports them.
        self._evictions = 0
        self._fault_ins = 0
        self._spilled_bytes = 0
        self._spill_pages = 0
        self._pages_read = 0
        self._rows_decoded = 0
        self._quarantined = 0
        self._compactions = 0
        # Pressure EWMAs: churn per selected row, cold-read latency.
        self._churn_ema = 0.0
        self._lat_ema = 0.0
        self._p_events_mark = 0
        self._p_arrivals_mark = 0

    # -- attachment and recovery --------------------------------------------------

    def attach(self, table: dict, fields: dict) -> dict | None:
        """Take one engine's group table as the hot tier and recover any
        checkpoint.

        The engine calls this when it is built, with its empty table and
        its :meth:`checkpoint` fields, whose query and schema a manifest
        must match.  With a manifest present, every checkpointed group is
        cold and the manifest is returned for the engine to restore its
        counters from; without one, leftover segment and directory files
        are wiped — no manifest means no durable state — and the result
        is None.
        """
        if self._table is not None:
            raise ParameterError("store is already attached to an engine")
        os.makedirs(self._segments_dir, exist_ok=True)
        self._table = table
        manifest_path = os.path.join(self.directory, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            return self._recover(fields, manifest_path)
        self._wipe_segments()
        self._dir = KeyDirectory(self._dir_path)
        return None

    def _wipe_segments(self, keep=frozenset()) -> None:
        """Unlink every segment, staging, quarantine and directory file
        whose name is not in ``keep``."""
        for entry in os.listdir(self._segments_dir):
            if entry not in keep and entry.endswith((".seg", ".tmp", ".quarantined")):
                _unlink_quiet(os.path.join(self._segments_dir, entry))
        for entry in os.listdir(self.directory):
            if entry not in keep and entry.startswith("keys") and ".dir" in entry:
                _unlink_quiet(os.path.join(self.directory, entry))

    def _recover(self, fields: dict, manifest_path: str) -> dict:
        manifest = _read_manifest(manifest_path)
        for field in ("query", "schema"):
            if manifest[field] != fields[field]:
                raise StoreError(
                    f"store manifest is for a different {field}: "
                    f"{manifest[field]!r} vs {fields[field]!r}",
                    segment=manifest_path,
                )
        referenced = set(manifest["segments"])
        for seg_name in sorted(referenced):
            reader = SegmentReader(self._segment_path(seg_name))
            self._track(_segment_number(seg_name), seg_name, reader.records)
        id_set = set(self._seg_by_id)
        snap_name = manifest["directory_file"]
        snap_path = os.path.join(self.directory, snap_name)
        self._dir = KeyDirectory.open_snapshot(snap_path, self._dir_path)
        declared = manifest["directory_entries"]
        if declared != len(self._dir):
            raise StoreError(
                f"directory snapshot {snap_path} holds "
                f"{len(self._dir)} entries, manifest says {declared}",
                segment=snap_path,
            )
        for _h, seg_id, _offset, _length in self._dir.items():
            if seg_id not in id_set:
                raise StoreError(
                    "directory snapshot references unknown segment id "
                    f"{seg_id}", segment=snap_path,
                )
            self._seg_live[seg_id] += 1
        self._dir_snapshots = [snap_name]
        self._manifest_segments = set(referenced)
        self._ckpt_names = [n for n in referenced if n.startswith("ckpt-")]
        numbers = [_segment_number(n) for n in referenced]
        numbers += [_segment_number(n) for n in self._dir_snapshots]
        self._next_seg = max(numbers, default=-1) + 1
        # Anything on disk the manifest does not reference — stale spill
        # segments, aborted staging files, old quarantines, superseded
        # directory snapshots — is garbage from after the checkpoint;
        # recovery means the manifest's world.
        self._wipe_segments(referenced | {_DIRECTORY_NAME, snap_name})
        self._arrivals = manifest["arrivals"]
        return manifest

    # -- ingest-side hooks --------------------------------------------------------

    def observe_batch(self, keys: list[tuple]) -> None:
        """Account one batch of touched group keys, then enforce budgets.

        ``keys`` carries one entry per selected row (repeats included), in
        stream order.  Each unique key's priority grows by ``count *
        g(arrivals)`` with the quadratic ``g(n) = n**2`` and landmark 0 —
        decayed touch frequency over the store's arrival index, so
        long-idle groups sort first for eviction.  ``g`` passes 1e100 only
        after 10^50 arrivals, so priorities never need a landmark shift.
        The batch is over: whatever :meth:`stage` read ahead and nothing
        consumed is dropped here.
        """
        self._stash = {}
        if keys:
            counts = collections.Counter(keys)
            self._arrivals += len(keys)
            weight = float(self._arrivals) ** 2
            entries = self._prio.setdefault
            heap = self._heap
            push = heapq.heappush
            seq = self._seq
            for key, count in counts.items():
                entry = entries(key, [0.0, key])
                entry[0] += count * weight
                seq += 1
                push(heap, (entry[0], seq, entry))
            self._seq = seq
        self.maintain()

    def _reseed_heap(self) -> None:
        prio = self._prio
        heap = []
        seq = self._seq
        for key in self._table:
            entry = prio.setdefault(key, [0.0, key])
            seq += 1
            heap.append((entry[0], seq, entry))
        self._seq = seq
        heapq.heapify(heap)
        self._heap = heap

    def maintain(self) -> None:
        """Enforce the hot budget: evict, rotate, opportunistically compact."""
        high = self._table
        budget = self.hot_groups
        if len(high) > budget:
            prio = self._prio
            victims = []
            while len(high) > budget:
                if not self._heap:
                    self._reseed_heap()
                    if not self._heap:
                        break
                value, _seq, entry = heapq.heappop(self._heap)
                key = entry[1]
                if entry[0] != value or prio.get(key) is not entry:
                    continue  # stale entry; a newer one is still queued
                states = high.get(key)
                if states is None:
                    continue  # flushed since it was touched
                del high[key]
                # Spilled groups restart their touch history on fault-in;
                # this also bounds the priority map by the hot tier, not
                # the keyspace.
                prio.pop(key, None)
                victims.append((key, states))
            if victims:
                self._spill_batch(victims)
        if len(self._prio) > 4 * budget:
            # Priorities for departed groups (flushed or spilled keys) are dead weight; keep only what can still be evicted.
            self._prio = {
                key: entry for key, entry in self._prio.items() if key in high
            }
        if (
            self._writer is not None
            and self._writer.bytes_written >= _SEGMENT_BYTES
        ):
            self._seal_writer()
        sealed = len(self._seg_total) - (self._writer is not None)  # not open
        if sealed >= _COMPACT_MIN_SEGMENTS:
            self.compact()
        # Churn EWMA: evictions + fault-ins per selected row since the
        # last maintain — sustained > _PRESSURE_CHURN_LIMIT means the hot
        # tier is thrashing (every arrival displaces a group).
        events = self._evictions + self._fault_ins
        darrivals = self._arrivals - self._p_arrivals_mark
        if darrivals > 0:
            churn = (events - self._p_events_mark) / darrivals
            self._churn_ema += 0.2 * (churn - self._churn_ema)
            self._p_arrivals_mark = self._arrivals
            self._p_events_mark = events

    def pressure(self) -> float:
        """Store overload signal in ``[0, 1]`` for ingest backpressure.

        The max of two normalized EWMAs: hot-tier churn (evictions plus
        fault-ins per selected row) against ``_PRESSURE_CHURN_LIMIT``, and
        cold-read latency against ``_PRESSURE_LATENCY_LIMIT_US``.  The
        serve layer shrinks granted credit windows proportionally, so an
        overloaded store sheds load instead of thrashing segments.
        """
        churn = self._churn_ema / _PRESSURE_CHURN_LIMIT
        latency = self._lat_ema / _PRESSURE_LATENCY_LIMIT_US
        return min(1.0, max(0.0, churn, latency))

    # -- spill / fault-in ---------------------------------------------------------

    def _spill_batch(self, victims: list[tuple[tuple, list]]) -> None:
        """Write one eviction batch as a page (more only past the row cap
        or on a hash collision inside the batch) and point every victim's
        directory slot at its page, in one pass."""
        writer = self._writer
        if writer is None:
            writer = self._open_writer()
        before = writer.bytes_written
        pages = len(writer.pages)
        builder = _PageBuilder(writer)
        for key, states in victims:
            builder.add(group_hash(key), key, states)
        builder.flush()
        self._writer_dirty = True
        # A spill is the one event that makes a key cold: whatever the
        # read-ahead knew about "not cold" keys is stale now.
        self._stash = {}
        seg_id = self._writer_id
        put = self._dir.put
        for h, offset, length in builder.placed:
            put(h, seg_id, offset, length)
        self._seg_live[seg_id] += len(victims)
        self._seg_total[seg_id] += len(victims)
        spilled = writer.bytes_written - before
        pages = len(writer.pages) - pages
        self._evictions += len(victims)
        self._spilled_bytes += spilled
        self._spill_pages += pages

    def stage(self, keys) -> None:
        """Read ahead for one batch: :meth:`_lookup` of ``keys``, distinct
        keys the caller is about to ``get`` that are not in the engine's
        table, kept in a stash that :meth:`fault_in` consumes.

        The stash is a cache and never a state change: a staged row is
        not a fault-in until it is consumed (the directory entry is
        deleted then, as always), rows nothing consumed are dropped when
        the batch ends (:meth:`observe_batch` / :meth:`unstage`), and a
        key that was not staged faults in alone.
        """
        self._stash = self._lookup(keys)

    def _lookup(self, keys) -> dict:
        """``key -> (hash, segment id, page offset, stored key, states)``
        for the cold keys among distinct ``keys``, None for the rest: each
        key is looked up once, each candidate page read once and only its
        wanted rows decoded.  The directory is keyed by a 64-bit hash, so
        a page is searched for the full key (a collision is another
        group's page); nothing in the directory changes."""
        found: dict[tuple, tuple | None] = dict.fromkeys(keys)
        wanted: dict[tuple[int, int, int], list[tuple[tuple, int]]] = {}
        lookup = self._dir.lookup
        for key in found:
            h = group_hash(key)
            for location in lookup(h):
                wanted.setdefault(location, []).append((key, h))
        for location in sorted(wanted):
            seg_id, offset, length = location
            page = self._read_page(seg_id, offset, length)
            if page is None:
                continue
            row_of = {key: row for row, key in enumerate(page.keys)}
            hits = [entry for entry in wanted[location] if entry[0] in row_of]
            rows = [row_of[key] for key, _h in hits]
            for (key, h), row, states in zip(hits, rows, self._states(page, rows)):
                found[key] = (h, seg_id, offset, page.keys[row], states)
        return found

    def unstage(self) -> None:
        """Drop what :meth:`stage` read ahead and nothing consumed."""
        self._stash = {}

    def _states(self, page: Page, rows: list[int]) -> list[list]:
        if rows == list(range(len(page))):
            rows = None  # every row: one unpack per column, not one per row
        states = page.states(rows)
        self._rows_decoded += len(states)
        return states

    @staticmethod
    def _revive(states: list) -> list:
        """A page row's states as live aggregate state: summaries
        instantiated, scalar lists as they are (already fresh)."""
        return [
            StreamSummary.from_bytes(state) if type(state) is bytes else state
            for state in states
        ]

    def fault_in(self, key: tuple) -> tuple[tuple, list] | None:
        """Load a cold group's exact state back, removing its cold entry:
        ``(stored key, live states)``, or None when ``key`` is not cold.

        The engine files the group under the stored key (``(0.0,)`` for
        ``(-0.0,)``), so the first spelling seen stays the one reported;
        asked at every table miss, the store learns here the key an
        eviction writes.  A staged row is consumed from the stash, any
        other key looked up alone.  Corruption quarantines the segment and
        raises :class:`StoreError` — by then every cold entry into that
        segment (this key included) is gone.
        """
        stash = self._stash
        found = stash.pop(key) if key in stash else self._lookup([key])[key]
        # Not cold, or since stage() read the row a quarantine dropped it.
        cold = found is not None and self._dir.delete(*found[:3])
        filed = found[3] if cold else key
        self._prio.setdefault(filed, [0.0, filed])[1] = filed
        if not cold:
            return None
        self._seg_live[found[1]] -= 1
        self._fault_ins += 1
        return filed, self._revive(found[4])

    def encoded_states(self, key: tuple) -> list:
        """A cold group's states in the record shape, read without
        faulting it in: ``["plain", scalars]`` / ``["summary", to_bytes
        buffer]`` per aggregate, what :meth:`SegmentWriter.append` takes.
        Raises ``KeyError`` when the key is not cold.
        """
        found = self._lookup([key])[key]
        if found is None:
            raise KeyError(key)
        return _record(key, found[4])["s"]

    def _read_page(self, seg_id: int, offset: int, length: int) -> Page | None:
        """Read one page by directory entry.

        Corruption quarantines the segment and re-raises the located
        :class:`StoreError`.  A file the operating system will not open
        or read (removed or failing outside the program) reads as None.
        """
        if seg_id == self._writer_id and self._writer is not None:
            path = self._flushed_writer_path()
            handle = None
        else:
            path = self._segment_path(self._seg_by_id[seg_id])
            handle = self._handle(seg_id, path)
            if handle is None:
                return None
        start = time.perf_counter_ns()
        try:
            if handle is not None:
                page = read_page(handle, path, offset, length)
            else:
                with open(path, "rb") as staging:
                    page = read_page(staging, path, offset, length)
        except StoreError:
            self._quarantine(seg_id)
            raise
        except OSError:
            self._drop_handle(seg_id)
            return None
        elapsed = (time.perf_counter_ns() - start) / 1e3
        self._lat_ema += 0.05 * (elapsed - self._lat_ema)
        self._pages_read += 1
        return page

    def _flushed_writer_path(self) -> str:
        """The open writer's staging file, its staged pages readable."""
        if self._writer_dirty:
            self._writer.flush()
            self._writer_dirty = False
        return self._writer.staging_path

    def _handle(self, seg_id: int, path: str):
        """A cached read handle for a sealed segment; the cache is LRU,
        least recently used first."""
        handles = self._handles
        handle = handles.pop(seg_id, None)
        if handle is None:
            try:
                handle = open(path, "rb")
            except OSError:
                return None
            while len(handles) >= _HANDLE_CACHE:
                self._drop_handle(next(iter(handles)))
        handles[seg_id] = handle
        return handle

    def _drop_handle(self, seg_id: int) -> None:
        handle = self._handles.pop(seg_id, None)
        if handle is not None:
            try:
                handle.close()
            except OSError:  # pragma: no cover - close is best effort
                pass

    def _quarantine(self, seg_id: int) -> None:
        """Retire a bad segment and every cold entry pointing into it."""
        name = self._seg_by_id.get(seg_id)
        if seg_id == self._writer_id and self._writer is not None:
            self._writer.abort()
            self._writer = None
            self._writer_id = None
            self._writer_dirty = False
        elif name is not None:
            path = self._segment_path(name)
            try:
                os.rename(path, path + ".quarantined")
            except OSError:
                _unlink_quiet(path)
        if name is not None:
            self._dir.drop_segment(seg_id)
        self._forget(seg_id)
        self._quarantined += 1

    # -- segment lifecycle --------------------------------------------------------

    def _segment_path(self, seg_name: str) -> str:
        return os.path.join(self._segments_dir, seg_name)

    def _track(self, seg_id: int, name: str, total: int = 0) -> None:
        """Count a segment of ``total`` rows, none of them live yet."""
        self._seg_by_id[seg_id], self._seg_total[seg_id] = name, total
        self._seg_live[seg_id] = 0

    def _forget(self, seg_id: int) -> None:
        """Drop a segment's counts and its cached read handle."""
        for table in (self._seg_by_id, self._seg_total, self._seg_live):
            table.pop(seg_id, None)
        self._drop_handle(seg_id)

    def _next_name(self, prefix: str = "", suffix: str = ".seg") -> str:
        name = f"{prefix}{self._next_seg:06d}{suffix}"
        self._next_seg += 1
        return name

    def _open_writer(self) -> SegmentWriter:
        name = self._next_name()
        seg_id = _segment_number(name)
        writer = SegmentWriter(self._segment_path(name))
        self._writer = writer
        self._writer_id = seg_id
        self._writer_dirty = False
        self._track(seg_id, name)
        return writer

    def _seal_writer(self) -> None:
        writer = self._writer
        if writer is None:
            return
        seg_id = self._writer_id
        self._writer = None
        self._writer_id = None
        self._writer_dirty = False
        if writer.records == 0:
            self._forget(seg_id)
            writer.abort()
            return
        writer.finalize()


    def compact(self, force: bool = False) -> int:
        """Rewrite garbage-heavy sealed segments; returns segments retired.

        A segment's garbage is its dead rows — groups that faulted back
        in (and may have been re-spilled elsewhere) or were dropped at
        flush; a page whose every row is dead is simply not copied.
        Liveness comes from the victim's own pages checked row by row
        against the key directory, so the sweep costs O(victim rows),
        not a directory scan.  Live rows are re-packed into full pages of
        a fresh segment and the directory is repointed entry by entry.
        A victim the current manifest references is deleted only at the
        next :meth:`checkpoint`, because crash recovery may still need
        it; any other victim is deleted at once.
        """
        threshold = 1.0 - _COMPACT_GARBAGE_RATIO
        victims: dict[int, str] = {}
        for seg_id, total in self._seg_total.items():
            if seg_id == self._writer_id:
                continue
            live = self._seg_live[seg_id]
            if force or live == 0 or (total and live / total < threshold):
                victims[seg_id] = self._seg_by_id[seg_id]
        if not victims:
            return 0
        writer: SegmentWriter | None = None
        builder: _PageBuilder | None = None
        new_name = None
        sources: list[tuple[int, int]] = []  # (segment id, page offset) per copy
        lost: set[int] = set()
        for seg_id, name in victims.items():
            try:
                for page, live in self._live_rows(seg_id, self._segment_path(name)):
                    if builder is None:
                        new_name = self._next_name()
                        writer = SegmentWriter(self._segment_path(new_name))
                        builder = _PageBuilder(writer)
                    rows = [row for row, _h in live]
                    for (row, h), states in zip(live, self._states(page, rows)):
                        builder.add(h, page.keys[row], states)
                        sources.append((seg_id, page.offset))
            except StoreError:
                self._quarantine(seg_id)
                lost.add(seg_id)
        if builder is not None:
            builder.flush()
            writer.finalize()
            new_id = _segment_number(new_name)
            self._track(new_id, new_name, writer.records)
            for (old_seg, old_off), (h, new_off, new_len) in zip(
                sources, builder.placed
            ):
                if old_seg not in lost:
                    self._dir.delete(h, old_seg, old_off)
                    self._dir.put(h, new_id, new_off, new_len)
                    self._seg_live[new_id] += 1
        retired = 0
        for seg_id, name in victims.items():
            if seg_id in lost:
                continue  # quarantined: its rows are gone, not copied
            self._forget(seg_id)
            path = self._segment_path(name)
            if name in self._manifest_segments:
                self._retired.append(path)
            else:
                # No checkpoint references it: delete now, or a churning
                # store that never checkpoints hoards every dead copy.
                _unlink_quiet(path)
            retired += 1
        if retired:
            self._compactions += 1
        return retired

    # -- query-side hooks ---------------------------------------------------------

    def _live_rows(self, seg_id: int, path: str, index=None, probe=True):
        """Yield ``(page, [(row, key hash), ...])`` for each page of one
        segment that still holds live rows, in file order.

        A row is live while the directory holds its hash pointing at
        this page.  ``index`` is the page index of an open writer's
        staging file; a sealed segment's comes from its footer.  Without
        ``probe`` the pages are only read and CRC-checked.  A
        :class:`StoreError` (corruption) is the caller's to handle.
        """
        if index is None:
            index = SegmentReader(path).pages
        with open(path, "rb") as handle:
            for offset, length, _rows in index:
                page = read_page(handle, path, offset, length)
                if not probe:
                    continue
                self._pages_read += 1
                lookup = self._dir.lookup
                live = [
                    (row, h)
                    for row, h in enumerate(map(group_hash, page.keys))
                    if any(
                        s == seg_id and o == offset for s, o, _l in lookup(h)
                    )
                ]
                if live:
                    yield page, live

    def _scan(self, probe: bool = True):
        """Yield ``(segment id, page, live rows)`` over the whole cold tier,
        every segment holding live rows streamed once, in file order.

        The segments are those live when the scan starts: no consumer
        spills or compacts while a scan is suspended (they only collect,
        finalize or move groups into the hot table).  A corrupt segment is
        quarantined and the located :class:`StoreError` re-raised.
        """
        todo = sorted(seg_id for seg_id, live in self._seg_live.items() if live)
        for seg_id in todo:
            index = None
            if seg_id == self._writer_id and self._writer is not None:
                path = self._flushed_writer_path()
                index = list(self._writer.pages)
            else:
                path = self._segment_path(self._seg_by_id[seg_id])
            try:
                for page, live in self._live_rows(seg_id, path, index, probe):
                    yield seg_id, page, live
            except StoreError:
                self._quarantine(seg_id)
                raise

    def cold_key_set(self):
        """Iterate the cold tier's group keys (a generator).

        Streams every live page once — the price of not holding ten
        million key tuples in RAM.
        """
        for _seg_id, page, live in self._scan():
            keys = page.keys
            for row, _h in live:
                yield keys[row]

    def cold_groups(self):
        """Iterate ``(key, states)`` over the cold tier without faulting
        anything in: scalar states as lists, summaries as their
        ``to_bytes`` buffers — what ``partial_state_bytes`` splices into
        its columns."""
        for _seg_id, page, live in self._scan():
            keys = page.keys
            rows = [row for row, _h in live]
            for row, states in zip(rows, self._states(page, rows)):
                yield keys[row], states

    def take_cold(self):
        """Fault in every cold group, page by page: yields ``(key, live
        states)`` and forgets each.

        The bulk form of :meth:`fault_in` for ``flush``: a page's rows
        leave the directory in one pass and are counted as fault-ins, and
        only one page's states are alive at a time unless the caller
        keeps them.
        """
        for seg_id, page, live in self._scan():
            keys = page.keys
            offset = page.offset
            delete = self._dir.delete
            for _row, h in live:
                delete(h, seg_id, offset)
            rows = [row for row, _h in live]
            self._seg_live[seg_id] -= len(rows)
            self._fault_ins += len(rows)
            for row, states in zip(rows, self._states(page, rows)):
                yield keys[row], self._revive(states)

    def verify_pages(self) -> None:
        """CRC-check every page of every segment holding live rows.

        ``flush`` calls this before it starts consuming groups, so a
        damaged segment costs exactly its own groups: it is quarantined
        and the located :class:`StoreError` raised while every other
        group is still where it was.
        """
        for _page in self._scan(probe=False):
            pass

    # -- checkpointing ------------------------------------------------------------

    def checkpoint(self, fields: dict) -> str:
        """Write a manifest checkpoint; returns the manifest path.

        ``fields`` are the engine's own manifest fields, which
        ``QueryEngine.store_checkpoint`` hands over: its query and schema,
        its tuple and eviction counters, and its UDAFs' creation counters.
        Hot groups are serialized once, as full pages, into a fresh
        ``ckpt-`` segment; cold groups are referenced *in place* — their
        pages are already durable, which is the point of using segments as the checkpoint
        substrate.  The key directory is published as a ``keys-NNNNNN.dir``
        snapshot (the working table plus the hot groups' ckpt entries,
        sealed) so the manifest stays a few hundred bytes at any
        group count.  Snapshot, then manifest, are each fsynced and
        renamed into place, followed by a parent-directory fsync — the
        rename is directory metadata, and without that sync a power loss
        can forget a checkpoint that was already acknowledged.  Only then
        are files retired by compaction (and the previous checkpoint's
        ``ckpt-`` segment and snapshot) actually deleted, so a crash at
        any point leaves a recoverable store.
        """
        high = self._table
        if high is None:
            raise ParameterError("store is not attached to an engine")
        self._seal_writer()
        ckpt_name = None
        ckpt_id = None
        ckpt_entries: list[tuple[int, int, int]] = []
        if high:
            ckpt_name = self._next_name("ckpt-")
            ckpt_id = _segment_number(ckpt_name)
            writer = SegmentWriter(self._segment_path(ckpt_name))
            builder = _PageBuilder(writer)
            for key in sorted(high, key=repr):
                builder.add(group_hash(key), key, high[key])
            builder.flush()
            ckpt_entries = builder.placed
            writer.finalize()
        # Directory snapshot: the working table plus the hot tier's
        # ckpt entries, published sealed.
        snap_name = self._next_name("keys-", ".dir")
        self._dir.publish_snapshot(
            os.path.join(self.directory, snap_name),
            [(h, ckpt_id, offset, length) for h, offset, length in ckpt_entries],
        )
        directory_entries = len(self._dir) + len(ckpt_entries)
        referenced_ids = {
            seg_id for seg_id, live in self._seg_live.items() if live > 0
        }
        referenced = sorted(
            {self._seg_by_id[seg_id] for seg_id in referenced_ids}
            | ({ckpt_name} if ckpt_name else set())
        )
        manifest = {
            **fields,
            "segments": referenced,
            "directory_file": snap_name,
            "directory_entries": directory_entries,
            "arrivals": self._arrivals,
        }
        manifest_path = os.path.join(self.directory, MANIFEST_NAME)
        publish(manifest_path, seal(STORE_MANIFEST, pack_tree(manifest)))
        # The new manifest is durable: previous-generation files are
        # now safe to drop.
        for path in self._retired:
            _unlink_quiet(path)
        self._retired = []
        referenced_set = set(referenced)
        self._manifest_segments = referenced_set
        for old in self._ckpt_names:
            if old not in referenced_set:
                _unlink_quiet(self._segment_path(old))
                self._forget(_segment_number(old))
        self._ckpt_names = [ckpt_name] if ckpt_name else []
        for old in self._dir_snapshots:
            if old != snap_name:
                _unlink_quiet(os.path.join(self.directory, old))
        self._dir_snapshots = [snap_name]
        if ckpt_name:
            # The ckpt segment is sealed but holds no cold entries;
            # track totals so inspect/compaction accounting stays
            # consistent.
            self._track(ckpt_id, ckpt_name, len(high))
        return manifest_path

    # -- statistics ---------------------------------------------------------------

    @property
    def hot_count(self) -> int:
        """Groups currently resident in the engine's high table."""
        return len(self._table) if self._table is not None else 0

    @property
    def cold_count(self) -> int:
        """Groups currently resident only on disk."""
        return len(self._dir) if self._dir is not None else 0

    @property
    def segment_count(self) -> int:
        """Sealed segments plus the open spill segment, if any."""
        return len(self._seg_total)

    @property
    def directory_bytes(self) -> int:
        """On-disk footprint of the key directory's working table."""
        return self._dir.size_bytes if self._dir is not None else 0

    def segment_bytes_on_disk(self) -> int:
        """Total bytes across live segment files (open writer included)."""
        total = 0
        for seg_id in self._seg_total:
            if seg_id == self._writer_id:
                total += self._writer.bytes_written
                continue
            try:
                total += os.path.getsize(self._segment_path(self._seg_by_id[seg_id]))
            except OSError:
                pass
        return total

    def stats(self) -> dict:
        """Occupancy and lifetime activity, JSON-compatible."""
        return {
            "hot_groups": self.hot_count,
            "hot_budget": self.hot_groups,
            "cold_groups": self.cold_count,
            "segments": self.segment_count,
            "segment_bytes": self.segment_bytes_on_disk(),
            "directory_bytes": self.directory_bytes,
            "pressure": self.pressure(),
            "evictions": self._evictions,
            "fault_ins": self._fault_ins,
            "spilled_bytes": self._spilled_bytes,
            "spill_pages": self._spill_pages,
            "pages_read": self._pages_read,
            "rows_decoded": self._rows_decoded,
            "compactions": self._compactions,
            "quarantined": self._quarantined,
        }

    def close(self) -> None:
        """Discard the open spill segment, close every file, detach.

        Sealed segments and any manifest stay on disk; state not covered
        by a :meth:`checkpoint` is gone, exactly like an engine that was
        never persisted.
        """
        if self._writer is not None:
            seg_id = self._writer_id
            self._writer.abort()
            self._writer = None
            self._writer_id = None
            self._forget(seg_id)
        for seg_id in list(self._handles):
            self._drop_handle(seg_id)
        if self._dir is not None:
            self._dir.close()
            self._dir = None


def _read_manifest(manifest_path: str) -> dict:
    """The manifest at ``manifest_path``, unsealed, unpacked and checked —
    every field's type — or a :class:`StoreError` naming it."""
    try:
        with open(manifest_path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise StoreError(
            f"unreadable store manifest {manifest_path}: {exc}",
            segment=manifest_path,
        ) from exc
    body = unseal(STORE_MANIFEST, data, manifest_path)
    try:
        manifest = unpack_tree(body)
    except ParameterError as exc:
        raise StoreError(
            f"malformed store manifest {manifest_path}: {exc}",
            segment=manifest_path,
        ) from exc
    if not isinstance(manifest, dict):
        raise StoreError(
            f"malformed store manifest {manifest_path}: a "
            f"{type(manifest).__name__}, not a dict",
            segment=manifest_path,
        )
    for field, kinds in _MANIFEST_FIELDS.items():
        value = manifest.get(field)
        if not isinstance(value, kinds) or field == "segments" and not all(
            isinstance(name, str) for name in value
        ):
            raise StoreError(
                f"malformed store manifest {manifest_path}: field "
                f"{field!r} is {value!r:.60}",
                segment=manifest_path,
            )
    return manifest


def describe_store(directory: str) -> dict:
    """What ``repro store inspect`` reports for one store directory: the
    checkpoint manifest (read as recovery reads it) and, per segment file,
    its format, pages, rows, live rows, pages' stored bytes beside their
    columns' inflated bytes, and first page's slot layout and column
    encodings.  Every page is CRC-checked and decoded: a bad
    segment is listed as ``corrupt`` or ``unsupported``, while a bad
    manifest or directory snapshot is a :class:`StoreError`."""
    if not os.path.isdir(directory):
        raise StoreError(f"{directory!r} is not a directory")
    report: dict = {"directory": directory, "manifest": None}
    live_by_segment: dict[str, int] = {}
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    if os.path.exists(manifest_path):
        manifest = _read_manifest(manifest_path)
        name_by_id = {_segment_number(name): name for name in manifest["segments"]}
        table = read_snapshot(os.path.join(directory, manifest["directory_file"]))
        groups = 0
        for _h, seg_id, _off, _len in live_slots(table):
            seg = name_by_id.get(seg_id, f"#{seg_id}")
            live_by_segment[seg] = live_by_segment.get(seg, 0) + 1
            groups += 1
        report["manifest"] = {
            "version": MANIFEST_VERSION,
            "query": manifest["query"],
            "tuples_in": manifest["tuples_in"],
            "groups": groups,
            "segments": manifest["segments"],
            "directory_file": manifest["directory_file"],
        }
    seg_dir = os.path.join(directory, "segments")
    names = sorted(os.listdir(seg_dir)) if os.path.isdir(seg_dir) else []
    report["segments"] = [
        _describe_segment(os.path.join(seg_dir, name), live_by_segment.get(name, 0))
        for name in names
    ]
    return report


def _describe_segment(path: str, live: int) -> dict:
    name = os.path.basename(path)
    entry: dict = {"name": name, "bytes": os.path.getsize(path)}
    if name.endswith(".quarantined"):
        entry["status"] = "quarantined"
        return entry
    if name.endswith(".tmp"):
        entry["status"] = "staging (open writer or crash leftover)"
        return entry
    try:
        reader = SegmentReader(path)
        summaries: dict[str, dict[str, int]] = {}
        layout: list[str] | None = None
        entry["column_bytes"] = 0  # inflated, beside the pages' stored bytes
        for page in reader.iter_pages():
            states, columns = page.states(), page.columns()
            entry["column_bytes"] += sum(size for _kind, size in columns)
            if layout is None:
                entry["columns"] = [
                    [kind, round(size / len(page), 2)] for kind, size in columns
                ]
                layout = [
                    "ragged" if code == RAGGED_SLOT
                    else f"scalars x{code}" if code != SUMMARY_SLOT
                    else "summary:" + summary_type_of(states[0][slot])
                    for slot, code in enumerate(page.slots)
                ]
            sizes, at = page.state_bytes(), 0
            for slot, code in enumerate(page.slots):
                if code == SUMMARY_SLOT:  # one aggregate's: one registry type
                    kind = summary_type_of(states[0][slot])
                    tally = summaries.setdefault(kind, {"buffers": 0, "bytes": 0})
                    tally["buffers"] += len(states)
                    tally["bytes"] += sizes[at]  # as stored: a shared head once
                at += code if code >= 0 else 1
    except (StoreError, ParameterError) as error:
        refused = "unsupported version" in str(error)
        entry["status"] = f"{'unsupported' if refused else 'corrupt'}: {error}"
        return entry
    entry["status"] = "ok"
    entry["summaries"] = dict(sorted(summaries.items()))
    entry["format"] = f"v{SEGMENT.version}"
    entry["pages"] = len(reader.pages)
    entry["page_bytes"] = sum(length for _offset, length, _rows in reader.pages)
    entry["records"] = reader.records
    entry["live"] = live
    entry["bytes_per_live_row"] = round(entry["bytes"] / live, 2) if live else None
    entry["layout"] = layout or []
    return entry


def _segment_number(seg_name: str) -> int:
    stem = seg_name.rsplit(".", 1)[0]
    if "-" in stem:
        stem = stem.rsplit("-", 1)[1]
    try:
        return int(stem)
    except ValueError:
        return -1


def _unlink_quiet(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass
