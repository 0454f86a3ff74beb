"""Append-only segment files: the cold tier's on-disk page format.

A segment holds serialized group states in **pages**.  A page is N groups
packed column-wise by :func:`repro.core.groups.group_columns` — the very
packing :meth:`~repro.dsms.engine.QueryEngine.partial_state_bytes` uses for
its blob, so a cold group on disk and the same group in a shipped partial
are the same column bytes.  The store writes one page per eviction batch
and reads a page at most once per fault batch or scan; a page of one row
is the record-shaped case (:meth:`SegmentWriter.append`,
:func:`read_record_at`), not a second format.  Layout (format version 8,
the only one this module writes or reads — an older segment is refused
with its version named; DESIGN.md §2.9 has the envelope)::

    header   "RSEG" <u8 version = 8>                  (serde.head)
    pages    <u32 body length> <u32 CRC32(body)> <body>            (each)
             body := serde.deflate(page)
             page := <u16 key parts> <u16 slots> <u32 rows>
                     slots x <i16 slot code>  (one per aggregate)
                     core/cols batch          (rows x [key columns, state columns])
    footer   <u32 body length> <u32 CRC32(body)> <body>           (a frame)
             body := <u32 pages> <u64 rows>
                     pages x <u32 framed length> <u32 rows>
    trailer  <u64 footer offset>

Pages tile the file from the header to the footer, so a page's offset is
the sum of the framed lengths before it.

The footer indexes pages, not groups: which group lives where is the key
directory's business (:mod:`repro.store.directory`), whose slot points at
a page; the reader finds the row by matching the key, which it has to
verify anyway because the directory is keyed by a 64-bit hash.

Writers stage to ``<name>.tmp`` and publish with an atomic
``os.replace`` followed by a parent-directory fsync (the rename itself
is metadata: without syncing the directory a power loss can forget a
published segment).  Every read re-validates lengths and CRCs;
violations raise a structured :class:`~repro.core.errors.StoreError`
naming the segment and offset — never a crash, never silently wrong
bytes.
"""

from __future__ import annotations

import os
import struct
from typing import Iterator

from repro.core.cols import block_values, describe_cols, open_cols, pack_cols
from repro.core.errors import ParameterError, ProtocolError, StoreError
from repro.core.groups import SUMMARY_SLOT, group_columns, group_states, shared_nans
from repro.core.groups import group_hash as key_hash
from repro.core.protocol import decode_number, encode_number, tag_key, untag_key
from repro.core.serde import SEGMENT, check_head, frame, fsync_dir, head, unframe

__all__ = [
    "SEGMENT_VERSION",
    "Page",
    "SegmentWriter",
    "SegmentReader",
    "canonical_key",
    "key_hash",
    "read_page",
    "read_record_at",
    "fsync_dir",
]

#: 3 had no int-width ``f64``, 4 its own footer magic, 5 no string heads,
#: 6 plain pages, 7 a JSON ``tagged`` column; an older build refuses a
#: version-8 segment at open, not quarantining it.
SEGMENT_VERSION = SEGMENT.version

_HEADER = head(SEGMENT)
_FOOTER = SEGMENT._replace(name="segment footer", deflated=False)  # plain
_TRAILER = struct.Struct("<Q")  # footer offset
_PAGE_HEAD = struct.Struct("<HHI")  # key parts, slots, rows
_FOOTER_HEAD = struct.Struct("<IQ")  # pages, rows
_FOOTER_ENTRY = struct.Struct("<II")  # framed length, rows


def canonical_key(tagged_key: list) -> tuple:
    """The group key a record's tagged key names, which :func:`key_hash`
    (:func:`~repro.core.groups.group_hash`) names in the key directory."""
    return tuple(untag_key(tag) for tag in tagged_key)


# -- the record shape: one row, tagged and JSON-compatible ---------------------------


def _record(key: tuple, states: list) -> dict:
    """One page row as the record dict ``{"k": tagged key, "s": states}``,
    a state being ``["plain", scalars]`` or ``["summary", to_bytes buffer]``."""
    return {
        "k": [tag_key(part) for part in key],
        "s": [
            ["summary", state] if type(state) is bytes
            else ["plain", [encode_number(v) for v in state]]
            for state in states
        ],
    }


def _row(tagged_key: list, encoded_states: list) -> tuple[tuple, list]:
    """Inverse of :func:`_record`."""
    states = []
    for kind, payload in encoded_states:
        if kind == "summary":
            states.append(bytes(payload))
        elif kind == "plain":
            states.append([decode_number(v) for v in payload])
        else:
            raise StoreError(f"unknown state encoding kind {kind!r}")
    return tuple(untag_key(tag) for tag in tagged_key), states


# -- pages ---------------------------------------------------------------------------


def _encode_page(keys: list[tuple], rows: list[list]) -> bytes:
    """The framed page holding groups ``keys`` with states ``rows``."""
    slots, cols = group_columns(keys, rows, len(rows[0]))
    body = b"".join((
        _PAGE_HEAD.pack(len(keys[0]), len(slots), len(keys)),
        struct.pack(f"<{len(slots)}h", *slots),
        pack_cols(cols),
    ))
    return frame(SEGMENT, body)


class Page:
    """One decoded page: every key, and states for the rows asked for.

    The key columns are decoded whole (finding a group means matching
    its key); state columns stay packed until :meth:`states` picks rows
    out of them, so a fault batch that wants three rows of a 512-row
    page decodes three.
    """

    __slots__ = ("keys", "slots", "path", "offset", "_batch", "_count", "_blocks")

    def __init__(self, body: memoryview, path: str, offset: int):
        self.path = path
        self.offset = offset
        try:
            key_parts, nslots, rows = _PAGE_HEAD.unpack_from(body)
            self.slots = list(
                struct.unpack_from(f"<{nslots}h", body, _PAGE_HEAD.size)
            )
            self._batch = batch = body[_PAGE_HEAD.size + 2 * nslots:]
            count, _seq, blocks = open_cols(batch)
            if not rows or (blocks and count != rows) or key_parts > len(blocks):
                raise ValueError(f"page head says {rows} rows, batch {count}")
            self._count = rows
            self._blocks = blocks[key_parts:]
            self.keys: list[tuple] = list(zip(*(
                shared_nans(block_values(batch, block, rows))
                for block in blocks[:key_parts]
            ))) if key_parts else [()] * rows
        except (struct.error, ProtocolError, ParameterError, ValueError,
                TypeError) as exc:
            raise self._undecodable(exc) from exc

    def _undecodable(self, exc: Exception) -> StoreError:
        return StoreError(
            f"segment {self.path}: undecodable page at offset {self.offset}: "
            f"{type(exc).__name__}: {exc}",
            segment=self.path, offset=self.offset,
        )

    def __len__(self) -> int:
        return self._count

    def columns(self) -> list[tuple[str, int]]:
        """``(encoding name, payload bytes)`` per column, key columns
        first — what ``repro store inspect`` prints."""
        try:
            return describe_cols(self._batch)[1]
        except (ProtocolError, ParameterError) as exc:
            raise self._undecodable(exc) from exc

    def state_bytes(self) -> list[int]:
        """Payload bytes of each state column as stored; nothing decoded."""
        return [end - start for _kind, start, end in self._blocks]

    def states(self, rows: list[int] | None = None) -> list[list]:
        """State lists of the rows at indices ``rows`` (every row when
        None), one per aggregate: a fresh scalar list, or the summary's
        ``to_bytes`` buffer — still serialized, so a snapshot splices it
        into its columns and only a fault-in instantiates it."""
        count = self._count if rows is None else len(rows)
        if not count:
            return []
        try:
            cols = [
                block_values(self._batch, block, self._count, rows)
                for block in self._blocks
            ]
            _keys, per_aggregate = group_states(self.slots, cols, 0, count)
            for code, states in zip(self.slots, per_aggregate):
                if code == SUMMARY_SLOT and any(type(s) is not bytes for s in states):
                    raise ValueError("summary slot holds a non-buffer")
        except (ProtocolError, ParameterError, ValueError, TypeError,
                IndexError) as exc:
            raise self._undecodable(exc) from exc
        if not per_aggregate:
            return [[] for _ in range(count)]
        return list(map(list, zip(*per_aggregate)))


def read_page(handle, path: str, offset: int, length: int) -> Page:
    """Read and CRC-check one page from an already-open segment file.

    ``length`` is the framed page length (frame header + body) as
    returned by :meth:`SegmentWriter.write_page`; a page that is shorter,
    longer, or fails its CRC raises :class:`StoreError` with the exact
    location.  Works on finalized segments and on a writer's staging
    file alike (the store reads its own open segment through this).
    """
    handle.seek(offset)
    body = unframe(SEGMENT, handle.read(length), path, offset)
    return Page(body, path, offset)


def read_record_at(path: str, offset: int, length: int) -> dict:
    """The first row of the page at ``offset``, as a record dict.

    The one-row case of the page path: ``(offset, length)`` is what
    :meth:`SegmentWriter.append` returned, and the result is ``{"k":
    tagged key, "s": states}`` with each state ``["plain", scalars]`` or
    ``["summary", to_bytes buffer]`` (held raw: nothing here parses a
    summary).  Raises a located :class:`StoreError` like
    :func:`read_page`.
    """
    with open(path, "rb") as handle:
        page = read_page(handle, path, offset, length)
    return _record(page.keys[0], page.states([0])[0])


class SegmentWriter:
    """Append pages to a staging file; publish atomically on finalize."""

    def __init__(self, path: str):
        self.path = path
        self.staging_path = path + ".tmp"
        #: ``(offset, framed length, rows)`` per page, in file order —
        #: what the footer will hold, readable while the file is open.
        self.pages: list[tuple[int, int, int]] = []
        self.records = 0
        self._handle = open(self.staging_path, "wb")
        self._handle.write(_HEADER)
        self._offset = len(_HEADER)
        self.finalized = False

    @property
    def bytes_written(self) -> int:
        """Bytes staged so far (pages only, before footer/trailer)."""
        return self._offset - len(_HEADER)

    def write_page(self, keys: list[tuple], rows: list[list]) -> tuple[int, int]:
        """Stage groups ``keys`` with states ``rows`` (one list per group:
        per aggregate a scalar list, a live summary or its ``to_bytes``
        buffer) as one page; returns its ``(offset, framed length)``."""
        framed = _encode_page(keys, rows)
        offset = self._offset
        self._handle.write(framed)
        self._offset += len(framed)
        self.pages.append((offset, len(framed), len(keys)))
        self.records += len(keys)
        return offset, len(framed)

    def append(self, tagged_key: list, encoded_states: list) -> tuple[int, int]:
        """Stage one group in the record shape :func:`read_record_at`
        returns, as a page of one; returns its ``(offset, framed length)``."""
        key, states = _row(tagged_key, encoded_states)
        return self.write_page([key], [states])

    def flush(self) -> None:
        """Push staged bytes to the OS so :func:`read_page` sees them."""
        self._handle.flush()

    def finalize(self) -> str:
        """Write footer + trailer, fsync file and directory, publish.

        Returns the final path.  After this the writer is closed.  The
        parent-directory fsync makes the ``os.replace`` itself durable:
        without it a power loss after publish can roll the directory
        entry back and forget a segment the manifest already references.
        """
        index_body = b"".join((
            _FOOTER_HEAD.pack(len(self.pages), self.records),
            *(
                _FOOTER_ENTRY.pack(length, rows)
                for _offset, length, rows in self.pages
            ),
        ))
        self._handle.write(frame(_FOOTER, index_body))
        self._handle.write(_TRAILER.pack(self._offset))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        os.replace(self.staging_path, self.path)
        fsync_dir(os.path.dirname(os.path.abspath(self.path)))
        self.finalized = True
        return self.path

    def abort(self) -> None:
        """Discard the staging file (crash-equivalent: nothing published)."""
        if not self._handle.closed:
            self._handle.close()
        if os.path.exists(self.staging_path):
            os.unlink(self.staging_path)


class SegmentReader:
    """Sequential access to one finalized segment.

    Opening validates the header, trailer, and footer CRC up front —
    including that the footer's page and row counts match its own index
    and that the pages tile the file — so a truncated or bit-flipped
    segment fails fast with a located :class:`StoreError` instead of
    yielding garbage groups later.  A segment of any other format version
    is refused with that version in the message.
    """

    def __init__(self, path: str):
        self.path = path
        try:
            size = os.path.getsize(path)
        except OSError as exc:
            raise StoreError(
                f"segment {path}: unreadable: {exc}", segment=path
            ) from exc
        if size < len(_HEADER) + _TRAILER.size:
            raise StoreError(
                f"segment {path}: too short to be a segment ({size} bytes)",
                segment=path, offset=0,
            )
        with open(path, "rb") as handle:
            check_head(SEGMENT, handle.read(len(_HEADER)), path)
            handle.seek(size - _TRAILER.size)
            (footer_offset,) = _TRAILER.unpack(handle.read(_TRAILER.size))
            if not len(_HEADER) <= footer_offset <= size - _TRAILER.size:
                raise StoreError(
                    f"segment {path}: footer offset {footer_offset} outside "
                    f"file of {size} bytes", segment=path,
                    offset=size - _TRAILER.size,
                )
            handle.seek(footer_offset)
            footer = handle.read(size - _TRAILER.size - footer_offset)
        body = unframe(_FOOTER, footer, path, footer_offset)
        self.footer_offset = footer_offset
        corrupt = StoreError(
            f"segment {path}: corrupt footer at offset {footer_offset}",
            segment=path, offset=footer_offset,
        )
        if (
            len(body) < _FOOTER_HEAD.size
            or (len(body) - _FOOTER_HEAD.size) % _FOOTER_ENTRY.size
        ):
            raise corrupt
        declared, self.records = _FOOTER_HEAD.unpack_from(body)
        #: ``(offset, framed length, rows)`` per page, in file order.
        self.pages: list[tuple[int, int, int]] = []
        at = len(_HEADER)
        for length, rows in _FOOTER_ENTRY.iter_unpack(body[_FOOTER_HEAD.size:]):
            self.pages.append((at, length, rows))
            at += length
        if at != footer_offset:  # the pages must tile the file
            raise corrupt
        if declared != len(self.pages) or self.records != sum(
            rows for _o, _l, rows in self.pages
        ):
            raise StoreError(
                f"segment {path}: footer counts ({declared} pages, "
                f"{self.records} rows) disagree with its index",
                segment=path, offset=footer_offset,
            )

    def iter_pages(self) -> Iterator[Page]:
        """Every page in file order, CRC-checked; corruption — a page
        whose row count is not the footer's included — raises
        :class:`StoreError` at the offending offset."""
        with open(self.path, "rb") as handle:
            for offset, length, rows in self.pages:
                page = read_page(handle, self.path, offset, length)
                if len(page) != rows:
                    raise StoreError(
                        f"segment {self.path}: page at offset {offset} holds "
                        f"{len(page)} rows, footer says {rows}",
                        segment=self.path, offset=offset,
                    )
                yield page
