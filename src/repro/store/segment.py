"""Append-only segment files: the cold tier's on-disk record format.

A segment holds serialized group states — the values a
:meth:`~repro.dsms.engine.QueryEngine.partial_state_bytes` snapshot
carries column-wise, here one record per group — in a crash-evident,
random-access layout:

``header``
    ``b"RSEG"`` magic plus one format-version byte.
``records``
    Each record is ``<u32 body length> <u32 CRC32(body)> <body>``.
    Version 1 bodies are compact UTF-8 JSON ``{"k": tagged-key,
    "s": encoded-states, "g": generation}``.  Version 2 bodies are
    binary: a ``0x02`` marker byte, the generation, then struct-framed
    key parts and state blocks (int/float scalars packed as little-endian
    ``q``/``d`` exactly like :mod:`repro.core.cols`; summaries as their
    :meth:`~repro.core.protocol.StreamSummary.to_bytes` serde buffer).
    Keys use :func:`repro.core.protocol.tag_key`, states the record's
    own group encoding (``["plain", [scalars]]`` or ``["summary",
    to_bytes buffer]``, held raw: nothing here parses a summary); both
    body versions decode to the identical record dict, which a snapshot
    splices into its columns without a fault-in.  A version-1 body, being
    JSON, spells a summary as its ``dump_summary`` envelope instead.
``footer``
    A length+CRC framed index.  Version 1: JSON mapping the canonical
    key string of every record to ``[offset, length]``.  Version 2:
    a packed array of ``<u64 key hash> <u64 offset> <u32 length>``
    entries (the 64-bit BLAKE2b hash of the canonical key — the same
    hash the on-disk key directory uses), preceded by the record count.
``trailer``
    ``<u64 footer offset> b"GESR"`` — fixed-size, so a reader finds the
    footer from the end of the file.

Writers stage to ``<name>.tmp`` and publish with an atomic
``os.replace`` followed by a parent-directory fsync (the rename itself
is metadata: without syncing the directory a power loss can forget a
published segment).  Every read re-validates lengths and CRCs;
violations raise a structured :class:`~repro.core.errors.StoreError`
naming the segment and offset — never a crash, never silently wrong
bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from typing import Iterator

from repro.core.errors import StoreError
from repro.core.protocol import StreamSummary
from repro.core.serde import dump_summary, fsync_dir, load_summary

__all__ = [
    "SEGMENT_VERSION",
    "SegmentWriter",
    "SegmentReader",
    "canonical_key",
    "key_hash",
    "read_record_at",
    "read_record",
    "fsync_dir",
]

#: Default write version.  Readers accept every version listed in
#: :data:`SUPPORTED_VERSIONS`.
SEGMENT_VERSION = 2
SUPPORTED_VERSIONS = (1, 2)

_HEADER_MAGIC = b"RSEG"
_TRAILER_MAGIC = b"GESR"
_HEADER_LEN = len(_HEADER_MAGIC) + 1
_REC = struct.Struct("<II")  # body length, CRC32(body)
_TRAILER = struct.Struct("<Q4s")  # footer offset, magic

# -- version-2 binary body layout ---------------------------------------------------

_V2_BODY_MARKER = 0x02  # first body byte; JSON bodies start with '{' (0x7B)
_V2_HEAD = struct.Struct("<BQH")  # marker, generation, key part count
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

# scalar tags shared by key parts and plain-state values
_TAG_JSON, _TAG_INT, _TAG_FLOAT, _TAG_STR = 0, 1, 2, 3
# state-block kinds
_STATE_PLAIN, _STATE_SUMMARY = 1, 2

_V2_FOOTER_HEAD = struct.Struct("<IQ")  # footer version, record count
_V2_FOOTER_ENTRY = struct.Struct("<QQI")  # key hash, offset, framed length


def canonical_key(tagged_key: list) -> str:
    """The canonical string form of a tagged group key.

    Used as the footer-index key and as the manifest-directory key, so
    every layer that names a group on disk names it identically.
    """
    return json.dumps(tagged_key, separators=(",", ":"))


def key_hash(canonical: str) -> int:
    """64-bit BLAKE2b hash of a canonical key string.

    This is the single key-hash function of the store: the version-2
    segment footer and the on-disk key directory both use it, so an
    entry recovered from either names the same bucket.
    """
    digest = hashlib.blake2b(canonical.encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


# -- record body encoding -----------------------------------------------------------


def _encode_scalar(value, out: bytearray) -> None:
    """Append one tagged scalar (key part value or plain-state value)."""
    # bool is an int subclass and must round-trip as bool; non-finite
    # floats were already converted to {"__float__": ...} dicts by
    # encode_number upstream, so a float here is always packable.
    if type(value) is int and _I64_MIN <= value <= _I64_MAX:
        out += _U8.pack(_TAG_INT)
        out += _I64.pack(value)
    elif type(value) is float:
        out += _U8.pack(_TAG_FLOAT)
        out += _F64.pack(value)
    elif type(value) is str:
        raw = value.encode("utf-8")
        out += _U8.pack(_TAG_STR)
        out += _U32.pack(len(raw))
        out += raw
    else:
        raw = json.dumps(value, separators=(",", ":"), allow_nan=False)
        raw = raw.encode("utf-8")
        out += _U8.pack(_TAG_JSON)
        out += _U32.pack(len(raw))
        out += raw


def _decode_scalar(body: bytes, pos: int) -> tuple[object, int]:
    (tag,) = _U8.unpack_from(body, pos)
    pos += _U8.size
    if tag == _TAG_INT:
        (value,) = _I64.unpack_from(body, pos)
        return value, pos + _I64.size
    if tag == _TAG_FLOAT:
        (value,) = _F64.unpack_from(body, pos)
        return value, pos + _F64.size
    (length,) = _U32.unpack_from(body, pos)
    pos += _U32.size
    raw = body[pos:pos + length]
    if len(raw) != length:
        raise ValueError("scalar runs past end of body")
    pos += length
    if tag == _TAG_STR:
        return raw.decode("utf-8"), pos
    if tag == _TAG_JSON:
        return json.loads(raw.decode("utf-8")), pos
    raise ValueError(f"unknown scalar tag {tag}")


def _encode_body_v2(tagged_key: list, encoded_states: list, generation: int) -> bytes:
    out = bytearray()
    out += _V2_HEAD.pack(_V2_BODY_MARKER, generation, len(tagged_key))
    for kind, value in tagged_key:
        if kind == "int" and _I64_MIN <= value <= _I64_MAX:
            out += _U8.pack(_TAG_INT)
            out += _I64.pack(value)
        elif kind == "float" and type(value) is float:
            out += _U8.pack(_TAG_FLOAT)
            out += _F64.pack(value)
        elif kind == "str":
            raw = value.encode("utf-8")
            out += _U8.pack(_TAG_STR)
            out += _U32.pack(len(raw))
            out += raw
        else:
            # literal / tuple / oversize int / {"__float__": ...} — the
            # whole tagged pair as canonical JSON.
            raw = json.dumps([kind, value], separators=(",", ":"))
            raw = raw.encode("utf-8")
            out += _U8.pack(_TAG_JSON)
            out += _U32.pack(len(raw))
            out += raw
    out += _U16.pack(len(encoded_states))
    for kind, payload in encoded_states:
        if kind == "summary":
            out += _U8.pack(_STATE_SUMMARY)
            out += _U32.pack(len(payload))
            out += payload
        elif kind == "plain":
            out += _U8.pack(_STATE_PLAIN)
            out += _U32.pack(len(payload))
            for value in payload:
                _encode_scalar(value, out)
        else:
            raise StoreError(f"unknown state encoding kind {kind!r}")
    return bytes(out)


def _decode_body_v2(
    body: bytes, segment: str, offset: int, key_only: bool = False
) -> dict:
    try:
        _, generation, nparts = _V2_HEAD.unpack_from(body)
        pos = _V2_HEAD.size
        tagged_key: list = []
        for _ in range(nparts):
            (tag,) = _U8.unpack_from(body, pos)
            pos += _U8.size
            if tag == _TAG_INT:
                (value,) = _I64.unpack_from(body, pos)
                pos += _I64.size
                tagged_key.append(["int", value])
            elif tag == _TAG_FLOAT:
                (value,) = _F64.unpack_from(body, pos)
                pos += _F64.size
                tagged_key.append(["float", value])
            else:
                (length,) = _U32.unpack_from(body, pos)
                pos += _U32.size
                raw = body[pos:pos + length]
                if len(raw) != length:
                    raise ValueError("key part runs past end of body")
                pos += length
                if tag == _TAG_STR:
                    tagged_key.append(["str", raw.decode("utf-8")])
                elif tag == _TAG_JSON:
                    pair = json.loads(raw.decode("utf-8"))
                    if not isinstance(pair, list) or len(pair) != 2:
                        raise ValueError("malformed JSON key part")
                    tagged_key.append(pair)
                else:
                    raise ValueError(f"unknown key tag {tag}")
        if key_only:
            # Cold-key enumeration at millions of groups: the states block
            # is the expensive part and the caller only wants the key.
            # The CRC already vouched for the bytes.
            return {"k": tagged_key, "g": generation}
        (nstates,) = _U16.unpack_from(body, pos)
        pos += _U16.size
        states: list = []
        for _ in range(nstates):
            (skind,) = _U8.unpack_from(body, pos)
            pos += _U8.size
            if skind == _STATE_SUMMARY:
                (length,) = _U32.unpack_from(body, pos)
                pos += _U32.size
                raw = body[pos:pos + length]
                if len(raw) != length:
                    raise ValueError("summary state runs past end of body")
                pos += length
                states.append(["summary", raw])
            elif skind == _STATE_PLAIN:
                (count,) = _U32.unpack_from(body, pos)
                pos += _U32.size
                values = []
                for _ in range(count):
                    value, pos = _decode_scalar(body, pos)
                    values.append(value)
                states.append(["plain", values])
            else:
                raise ValueError(f"unknown state kind {skind}")
        if pos != len(body):
            raise ValueError(
                f"{len(body) - pos} trailing bytes after last state"
            )
    except (struct.error, ValueError, KeyError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        raise StoreError(
            f"segment {segment}: undecodable record at offset {offset}: {exc}",
            segment=segment, offset=offset,
        ) from exc
    return {"k": tagged_key, "s": states, "g": generation}


def _json_states(states: list, convert) -> list:
    """A record's states with every summary put through ``convert``: JSON
    bodies hold the envelope, the record dict the ``to_bytes`` buffer."""
    return [
        [kind, convert(payload) if kind == "summary" else payload]
        for kind, payload in states
    ]


def _encode_record(
    tagged_key: list, encoded_states: list, generation: int, version: int
) -> bytes:
    if version == 1:
        states = _json_states(
            encoded_states,
            lambda raw: dump_summary(StreamSummary.from_bytes(raw)),
        )
        body = json.dumps(
            {"k": tagged_key, "s": states, "g": generation},
            separators=(",", ":"),
            allow_nan=False,
        ).encode("utf-8")
    else:
        body = _encode_body_v2(tagged_key, encoded_states, generation)
    return _REC.pack(len(body), zlib.crc32(body)) + body


def _decode_json(body: bytes, segment: str, offset: int) -> dict:
    try:
        record = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreError(
            f"segment {segment}: undecodable record at offset {offset}: {exc}",
            segment=segment, offset=offset,
        ) from exc
    if not isinstance(record, dict):
        raise StoreError(
            f"segment {segment}: malformed record at offset {offset}",
            segment=segment, offset=offset,
        )
    return record


def _decode_body(
    body: bytes, segment: str, offset: int, key_only: bool = False
) -> dict:
    """Decode one record body of either version (bodies self-identify).

    With ``key_only`` a version-2 body skips state decoding and the
    returned record carries only ``"k"`` and ``"g"`` (version-1 JSON
    bodies decode whole either way).
    """
    if body[:1] == bytes([_V2_BODY_MARKER]):
        return _decode_body_v2(body, segment, offset, key_only=key_only)
    record = _decode_json(body, segment, offset)
    if "k" not in record or "s" not in record:
        raise StoreError(
            f"segment {segment}: malformed record at offset {offset}",
            segment=segment, offset=offset,
        )
    try:
        record["s"] = _json_states(
            record["s"], lambda envelope: load_summary(envelope).to_bytes()
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise StoreError(
            f"segment {segment}: malformed record states at offset {offset}: "
            f"{type(exc).__name__}: {exc}",
            segment=segment, offset=offset,
        ) from exc
    return record


def read_record(
    handle, path: str, offset: int, length: int, key_only: bool = False
) -> dict:
    """Read and CRC-check one record from an already-open segment file.

    The fault-in hot path at millions of groups: the store keeps a small
    cache of open segment handles, so each cold read costs a seek+read
    instead of an open+seek+read+close.
    """
    handle.seek(offset)
    framed = handle.read(length)
    if len(framed) < _REC.size:
        raise StoreError(
            f"segment {path}: truncated record header at offset {offset} "
            f"({len(framed)} of {_REC.size} bytes)",
            segment=path, offset=offset,
        )
    body_len, crc = _REC.unpack_from(framed)
    body = framed[_REC.size:]
    if body_len > len(body):
        raise StoreError(
            f"segment {path}: truncated record at offset {offset} "
            f"(expected {body_len} body bytes, read {len(body)})",
            segment=path, offset=offset,
        )
    if body_len < len(body):
        # A stale or corrupt directory entry: the frame header promises
        # fewer bytes than the entry's length field delivered.  Name the
        # real failure — this is not truncation.
        raise StoreError(
            f"segment {path}: record length mismatch at offset {offset} "
            f"(frame header says {body_len} body bytes, directory entry "
            f"spans {len(body)})",
            segment=path, offset=offset,
        )
    if zlib.crc32(body) != crc:
        raise StoreError(
            f"segment {path}: CRC mismatch at offset {offset}",
            segment=path, offset=offset,
        )
    return _decode_body(body, path, offset, key_only=key_only)


def read_record_at(path: str, offset: int, length: int) -> dict:
    """Read and CRC-check one record from ``path`` at ``offset``.

    ``length`` is the full framed record length (header + body) as
    returned by :meth:`SegmentWriter.append`; a record that is shorter,
    longer, or fails its CRC raises :class:`StoreError` with the exact
    location.  Works on finalized segments and on a writer's staging
    file alike (the store reads its own open segment through this).
    """
    with open(path, "rb") as handle:
        return read_record(handle, path, offset, length)


class SegmentWriter:
    """Append records to a staging file; publish atomically on finalize."""

    def __init__(self, path: str, version: int = SEGMENT_VERSION):
        if version not in SUPPORTED_VERSIONS:
            raise StoreError(
                f"segment {path}: cannot write version {version!r} "
                f"(supported: {SUPPORTED_VERSIONS})"
            )
        self.path = path
        self.version = version
        self.staging_path = path + ".tmp"
        self._index: dict[str, list[int]] = {}
        self._entries: list[tuple[int, int, int]] = []  # hash, offset, length
        self.records = 0
        self._handle = open(self.staging_path, "wb")
        self._handle.write(_HEADER_MAGIC + bytes([version]))
        self._offset = _HEADER_LEN
        self.finalized = False

    @property
    def bytes_written(self) -> int:
        """Bytes staged so far (records only, before footer/trailer)."""
        return self._offset - _HEADER_LEN

    def append(
        self, tagged_key: list, encoded_states: list, generation: int = 0
    ) -> tuple[int, int]:
        """Stage one record; returns its ``(offset, framed length)``."""
        framed = _encode_record(
            tagged_key, encoded_states, generation, self.version
        )
        offset = self._offset
        self._handle.write(framed)
        self._offset += len(framed)
        canonical = canonical_key(tagged_key)
        self._index[canonical] = [offset, len(framed)]
        self._entries.append((key_hash(canonical), offset, len(framed)))
        self.records += 1
        return offset, len(framed)

    def flush(self) -> None:
        """Push staged bytes to the OS so :func:`read_record_at` sees them."""
        self._handle.flush()

    def finalize(self) -> str:
        """Write footer + trailer, fsync file and directory, publish.

        Returns the final path.  After this the writer is closed.  The
        parent-directory fsync makes the ``os.replace`` itself durable:
        without it a power loss after publish can roll the directory
        entry back and forget a segment the manifest already references.
        """
        if self.version == 1:
            index_body = json.dumps(
                {"version": 1, "records": self.records, "index": self._index},
                separators=(",", ":"),
            ).encode("utf-8")
        else:
            parts = [_V2_FOOTER_HEAD.pack(self.version, self.records)]
            parts += [
                _V2_FOOTER_ENTRY.pack(h, off, length)
                for h, off, length in self._entries
            ]
            index_body = b"".join(parts)
        footer_offset = self._offset
        self._handle.write(
            _REC.pack(len(index_body), zlib.crc32(index_body)) + index_body
        )
        self._handle.write(_TRAILER.pack(footer_offset, _TRAILER_MAGIC))
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
    """Random and sequential access to one finalized segment.

    Opening validates the header, trailer, and footer CRC up front —
    including that the footer's record count matches its own index — so
    a truncated or bit-flipped segment fails fast with a located
    :class:`StoreError` instead of yielding garbage groups later.
    Reads version-1 (JSON) and version-2 (binary) segments alike;
    :attr:`version` says which this file is.
    """

    def __init__(self, path: str):
        self.path = path
        try:
            size = os.path.getsize(path)
        except OSError as exc:
            raise StoreError(
                f"segment {path}: unreadable: {exc}", segment=path
            ) from exc
        if size < _HEADER_LEN + _REC.size + _TRAILER.size:
            raise StoreError(
                f"segment {path}: too short to be a segment ({size} bytes)",
                segment=path, offset=0,
            )
        with open(path, "rb") as handle:
            header = handle.read(_HEADER_LEN)
            if header[:4] != _HEADER_MAGIC:
                raise StoreError(
                    f"segment {path}: bad magic {header[:4]!r}",
                    segment=path, offset=0,
                )
            if header[4] not in SUPPORTED_VERSIONS:
                raise StoreError(
                    f"segment {path}: unsupported version {header[4]}",
                    segment=path, offset=4,
                )
            self.version = header[4]
            handle.seek(size - _TRAILER.size)
            footer_offset, magic = _TRAILER.unpack(handle.read(_TRAILER.size))
            if magic != _TRAILER_MAGIC:
                raise StoreError(
                    f"segment {path}: bad trailer magic (truncated "
                    "finalize?)", segment=path, offset=size - _TRAILER.size,
                )
            if not _HEADER_LEN <= footer_offset <= size - _TRAILER.size - _REC.size:
                raise StoreError(
                    f"segment {path}: footer offset {footer_offset} outside "
                    f"file of {size} bytes", segment=path, offset=footer_offset,
                )
            handle.seek(footer_offset)
            frame = handle.read(_REC.size)
            body_len, crc = _REC.unpack(frame)
            body = handle.read(body_len)
            if len(body) != body_len or zlib.crc32(body) != crc:
                raise StoreError(
                    f"segment {path}: corrupt footer at offset "
                    f"{footer_offset}", segment=path, offset=footer_offset,
                )
        self.footer_offset = footer_offset
        #: canonical key string -> [offset, framed length] (version 1 only;
        #: version-2 footers index by key hash — see :attr:`entries`).
        self.index: dict[str, list[int]] = {}
        #: (key hash, offset, framed length) per record, in file order.
        self.entries: list[tuple[int, int, int]] = []
        self._by_hash: dict[int, list[tuple[int, int]]] = {}
        if self.version == 1:
            footer = _decode_json(body, path, footer_offset)
            if "index" not in footer:
                raise StoreError(
                    f"segment {path}: footer carries no index",
                    segment=path, offset=footer_offset,
                )
            self.index = footer["index"]
            declared = int(footer.get("records", len(self.index)))
            if declared != len(self.index):
                raise StoreError(
                    f"segment {path}: footer records count {declared} "
                    f"disagrees with index length {len(self.index)}",
                    segment=path, offset=footer_offset,
                )
            self.records = declared
            for canonical, (offset, length) in self.index.items():
                entry = (key_hash(canonical), offset, length)
                self.entries.append(entry)
            self.entries.sort(key=lambda e: e[1])
        else:
            self._load_footer_v2(body, path, footer_offset)
        for h, offset, length in self.entries:
            self._by_hash.setdefault(h, []).append((offset, length))

    def _load_footer_v2(self, body: bytes, path: str, footer_offset: int) -> None:
        head = _V2_FOOTER_HEAD
        entry = _V2_FOOTER_ENTRY
        if (len(body) < head.size
                or (len(body) - head.size) % entry.size != 0):
            raise StoreError(
                f"segment {path}: corrupt footer at offset {footer_offset}",
                segment=path, offset=footer_offset,
            )
        version, declared = head.unpack_from(body)
        if version != 2:
            raise StoreError(
                f"segment {path}: footer claims version {version} in a "
                "version-2 segment", segment=path, offset=footer_offset,
            )
        count = (len(body) - head.size) // entry.size
        if declared != count:
            raise StoreError(
                f"segment {path}: footer records count {declared} "
                f"disagrees with index length {count}",
                segment=path, offset=footer_offset,
            )
        self.records = declared
        pos = head.size
        for _ in range(count):
            h, offset, length = entry.unpack_from(body, pos)
            pos += entry.size
            self.entries.append((h, offset, length))

    def lookup(self, canonical: str) -> list[tuple[int, int]]:
        """``(offset, length)`` candidates for one canonical key.

        Version 1 indexes by the key itself, so the list has at most one
        entry.  Version 2 indexes by 64-bit key hash: rare collisions
        mean a candidate may be some other group's record — callers must
        verify the decoded record's key, exactly as the store's
        directory-backed fault-in does.
        """
        if self.version == 1:
            loc = self.index.get(canonical)
            return [tuple(loc)] if loc else []
        return list(self._by_hash.get(key_hash(canonical), []))

    def read(self, canonical: str) -> dict:
        """Read the record for one canonical key (KeyError if absent)."""
        for offset, length in self.lookup(canonical):
            record = read_record_at(self.path, offset, length)
            if canonical_key(record["k"]) == canonical:
                return record
        raise KeyError(canonical)

    def iter_records(self) -> Iterator[tuple[int, dict]]:
        """Yield ``(offset, record)`` for every record, in file order.

        CRC-checks each record; corruption raises :class:`StoreError`
        at the offending offset.
        """
        for _, offset, length in sorted(self.entries, key=lambda e: e[1]):
            yield offset, read_record_at(self.path, offset, length)
