"""``repro store upgrade DIR``: convert an older store directory, once.

The store reads and writes one segment format (version 3, column-packed
pages — :mod:`repro.store.segment`) and one manifest format (version 2).
This module is the only home of the decoders for what came before:

* **segment version 1** — one record per group, the body compact JSON
  ``{"k": tagged key, "s": states, "g": generation}`` with a summary
  spelled as its ``dump_summary`` envelope;
* **segment version 2** — one record per group, the body a ``0x02`` marker,
  a u64 generation, then struct-framed key parts and state blocks (tagged
  int / float / str scalars, a JSON fallback for the rest, summaries as
  ``to_bytes`` buffers);
* **manifest version 1** — the cold directory embedded in the manifest as
  ``{canonical key: [segment, offset, length]}`` instead of referencing a
  :class:`~repro.store.directory.KeyDirectory` snapshot file.

:func:`upgrade_store` rewrites every live group of such a directory into
version-3 pages (summary buffers of the version-1 JSON layout are
re-serialized on the way, so what a resumed engine snapshots equals the
all-RAM engine's blob byte for byte), writes a fresh directory snapshot
and publishes a new manifest last, atomically — a crash before that leaves
the old directory as it was, and running the tool again starts over.  A
directory that is already current is left untouched.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

from repro.core.errors import StoreError
from repro.core.protocol import StreamSummary
from repro.core.serde import load_summary
from repro.store.directory import KeyDirectory
from repro.store.segment import (
    SEGMENT_VERSION,
    SegmentWriter,
    _row,
)
from repro.store.tiered import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    _hash_of,
    _PageBuilder,
    _publish_manifest,
    _segment_number,
    _unlink_quiet,
)

__all__ = ["upgrade_store", "upgrade_tree"]

SUPPORTED_VERSIONS = (1, 2)  # what this tool reads

#: Rotate the rewritten segments at the store's default segment size.
_SEGMENT_BYTES = 4 << 20

_HEADER_LEN = 5  # b"RSEG" + version byte
_REC = struct.Struct("<II")  # body length, CRC32(body)
_V2_BODY_MARKER = 0x02  # first body byte; JSON bodies start with '{'
_V2_HEAD = struct.Struct("<BQH")  # marker, generation, key part count
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_TAG_JSON, _TAG_INT, _TAG_FLOAT, _TAG_STR = 0, 1, 2, 3
_STATE_PLAIN, _STATE_SUMMARY = 1, 2


# -- the old record decoders ---------------------------------------------------------


def _decode_value(body: bytes, pos: int) -> tuple[int, object, int]:
    """One tagged value of a version-2 body: ``(tag, value, next position)``."""
    (tag,) = _U8.unpack_from(body, pos)
    pos += 1
    if tag == _TAG_INT:
        return tag, _I64.unpack_from(body, pos)[0], pos + 8
    if tag == _TAG_FLOAT:
        return tag, _F64.unpack_from(body, pos)[0], pos + 8
    (length,) = _U32.unpack_from(body, pos)
    pos += 4
    raw = body[pos:pos + length]
    if len(raw) != length:
        raise ValueError("value runs past end of body")
    if tag == _TAG_STR:
        return tag, raw.decode("utf-8"), pos + length
    if tag == _TAG_JSON:
        return tag, json.loads(raw.decode("utf-8")), pos + length
    raise ValueError(f"unknown value tag {tag}")


def _decode_body_v2(body: bytes) -> dict:
    _marker, _generation, nparts = _V2_HEAD.unpack_from(body)
    pos = _V2_HEAD.size
    tagged_key = []
    for _ in range(nparts):
        tag, value, pos = _decode_value(body, pos)
        if tag == _TAG_JSON:  # the whole ["kind", value] pair
            if not isinstance(value, list) or len(value) != 2:
                raise ValueError("malformed JSON key part")
            tagged_key.append(value)
        else:
            tagged_key.append([("int", "float", "str")[tag - 1], value])
    (nstates,) = _U16.unpack_from(body, pos)
    pos += 2
    states = []
    for _ in range(nstates):
        (kind,) = _U8.unpack_from(body, pos)
        (count,) = _U32.unpack_from(body, pos + 1)
        pos += 5
        if kind == _STATE_SUMMARY:
            raw = body[pos:pos + count]
            if len(raw) != count:
                raise ValueError("summary state runs past end of body")
            pos += count
            states.append(["summary", raw])
        elif kind == _STATE_PLAIN:
            values = []
            for _ in range(count):
                _tag, value, pos = _decode_value(body, pos)
                values.append(value)
            states.append(["plain", values])
        else:
            raise ValueError(f"unknown state kind {kind}")
    if pos != len(body):
        raise ValueError(f"{len(body) - pos} trailing bytes after last state")
    return {"k": tagged_key, "s": states}


def _json_states(states: list) -> list:
    """A version-1 record's states with every summary envelope turned into
    the ``to_bytes`` buffer the record shape holds."""
    return [
        [kind, load_summary(payload).to_bytes() if kind == "summary" else payload]
        for kind, payload in states
    ]


def _decode_body(body: bytes) -> dict:
    """One record body of either old version (bodies self-identify)."""
    if body[:1] == bytes([_V2_BODY_MARKER]):
        return _decode_body_v2(body)
    record = json.loads(body.decode("utf-8"))
    return {"k": record["k"], "s": _json_states(record["s"])}


def _read_group(handle, path: str, offset: int, length: int) -> tuple[tuple, list]:
    """Read, CRC-check and decode the old record at ``offset`` into a page
    row ``(key, states)`` with every summary buffer in today's layout."""
    handle.seek(offset)
    framed = handle.read(length)
    try:
        body_len, crc = _REC.unpack_from(framed)
        body = framed[_REC.size:]
        if body_len != len(body):
            raise ValueError(
                f"frame says {body_len} body bytes, entry spans {len(body)}"
            )
        if zlib.crc32(body) != crc:
            raise ValueError("CRC mismatch")
        record = _decode_body(body)
        key, states = _row(record["k"], record["s"])
        return key, [
            # A version-1 (JSON) summary buffer inside a version-2 record.
            StreamSummary.from_bytes(state).to_bytes()
            if type(state) is bytes and state[:1] != bytes([StreamSummary.SERDE_VERSION])
            else state
            for state in states
        ]
    except Exception as exc:  # hostile bytes raise anything; locate them
        raise StoreError(
            f"segment {path}: unreadable version-1/2 record at offset "
            f"{offset}: {type(exc).__name__}: {exc}",
            segment=path, offset=offset,
        ) from exc


def _segment_version(path: str) -> int:
    try:
        with open(path, "rb") as handle:
            header = handle.read(_HEADER_LEN)
    except OSError as exc:
        raise StoreError(f"segment {path}: unreadable: {exc}", segment=path) from exc
    if len(header) < _HEADER_LEN or header[:4] != b"RSEG":
        raise StoreError(
            f"segment {path}: bad magic {header[:4]!r}", segment=path, offset=0
        )
    return header[4]


# -- the rewrite ---------------------------------------------------------------------


def _live_entries(directory: str, manifest: dict) -> list[tuple[str, int, int, int | None]]:
    """``(segment name, offset, length, key hash or None)`` of every live
    group, from whichever directory form the manifest carries."""
    if manifest.get("version") == 1:
        return [
            (seg_name, offset, length, None)
            for seg_name, offset, length in manifest["directory"].values()
        ]
    name_of = {_segment_number(name): name for name in manifest["segments"]}
    snapshot = KeyDirectory(os.path.join(directory, manifest["directory_file"]))
    try:
        return [
            (name_of[seg_id], offset, length, h)
            for h, seg_id, offset, length in snapshot.items()
        ]
    except KeyError as exc:
        raise StoreError(
            f"directory snapshot of {directory} references unknown segment "
            f"id {exc}", segment=snapshot.path,
        ) from exc
    finally:
        snapshot.close()


def upgrade_store(directory: str) -> dict:
    """Bring one store directory to the current formats, in place.

    Returns a JSON-compatible report: ``status`` is ``"upgraded"``,
    ``"current"`` (nothing to do — the upgrade is idempotent) or
    ``"empty"`` (no manifest: nothing durable to carry over; ``attach``
    starts such a directory fresh).  Damage in the old files raises a
    located :class:`StoreError` and changes nothing.
    """
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    report: dict = {"directory": directory}
    if not os.path.exists(manifest_path):
        return {**report, "status": "empty"}
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        version = manifest["version"]
        old_segments = list(manifest["segments"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise StoreError(
            f"unreadable store manifest {manifest_path}: {exc}",
            segment=manifest_path,
        ) from exc
    if version not in (1, MANIFEST_VERSION):
        raise StoreError(
            f"unsupported store manifest version {version!r} in {manifest_path}",
            segment=manifest_path,
        )
    seg_dir = os.path.join(directory, "segments")
    versions = {
        name: _segment_version(os.path.join(seg_dir, name)) for name in old_segments
    }
    if version == MANIFEST_VERSION and all(
        v == SEGMENT_VERSION for v in versions.values()
    ):
        return {**report, "status": "current"}
    if not set(versions.values()) <= set(SUPPORTED_VERSIONS):
        raise StoreError(
            f"store {directory} holds segment versions {versions}; this tool "
            f"converts {SUPPORTED_VERSIONS} and a directory of one release",
            segment=manifest_path,
        )
    entries = sorted(_live_entries(directory, manifest))
    numbers = [_segment_number(name) for name in old_segments]
    if manifest.get("directory_file"):
        numbers.append(_segment_number(manifest["directory_file"]))
    next_number = max(numbers, default=-1) + 1

    new_segments: list[str] = []
    placed: list[tuple[int, int, int, int]] = []  # hash, segment id, offset, length
    writer = builder = None

    def seal() -> None:
        builder.flush()
        seg_id = _segment_number(new_segments[-1])
        placed.extend((h, seg_id, off, length) for h, off, length in builder.placed)
        writer.finalize()

    handles: dict[str, object] = {}
    try:
        for seg_name, offset, length, h in entries:
            path = os.path.join(seg_dir, seg_name)
            handle = handles.get(seg_name)
            if handle is None:
                handle = handles[seg_name] = open(path, "rb")
            key, states = _read_group(handle, path, offset, length)
            actual = _hash_of(key)
            if h is not None and h != actual:
                raise StoreError(
                    f"segment {path}: record at offset {offset} is not the "
                    "group its directory entry names", segment=path, offset=offset,
                )
            if writer is None or writer.bytes_written >= _SEGMENT_BYTES:
                if writer is not None:
                    seal()
                new_segments.append(f"{next_number:06d}.seg")
                next_number += 1
                writer = SegmentWriter(os.path.join(seg_dir, new_segments[-1]))
                builder = _PageBuilder(writer)
            builder.add(actual, key, states)
        if writer is not None:
            seal()
    except BaseException:
        if writer is not None:
            writer.abort()
        for name in new_segments:
            _unlink_quiet(os.path.join(seg_dir, name))
        raise
    finally:
        for handle in handles.values():
            handle.close()

    snap_name = f"keys-{next_number:06d}.dir"
    working = os.path.join(directory, snap_name + ".build")
    _unlink_quiet(working)
    snapshot = KeyDirectory(working, capacity=max(4096, 2 * len(placed)))
    try:
        for entry in placed:
            snapshot.put(*entry)
        snapshot.snapshot_to(os.path.join(directory, snap_name))
    finally:
        snapshot.close()
        _unlink_quiet(working)

    upgraded = {
        key: value for key, value in manifest.items() if key != "directory"
    }
    upgraded.update(
        version=MANIFEST_VERSION, segments=new_segments,
        directory_file=snap_name, directory_entries=len(placed),
    )
    _publish_manifest(directory, upgraded)
    # The new manifest is durable: the old generation can go.
    bytes_before = 0
    for name in old_segments:
        path = os.path.join(seg_dir, name)
        bytes_before += os.path.getsize(path)
        _unlink_quiet(path)
    if manifest.get("directory_file"):
        _unlink_quiet(os.path.join(directory, manifest["directory_file"]))
    return {
        **report,
        "status": "upgraded",
        "from": {
            "manifest": version,
            "segments": sorted(set(versions.values())),
        },
        "groups": len(placed),
        "segments_before": len(old_segments),
        "segments_after": len(new_segments),
        "bytes_before": bytes_before,
        "bytes_after": sum(
            os.path.getsize(os.path.join(seg_dir, name)) for name in new_segments
        ),
    }


def upgrade_tree(root: str) -> list[dict]:
    """:func:`upgrade_store` on ``root`` and on every store directory
    below it (a ``serve --store-dir`` state dir keeps one per shard, a
    tenant root one per tenant); returns their reports."""
    reports = []
    for current, dirs, files in os.walk(root):
        dirs.sort()
        if MANIFEST_NAME in files and "segments" in dirs:
            dirs.remove("segments")
            reports.append(upgrade_store(current))
    return reports
