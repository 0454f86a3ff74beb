"""Sealed envelopes, the durable publish, and the engine checkpoint file.

Every byte the system persists or ships — a partial-state buffer,
``checkpoint.bin``, a segment's pages and footer, a key-directory
snapshot, a store manifest — is framed here and nowhere else (DESIGN.md
§2.9)::

    envelope  <4s magic> <u8 version> frame
    frame     <u32 body length> <u32 CRC32(body)> body
    body      <u8 0> body | <u8 1> <u32 length> deflate stream   (if deflated)

:func:`seal` / :func:`unseal` write and open an envelope; opening refuses
another magic, any version but the one this build writes (by number), a
short or overlong body and a CRC mismatch, with the format's own error
naming the file and byte offset.  A segment's pages and footer are bare
frames (:func:`frame`) under the file's one :func:`head`.  Group state —
the partial-state blob and a segment's pages — is stored through the one
:func:`deflate` / :func:`inflate` pair, CRC-checked before it is inflated.
:func:`publish` writes a whole file atomically and durably.  The engine
checkpoint file is :func:`dump_partials_checkpoint` /
:func:`load_partials_checkpoint`.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import NamedTuple

from repro.core.cols import pack_column, read_column
from repro.core.errors import MergeError, ParameterError, ProtocolError, StoreError

__all__ = [
    "Format",
    "PARTIAL_STATE",
    "PARTIALS_CHECKPOINT",
    "SEGMENT",
    "DIRECTORY_SNAPSHOT",
    "STORE_MANIFEST",
    "envelope",
    "deflate",
    "inflate",
    "seal",
    "unseal",
    "head",
    "check_head",
    "frame",
    "unframe",
    "publish",
    "fsync_dir",
    "dump_partials_checkpoint",
    "read_partials_checkpoint",
    "load_partials_checkpoint",
    "PARTIALS_CHECKPOINT_VERSION",
    "CHECKPOINT_FILENAME",
]


class Format(NamedTuple):
    """A sealed format: magic, the one version this build writes and
    reads, its name in errors, the error type it raises, and whether its
    frames hold :func:`deflate` bodies."""

    magic: bytes
    version: int
    name: str
    error: type
    deflated: bool = False


#: Version 4 had no envelope: a version byte, the head, and a trailing CRC32.
PARTIAL_STATE = Format(b"FDPS", 7, "partial-state buffer", MergeError, True)
PARTIALS_CHECKPOINT = Format(b"FDCK", 3, "partials checkpoint", ParameterError)
#: A segment's header; its pages (deflated) and footer are bare frames.
SEGMENT = Format(b"RSEG", 7, "segment", StoreError, True)
DIRECTORY_SNAPSHOT = Format(b"RDIR", 2, "key directory snapshot", StoreError)
#: Version 4 was bare JSON carrying its own ``version`` field.
STORE_MANIFEST = Format(b"FDMF", 5, "store manifest", StoreError)

_HEAD = struct.Struct("<4sB")  # magic, version
_FRAME = struct.Struct("<II")  # body length, CRC32(body)
_DEFLATED = struct.Struct("<BI")  # body kind 1, inflated length
#: The zlib level of a deflated body, and the times its stored bytes that
#: it may inflate to (group state deflates about 2x).
DEFLATE_LEVEL, INFLATE_GROWTH = 1, 16


def _refused(fmt: Format, source, offset: int, problem: str) -> Exception:
    where = fmt.name if source is None else f"{fmt.name} {source}"
    message = f"{where}: {problem}"
    if fmt.error is StoreError:
        return StoreError(message, segment=source, offset=offset)
    return fmt.error(message)


def head(fmt: Format) -> bytes:
    """``fmt``'s magic and version: how an envelope or a segment starts."""
    return _HEAD.pack(fmt.magic, fmt.version)


def check_head(fmt: Format, data, source=None, offset: int = 0) -> None:
    """Refuse ``data`` (at byte ``offset`` of ``source``) unless it starts
    with ``fmt``'s magic and version."""
    if len(data) < _HEAD.size:
        raise _refused(fmt, source, offset, f"truncated at offset {offset}")
    magic, version = _HEAD.unpack_from(data)
    if magic != fmt.magic:
        raise _refused(fmt, source, offset, f"bad magic {magic!r} at offset {offset}")
    if version != fmt.version:
        raise _refused(
            fmt, source, offset + 4, f"unsupported version {version} at offset "
            f"{offset + 4} (this build reads version {fmt.version})",
        )


def deflate(body) -> bytes:
    """``body`` as a deflated format stores it: kind 1, its length and its
    raw deflate stream when that is strictly smaller and inflates within
    ``INFLATE_GROWTH``; kind 0 and ``body`` otherwise."""
    packer = zlib.compressobj(DEFLATE_LEVEL, zlib.DEFLATED, -15)
    stored = _DEFLATED.pack(1, len(body)) + packer.compress(body) + packer.flush()
    if len(stored) <= len(body) <= INFLATE_GROWTH * len(stored):  # < 1 + len(body)
        return stored
    return b"\x00" + body


def inflate(fmt: Format, stored, source=None, offset: int = 0) -> memoryview:
    """The body :func:`deflate` stored as ``stored`` (at byte ``offset`` of
    ``source``), or ``fmt.error`` naming both.  An unknown kind and a
    length past ``INFLATE_GROWTH`` times ``stored`` are refused before
    any allocation; so is a stream that fails, is cut short, inflates to
    another length or has bytes after its end."""
    view = memoryview(stored)
    if view[:1] == b"\x00":
        return view[1:]
    if view[:1] != b"\x01" or len(view) < _DEFLATED.size:
        raise _refused(fmt, source, offset, f"unknown body kind at offset {offset}")
    length, at = _DEFLATED.unpack_from(view)[1], offset + _DEFLATED.size
    if length > INFLATE_GROWTH * len(view):
        raise _refused(fmt, source, offset + 1, f"inflated length {length} at "
                       f"offset {offset + 1} outgrows its {len(view)} stored bytes")
    unpacker = zlib.decompressobj(-15)
    try:  # one byte past the length tells a longer stream apart
        body = unpacker.decompress(view[_DEFLATED.size:], length + 1)
    except zlib.error as exc:
        raise _refused(fmt, source, at, f"bad deflate at offset {at}: {exc}") from exc
    if len(body) != length or not unpacker.eof or unpacker.unused_data:
        raise _refused(fmt, source, at, f"deflate stream at offset {at} does "
                       f"not end at its {length} inflated bytes")
    return memoryview(body)


def frame(fmt: Format, body) -> bytes:
    """``body``, deflated if ``fmt`` is, behind its length and CRC32."""
    body = deflate(body) if fmt.deflated else body
    return _FRAME.pack(len(body), zlib.crc32(body)) + body


def unframe(fmt: Format, framed, source=None, offset: int = 0) -> memoryview:
    """The body of the frame ``framed`` (at byte ``offset`` of ``source``),
    which it must fill exactly, CRC checked (then inflated)."""
    view = memoryview(framed)
    if len(view) < _FRAME.size:
        raise _refused(fmt, source, offset, f"truncated at offset {offset}")
    length, crc = _FRAME.unpack_from(view)
    body = view[_FRAME.size:]
    if length != len(body):
        # More bytes than the frame holds is not truncation: a stale
        # directory entry or a torn footer pointer claims too many.
        problem = "truncated" if length > len(body) else "length mismatch"
        raise _refused(
            fmt, source, offset, f"{problem} at offset {offset} (frame says "
            f"{length} body bytes, {len(body)} follow)",
        )
    if zlib.crc32(body) != crc:
        raise _refused(fmt, source, offset, f"fails its CRC32 at offset {offset}")
    return inflate(fmt, body, source, offset + _FRAME.size) if fmt.deflated else body


def envelope(fmt: Format, *chunks) -> bytes:
    """The magic, version, length and CRC32 that seal the body ``chunks``
    concatenate, read in place (slices of an mmap too)."""
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    return head(fmt) + _FRAME.pack(sum(map(len, chunks)), crc)


def seal(fmt: Format, body) -> bytes:
    """``body`` in ``fmt``'s envelope."""
    return head(fmt) + frame(fmt, body)


def unseal(fmt: Format, data, source=None, offset: int = 0) -> memoryview:
    """The body of the ``fmt`` envelope ``data`` (at byte ``offset`` of
    ``source``), every field checked, or ``fmt.error`` naming both."""
    view = memoryview(data)
    check_head(fmt, view, source, offset)
    return unframe(fmt, view[_HEAD.size:], source, offset + _HEAD.size)


def fsync_dir(directory: str) -> None:
    """fsync a directory so a rename/creation inside it survives power loss."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def publish(path: str, *chunks) -> None:
    """Replace ``path`` with ``chunks``, concatenated, atomically and
    durably: staged to ``path + ".tmp"``, fsynced, renamed over ``path``,
    and the parent directory fsynced (without it a power loss can roll
    the rename back)."""
    staging = path + ".tmp"
    with open(staging, "wb") as handle:
        for chunk in chunks:
            handle.write(chunk)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(staging, path)
    fsync_dir(os.path.dirname(os.path.abspath(path)))


# -- engine partial-state checkpoints ----------------------------------------------

PARTIALS_CHECKPOINT_VERSION = PARTIALS_CHECKPOINT.version

#: Name of the :func:`dump_partials_checkpoint` image inside a server's
#: ``state_dir`` — what a server restores from and a crash harness reads.
CHECKPOINT_FILENAME = "checkpoint.bin"

_CKPT_COUNTS = struct.Struct("!HI")  # header texts (query SQL + schema names), blobs


def dump_partials_checkpoint(sql: str, schema_names: list, blobs: list) -> bytes:
    """Engine partial-state buffers as one checkpoint file image.

    ``blobs`` are :meth:`~repro.dsms.engine.QueryEngine.partial_state_bytes`
    buffers (one per engine/shard), stored raw.  The header records the
    query text and schema so a restore into a different plan fails fast
    with a clear error instead of a deep merge failure; the blobs
    themselves re-check both on merge.  The sealed body (DESIGN.md §6.4)
    is the two counts, a ``str`` column block (the SQL, then the schema
    names) and a ``bytes`` column block (the blobs).
    """
    texts = [sql, *schema_names]
    blobs = [bytes(blob) for blob in blobs]
    return seal(PARTIALS_CHECKPOINT, b"".join((
        _CKPT_COUNTS.pack(len(texts), len(blobs)),
        pack_column(texts),
        pack_column(blobs),
    )))


def read_partials_checkpoint(data) -> tuple[str, list, list]:
    """Parse a :func:`dump_partials_checkpoint` image: (sql, schema, blobs).

    Every defect raises :class:`ParameterError` naming the byte offset
    it was found at.
    """
    body = unseal(PARTIALS_CHECKPOINT, data)
    offset = _CKPT_COUNTS.size
    try:
        ntexts, nblobs = _CKPT_COUNTS.unpack_from(body)
        texts, offset = read_column(body, offset, ntexts)
        blobs, offset = read_column(body, offset, nblobs)
        if (offset != len(body) or set(map(type, texts)) != {str}
                or set(map(type, blobs)) - {bytes}):
            raise ProtocolError("expected a text and a blob column filling it")
    except (struct.error, ProtocolError) as exc:
        raise ParameterError(
            "malformed partials checkpoint at offset "
            f"{_HEAD.size + _FRAME.size + offset}: {exc}"
        ) from exc
    return texts[0], texts[1:], blobs


def load_partials_checkpoint(data, sql: str, schema_names: list) -> list:
    """Validate a checkpoint image against a plan; return its blobs.

    Raises :class:`ParameterError` as :func:`read_partials_checkpoint`
    does, and when the checkpoint was taken for a different query or
    schema.
    """
    stored_sql, stored_schema, blobs = read_partials_checkpoint(data)
    if stored_sql != sql:
        raise ParameterError(
            f"checkpoint is for a different query: {stored_sql!r} vs {sql!r}"
        )
    if stored_schema != list(schema_names):
        raise ParameterError(
            "checkpoint is for a different schema: "
            f"{stored_schema!r} vs {list(schema_names)!r}"
        )
    return blobs
