"""Engine checkpoint files: the partial-state checkpoint image.

A server persists its engines' :meth:`~repro.dsms.engine.QueryEngine.
partial_state_bytes` buffers as one CRC-checked file
(:func:`dump_partials_checkpoint`) and restores from it
(:func:`load_partials_checkpoint`).  A single summary's one codec is
:meth:`~repro.core.protocol.StreamSummary.to_bytes` /
:meth:`~repro.core.protocol.StreamSummary.from_bytes`.
"""

from __future__ import annotations

import os
import struct
import zlib

from repro.core.cols import pack_column, read_column
from repro.core.errors import ParameterError, ProtocolError

__all__ = [
    "fsync_dir",
    "dump_partials_checkpoint",
    "read_partials_checkpoint",
    "load_partials_checkpoint",
    "PARTIALS_CHECKPOINT_VERSION",
    "CHECKPOINT_FILENAME",
]


def fsync_dir(directory: str) -> None:
    """fsync a directory so a rename/creation inside it survives power loss."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# -- engine partial-state checkpoints ----------------------------------------------

PARTIALS_CHECKPOINT_VERSION = 2

#: Name of the :func:`dump_partials_checkpoint` image inside a server's
#: ``state_dir`` — what a server restores from and a crash harness reads.
CHECKPOINT_FILENAME = "checkpoint.bin"

_CKPT_MAGIC = b"FDCK"
#: magic, version, header texts (query SQL + schema names), blob count.
_CKPT_HEAD = struct.Struct("!4sBHI")
_CKPT_CRC = struct.Struct("!I")


def dump_partials_checkpoint(sql: str, schema_names: list, blobs: list) -> bytes:
    """Engine partial-state buffers as one checkpoint file image.

    ``blobs`` are :meth:`~repro.dsms.engine.QueryEngine.partial_state_bytes`
    buffers (one per engine/shard), stored raw.  The header records the
    query text and schema so a restore into a different plan fails fast
    with a clear error instead of a deep merge failure; the blobs
    themselves re-check both on merge.  Layout (DESIGN.md §6.4 has the
    diagram): ``"FDCK"``, version, the two counts, a ``str`` column block
    (the SQL, then the schema names), a ``bytes`` column block (the
    blobs), and the CRC32 of everything before it.
    """
    texts = [sql, *schema_names]
    blobs = [bytes(blob) for blob in blobs]
    body = (
        _CKPT_HEAD.pack(
            _CKPT_MAGIC, PARTIALS_CHECKPOINT_VERSION, len(texts), len(blobs)
        )
        + pack_column(texts)
        + pack_column(blobs)
    )
    return body + _CKPT_CRC.pack(zlib.crc32(body))


def read_partials_checkpoint(data) -> tuple[str, list, list]:
    """Parse a :func:`dump_partials_checkpoint` image: (sql, schema, blobs).

    Every defect — wrong magic or version, a length that runs past the
    end, a CRC mismatch — raises :class:`ParameterError` naming the byte
    offset it was found at.
    """
    view = memoryview(data)
    tail = len(view) - _CKPT_CRC.size
    if tail < _CKPT_HEAD.size:
        raise ParameterError(
            f"truncated partials checkpoint: {len(view)} bytes at offset 0"
        )
    magic, version, ntexts, nblobs = _CKPT_HEAD.unpack_from(view)
    if magic != _CKPT_MAGIC:
        raise ParameterError(
            f"not a partials checkpoint: magic {magic!r} at offset 0"
        )
    if version != PARTIALS_CHECKPOINT_VERSION:
        raise ParameterError(
            f"unsupported partials checkpoint version {version} at offset "
            f"{len(_CKPT_MAGIC)} (expected {PARTIALS_CHECKPOINT_VERSION})"
        )
    if zlib.crc32(view[:tail]) != _CKPT_CRC.unpack_from(view, tail)[0]:
        raise ParameterError(
            f"partials checkpoint fails its CRC32 at offset {tail} "
            "(truncated or corrupt)"
        )
    offset = _CKPT_HEAD.size
    try:
        texts, offset = read_column(view[:tail], offset, ntexts)
        blobs, offset = read_column(view[:tail], offset, nblobs)
    except ProtocolError as exc:
        raise ParameterError(
            f"malformed partials checkpoint at offset {offset}: {exc}"
        ) from exc
    if (
        offset != tail
        or set(map(type, texts)) != {str}
        or set(map(type, blobs)) - {bytes}
    ):
        raise ParameterError(
            f"malformed partials checkpoint at offset {offset}: expected "
            "a text and a blob column filling the file"
        )
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
