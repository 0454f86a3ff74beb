"""Every decoder of outside bytes, under one hostile sweep (tests/hostile.py).

Rows: the summary buffer, the payload tree, the column batch (full and
projected decode), the partial-state blob, ``checkpoint.bin``, a segment
file, a key-directory snapshot and a store manifest.  Each sealed format
also refuses every other version by number, and each deflated one every
lie a well-checksummed body can tell its inflater, within 1 MiB.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import struct
import zlib

import pytest

from repro.core import registry, serde
from repro.core.cols import pack_cols, unpack_cols
from repro.core.errors import MergeError, ParameterError, ProtocolError, StoreError
from repro.core.protocol import StreamSummary
from repro.core.serde import frame
from repro.core.tree import pack_tree, unpack_tree
from repro.dsms.engine import QueryEngine
from repro.dsms.parser import parse_query
from repro.dsms.udaf import default_registry
from repro.store import TieredStore
from repro.store.directory import KeyDirectory
from tests.core import test_cols_codec as cols_fixtures
from tests.core.test_protocol_conformance import (
    ALL_NAMES,
    GOLDEN,
    GOLDEN_DIR,
    feed,
    parameter_flips,
)
from tests.core.test_tree_codec import TestHostileInput as TreeFixtures
from tests.dsms.test_partial_codec import GOLDEN_BLOB, golden_engine, untouched
from tests.hostile import BYTE_MASKS, Row, any_value, bit_flips, sweep
from tests.serve.test_checkpoint import GOLDEN_IMAGE
from tests.store.test_format import (
    PLAIN,
    build_segment,
    pages_of,
    read_everything,
    segment_of,
)
from tests.store.test_tiered import BUILTIN_SQL, SCHEMA, checkpointed_store


def fed_summary(name: str) -> StreamSummary:
    info = registry.get_summary(name)
    summary = info.factory()
    feed(summary, info.input_kind, n=30)
    return summary


def summary_flips_row(name: str, tmp_path) -> Row:
    # Every bit of each scalar outside the payload's arrays (a flipped
    # parameter once sized gigabyte tables: the ceiling) and a stride of
    # bits over the buffer (the golden rows take every one).
    summary = fed_summary(name)
    blob = summary.to_bytes()
    head = blob[: 2 + blob[1]]
    damaged = [head + pack_tree(p) for p in parameter_flips(summary._state_payload())]
    stride = max(1, len(blob) * 8 // 400) | 1  # odd: every bit position
    damaged.extend(itertools.islice(bit_flips(blob), 0, None, stride))
    return Row(
        blob, StreamSummary.from_bytes, ParameterError, masks=(), cuts=False,
        extra=damaged, accept=any_value, headroom=32 << 20,
    )


def _shaped(decoded, _reference) -> bool:
    columns, _seq, count = decoded
    return all(len(column) == count for column in columns)


def cols_row(cols: list, tmp_path) -> Row:
    body = pack_cols(cols)  # each byte becomes 0x01, 0x80 and 0xFF
    assert list(map(repr, unpack_cols(body)[0])) == list(map(repr, cols))
    return Row(body, unpack_cols, ProtocolError, masks=(), values=BYTE_MASKS,
               accept=_shaped, ceiling=4 << 20)


def _projected(data: bytes):
    """A projected decode, which must accept whatever a full one does."""
    try:
        count = unpack_cols(data)[2]
    except ProtocolError:
        return unpack_cols(data, columns=())
    try:
        projected = unpack_cols(data, columns=())
    except ProtocolError as exc:
        raise AssertionError(f"refused unread, accepted read: {exc}") from exc
    assert projected[2] == count
    return projected


def projected_cols_row(cols: list, tmp_path) -> Row:
    body = pack_cols(cols)
    with pytest.raises(ProtocolError, match="trailing bytes"):
        unpack_cols(body + b"\x00", columns=())
    return Row(body, _projected, ProtocolError, masks=(), values=BYTE_MASKS,
               refuse=[body + b"\x00"], accept=_shaped)


def lies(stored: bytes) -> list[bytes]:
    """Damaged versions of a deflated body, each to be framed with its
    CRC recomputed so that the inflater, not the CRC, must refuse it."""
    (length,) = struct.unpack_from("<I", stored, 1)
    zeros = zlib.compressobj(1, zlib.DEFLATED, -15)
    return [
        *(stored[:1] + struct.pack("<I", n) + stored[5:]
          for n in (length - 1, length + 1, (1 << 32) - 1)),  # lengths that lie
        stored[:len(stored) // 2], stored[:-1],  # streams cut short
        stored + b"\x00",  # a byte after the stream's end
        b"\x02" + stored[1:],  # an unknown kind
        stored[:5] + b"\xff" + stored[6:],  # not a deflate stream
        # An honest stream that inflates past the growth bound.
        b"\x01" + struct.pack("<I", 1 << 20) + zeros.compress(bytes(1 << 20))
        + zeros.flush(),
    ]


def partial_blob_row(tmp_path) -> Row:
    def merged(engine, data):
        engine.merge_partial(data)
        return engine.partial_state_bytes()

    assert merged(golden_engine(), GOLDEN_BLOB) == GOLDEN_BLOB
    stored = GOLDEN_BLOB[13:]
    return Row(GOLDEN_BLOB, merged, MergeError, masks=BYTE_MASKS,
               refuse=[serde.envelope(serde.PARTIAL_STATE, lie) + lie
                       for lie in lies(stored)],
               fresh=golden_engine, untouched=untouched, refused_share=0.99)


def segment_row(tmp_path) -> Row:
    with open(build_segment(str(tmp_path / "f.seg")), "rb") as handle:
        data = handle.read()
    mutant = str(tmp_path / "mutant.seg")

    def decode(data: bytes) -> str:
        with open(mutant, "wb") as handle:
            handle.write(data)
        return repr(read_everything(mutant))

    index_head, ((stored, rows), *others) = pages_of(data)
    rest = [(frame(PLAIN, body), n) for body, n in others]
    return Row(data, decode, StoreError, masks=BYTE_MASKS, refused_share=0.99,
               refuse=[segment_of(index_head, [(frame(PLAIN, lie), rows), *rest])
                       for lie in lies(stored)],
               refusal=lambda error: error.segment == mutant
               and error.offset is not None and mutant in str(error))


def directory_snapshot_row(tmp_path) -> Row:
    # Of 4096 slots, cut at and flip the envelope, the table header, each
    # live slot and the last (empty) slot.
    directory = KeyDirectory(str(tmp_path / "keys.dir"))
    for n in range(4):
        directory.put(0x9E3779B97F4A7C15 * (n + 1) % (1 << 64), n % 3, 64 * n, 40)
    snap, work = str(tmp_path / "keys-000001.dir"), str(tmp_path / "work.dir")
    directory.publish_snapshot(snap)
    directory.close()
    image = (tmp_path / "keys-000001.dir").read_bytes()

    def decode(data: bytes):
        with open(snap, "wb") as handle:
            handle.write(data)
        restored = KeyDirectory.open_snapshot(snap, work)
        try:
            return restored.capacity, sorted(restored.items())
        finally:
            restored.close()

    live = [  # past envelope (13) and header (24); empty slots' segment is 0
        at for at in range(37, len(image), 24) if image[at + 16:at + 20] != bytes(4)
    ]
    assert len(live) == 4
    positions = sorted({*range(37), *(at + i for at in live for i in range(24)),
                        *range(len(image) - 24, len(image))})
    table = bytes(serde.unseal(serde.DIRECTORY_SNAPSHOT, image))
    return Row(image, decode, StoreError, positions=positions,
               refuse=[serde.seal(serde.DIRECTORY_SNAPSHOT, table[:-24])],  # shape
               refusal=lambda error: error.segment == snap)


def manifest_row(tmp_path) -> Row:
    directory = str(tmp_path / "s")
    manifest_path = checkpointed_store(directory)
    with open(manifest_path, "rb") as handle:
        image = handle.read()
    query = parse_query(BUILTIN_SQL, default_registry())

    def recovered(_files, data: bytes):
        with open(manifest_path, "wb") as handle:
            handle.write(data)
        store = TieredStore(directory, hot_groups=4)
        try:
            engine = QueryEngine(query, SCHEMA, store=store)
            return engine.tuples_processed, engine.group_count
        finally:
            store.close()

    return Row(
        image, recovered, StoreError,
        fresh=lambda: sorted(os.walk(directory)),
        untouched=lambda files: sorted(os.walk(directory)) == files,
        refusal=lambda error: error.segment == manifest_path
        and manifest_path in str(error),
    )


p = functools.partial
KINDS = {"every-kind": cols_fixtures.EVERY_KIND_COLS,
         "wide-dict": cols_fixtures.WIDE_DICT_COLS}
ROWS = {
    **{f"summary-cuts-{name}": lambda _, name=name: Row(
        fed_summary(name).to_bytes(), StreamSummary.from_bytes, ParameterError,
        masks=()) for name in ALL_NAMES},
    **{f"summary-flips-{name}": p(summary_flips_row, name) for name in ALL_NAMES},
    **{f"summary-golden-{name}": lambda _, name=name: Row(
        (GOLDEN_DIR / f"{name}.v4").read_bytes(),
        StreamSummary.from_bytes, ParameterError, accept=any_value)
       for name in GOLDEN},
    **{f"tree-{index}": lambda _, data=data: Row(
        data, unpack_tree, ParameterError, refuse=[data + b"\x00"],
        accept=any_value) for index, data in enumerate(TreeFixtures.BUFFERS)},
    **{f"cols-{label}": p(cols_row, cols) for label, cols in KINDS.items()},
    **{f"cols-projected-{label}": p(projected_cols_row, cols)
       for label, cols in KINDS.items()},
    **{f"cols-cuts-{label}": lambda _, label=label: Row(
        getattr(cols_fixtures, label), unpack_cols, ProtocolError, masks=())
       for label in ("GOLDEN_BODY", "GOLDEN_BYTES_BODY", "GOLDEN_BYTES_BODY_V2",
                     "GOLDEN_DICT_BODY", "GOLDEN_HEAD_BODY", "GOLDEN_HEAD_DICT_BODY")},
    "partial-blob": partial_blob_row,
    "checkpoint": lambda _: Row(
        GOLDEN_IMAGE, serde.read_partials_checkpoint, ParameterError,
        masks=BYTE_MASKS, refusal=lambda error: "offset" in str(error),
        refused_share=0.99),
    "segment-file": segment_row,
    "directory-snapshot": directory_snapshot_row,
    "manifest": manifest_row,
}
SEALED = {"partial-blob": serde.PARTIAL_STATE, "checkpoint": serde.PARTIALS_CHECKPOINT,
          "segment-file": serde.SEGMENT, "manifest": serde.STORE_MANIFEST,
          "directory-snapshot": serde.DIRECTORY_SNAPSHOT}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.chaos) if name == "segment-file"
    else name for name in ROWS
])
def test_every_mutant_is_refused_or_decoded_alike(name, tmp_path):
    sweep(ROWS[name](tmp_path))


@pytest.mark.parametrize("name", ["partial-blob", "segment-file"])
def test_a_lying_deflated_body_is_refused_before_it_allocates(name, tmp_path):
    row = ROWS[name](tmp_path)
    assert len(row.refuse) == 9
    sweep(dataclasses.replace(row, cuts=False, masks=(), refused_share=1.0,
                              ceiling=1 << 20))


@pytest.mark.parametrize("name, version", [
    (name, version) for name, fmt in SEALED.items()
    for version in (*range(fmt.version), fmt.version + 1, 255)
])
def test_every_other_version_is_refused_by_number(name, version, tmp_path):
    row = ROWS[name](tmp_path)
    assert row.data[:5] == serde.head(SEALED[name])
    sweep(dataclasses.replace(
        row, cuts=False, masks=(), refused_share=1.0,
        refuse=[row.data[:4] + bytes([version]) + row.data[5:]],
        refusal=lambda error: (row.refusal is None or row.refusal(error))
        and f"unsupported version {version} at offset 4 " in str(error),
    ))
