"""``repro store upgrade``: old store directories are carried forward, once.

The store reads one segment format.  Everything written before it — the
version-1 JSON and version-2 tagged-record segments, the manifest that
embedded its directory, summary buffers in the JSON layout — has to come
through :mod:`repro.store.upgrade` and lose nothing: the upgraded
directory resumes, its blob equals the all-RAM engine's byte for byte,
and it flushes to the same rows.  The fixtures are bytes as those commits
wrote them: the golden segments ``tests/store/test_format.py`` pinned
before this format, and whole store directories written by the parent
commit (``fixtures/make_fixtures.py`` says how).
"""

from __future__ import annotations

import binascii
import json
import os
import shutil
import struct
import tarfile

import pytest

from repro.cli import main
from repro.core.errors import StoreError
from repro.core.protocol import StreamSummary
from repro.core.tree import unpack_tree
from repro.dsms.engine import QueryEngine
from repro.dsms.parser import parse_query
from repro.dsms.udaf import default_registry
from repro.store import (
    MANIFEST_NAME,
    KeyDirectory,
    SegmentReader,
    TieredStore,
    canonical_key,
    read_record_at,
)
from repro.store.segment import key_hash
from repro.store.upgrade import upgrade_store, upgrade_tree
from repro.workloads.netflow import PACKET_SCHEMA
from tests.store.fixtures.make_fixtures import LOW_TABLE_SIZE, QUERIES, make_rows

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: The records and bytes tests/store/test_format.py pinned for segment
#: versions 1 and 2 (every scalar tag: i64, f64, str, and the JSON
#: fallback for a bool state value and a None key part).
RECORDS = [
    ([["int", 7], ["str", "h-alpha"]],
     [["plain", [3, 40.5, "x", True]]]),
    ([["float", 2.5], ["literal", None]],
     [["plain", []], ["plain", [-1]]]),
]
GOLDEN = {
    1: (
        "52534547014b00000076c9f2bd7b226b223a5b5b22696e74222c375d2c5b2273"
        "7472222c22682d616c706861225d5d2c2273223a5b5b22706c61696e222c5b33"
        "2c34302e352c2278222c747275655d5d5d2c2267223a337d4e000000d35446eb"
        "7b226b223a5b5b22666c6f6174222c322e355d2c5b226c69746572616c222c6e"
        "756c6c5d5d2c2273223a5b5b22706c61696e222c5b5d5d2c5b22706c61696e22"
        "2c5b2d315d5d5d2c2267223a307d7f00000048223ba17b2276657273696f6e22"
        "3a312c227265636f726473223a322c22696e646578223a7b225b5b5c22696e74"
        "5c222c375d2c5b5c227374725c222c5c22682d616c7068615c225d5d223a5b35"
        "2c38335d2c225b5b5c22666c6f61745c222c322e355d2c5b5c226c6974657261"
        "6c5c222c6e756c6c5d5d223a5b38382c38365d7d7dae00000000000000474553"
        "52"
    ),
    2: (
        "525345470248000000d4e69add02030000000000000002000107000000000000"
        "000307000000682d616c70686101000104000000010300000000000000020000"
        "0000004044400301000000780004000000747275653e0000006cb9e88f020000"
        "000000000000020002000000000000044000100000005b226c69746572616c22"
        "2c6e756c6c5d02000100000000010100000001ffffffffffffffff3400000083"
        "3b583a0200000002000000000000009ab6c36ccf0dcd0a050000000000000050"
        "000000f846b76edea2a6f05500000000000000460000009b0000000000000047"
        "455352"
    ),
}

STORES = {
    "store_countsum_pr15": "countsum",
    "store_countsum_v1": "countsum",
    "store_sketch_pr15": "sketch",
    "store_sketch_v1buffers_pr15": "sketch",
}


def unpack(name: str, tmp_path, fixtures: str = FIXTURES) -> str:
    with tarfile.open(os.path.join(fixtures, name + ".tar.gz")) as tar:
        if hasattr(tarfile, "data_filter"):  # 3.12, and the security backports
            tar.extractall(tmp_path, filter="data")
        else:
            tar.extractall(tmp_path)
    return str(tmp_path / name)


def build_engine(query: str, store=None) -> QueryEngine:
    return QueryEngine(
        parse_query(QUERIES[query][0], default_registry()), PACKET_SCHEMA,
        store=store, low_table_size=LOW_TABLE_SIZE,
    )


#: Where ``prisamp`` sits among the sketch query's aggregates.
SAMPLER_SLOT = 2


def states_of(engine: QueryEngine) -> dict:
    """``key -> states`` out of the engine's blob, each summary as the
    payload tree its buffer decodes to."""
    keys, states, _bucket, _counters = engine._decode_partial(
        engine.partial_state_bytes()
    )
    return {
        key: [
            s._state_payload() if isinstance(s, StreamSummary) else s for s in row
        ]
        for key, row in zip(keys, states)
    }


def assert_same_but_for_the_draws(mine: dict, theirs: dict) -> None:
    """Equal group for group and slot for slot, the sampler's slot in
    what the rows alone decide (the counts, not the draws)."""
    assert list(mine) == list(theirs)
    for key in mine:
        for slot, (ours, other) in enumerate(zip(mine[key], theirs[key])):
            if slot == SAMPLER_SLOT:
                ours, other = (
                    [state[f] for f in ("k", "seen", "tiebreak")]
                    + [len(state["heap"])]
                    for state in (ours, other)
                )
            assert ours == other, (key, slot)


def fixture_sampler_payloads(scratch) -> dict:
    """``key -> prisamp payload`` exactly as the PR 15 commit packed it:
    ``store_sketch_pr15``'s version-2 buffers, which the upgrade carries
    raw (``store_sketch_v1buffers_pr15`` is the same run in JSON)."""
    directory = unpack("store_sketch_pr15", scratch)
    upgrade_store(directory)
    store = TieredStore(directory)
    build_engine("sketch", store)  # attaches: the directory is recovered
    try:
        buffers = {key: row[SAMPLER_SLOT] for key, row in store.cold_groups()}
    finally:
        store.close()
    payloads = {
        key: unpack_tree(data[2 + data[1]:]) for key, data in buffers.items()
    }
    assert all(len(p["rng"][1]) == 625 for p in payloads.values())
    return payloads


def listing(directory: str) -> dict:
    return {
        os.path.relpath(os.path.join(root, name), directory):
            open(os.path.join(root, name), "rb").read()
        for root, _dirs, names in os.walk(directory) for name in names
    }


class TestGoldenSegments:
    """The version-1 / version-2 bytes a user's disk may hold, wrapped in
    the manifest form of their day."""

    def golden_store(self, tmp_path, version: int) -> str:
        directory = str(tmp_path / f"v{version}")
        os.makedirs(os.path.join(directory, "segments"))
        data = binascii.unhexlify(GOLDEN[version])
        with open(os.path.join(directory, "segments", "000000.seg"), "wb") as out:
            out.write(data)
        locations, offset = [], 5
        for _ in RECORDS:
            length = 8 + struct.unpack_from("<I", data, offset)[0]
            locations.append((offset, length))
            offset += length
        manifest = {
            "version": version, "query": "q", "schema": [], "tuples_in": 2,
            "tuples_selected": 2, "low_evictions": 0, "bucket": None,
            "segments": ["000000.seg"],
        }
        if version == 1:
            manifest["directory"] = {
                canonical_key(key): ["000000.seg", *location]
                for (key, _s), location in zip(RECORDS, locations)
            }
        else:
            snapshot = KeyDirectory(os.path.join(directory, "keys-000001.dir"))
            for (key, _s), location in zip(RECORDS, locations):
                snapshot.put(key_hash(canonical_key(key)), 0, *location)
            snapshot.close()
            manifest.update(directory_file="keys-000001.dir", directory_entries=2)
        with open(os.path.join(directory, MANIFEST_NAME), "w") as out:
            json.dump(manifest, out)
        return directory

    @pytest.mark.parametrize("version", [1, 2])
    def test_golden_bytes_come_through_as_pages(self, tmp_path, version):
        directory = self.golden_store(tmp_path, version)
        report = upgrade_store(directory)
        assert report["status"] == "upgraded" and report["groups"] == 2
        assert report["from"] == {"manifest": version, "segments": [version]}
        with open(os.path.join(directory, MANIFEST_NAME)) as handle:
            manifest = json.load(handle)
        assert manifest["version"] == 2 and "directory" not in manifest
        (name,) = manifest["segments"]
        assert os.listdir(os.path.join(directory, "segments")) == [name]
        reader = SegmentReader(os.path.join(directory, "segments", name))
        assert reader.version == 3
        # The two records are not one query's groups: a page holds rows
        # of one slot layout, so each got its own.
        assert [rows for _o, _l, rows in reader.pages] == [1, 1]
        records = sorted(
            (
                read_record_at(reader.path, offset, length)
                for offset, length, _rows in reader.pages
            ),
            key=lambda record: repr(record["k"]),
        )
        assert [(r["k"], r["s"]) for r in records] == sorted(
            RECORDS, key=lambda record: repr(record[0])
        )
        assert repr(records[1]["s"]) == repr(RECORDS[0][1])  # True is not 1
        snapshot = KeyDirectory(os.path.join(directory, manifest["directory_file"]))
        try:
            for key, _states in RECORDS:
                ((seg, _off, _len),) = snapshot.lookup(key_hash(canonical_key(key)))
                assert seg == int(name.split(".")[0])
        finally:
            snapshot.close()

    def test_a_damaged_old_record_stops_the_upgrade_untouched(self, tmp_path):
        directory = self.golden_store(tmp_path, 2)
        path = os.path.join(directory, "segments", "000000.seg")
        with open(path, "r+b") as handle:
            handle.seek(20)
            byte = handle.read(1)
            handle.seek(20)
            handle.write(bytes([byte[0] ^ 0xFF]))
        before = listing(directory)
        with pytest.raises(StoreError, match="CRC mismatch") as excinfo:
            upgrade_store(directory)
        assert excinfo.value.segment == path and excinfo.value.offset == 5
        assert listing(directory) == before


@pytest.mark.parametrize("name", STORES)
class TestStoreDirectories:
    def test_an_old_directory_is_refused_with_the_command(self, tmp_path, name):
        directory = unpack(name, tmp_path)
        before = listing(directory)
        with pytest.raises(StoreError, match="repro store upgrade") as excinfo:
            build_engine(STORES[name], TieredStore(directory))
        assert excinfo.value.segment.startswith(directory)
        assert listing(directory) == before  # refused, not wiped

    def test_upgraded_directory_resumes_byte_identically(self, tmp_path, name):
        query = STORES[name]
        _sql, n, dests, hot = QUERIES[query]
        rows = make_rows(n, dests)
        directory = unpack(name, tmp_path)
        (report,) = upgrade_tree(str(tmp_path))
        assert report["status"] == "upgraded"
        assert report["bytes_after"] < report["bytes_before"]
        twin_directory = shutil.copytree(directory, tmp_path / "twin")

        reference = build_engine(query)
        reference.insert_many(rows[: n // 2])
        store = TieredStore(directory, hot_groups=hot)
        engine = build_engine(query, store)
        assert engine.tuples_processed == n // 2
        assert store.cold_count == report["groups"] == reference.group_count
        if query == "sketch":
            # The one state a fresh engine cannot redraw: these samples
            # came out of a Mersenne Twister no commit still runs.
            twin = build_engine(query, TieredStore(twin_directory, hot_groups=hot))
            self.resumes_with_the_fixtures_own_sample(
                tmp_path, engine, twin, reference, rows[n // 2:]
            )
            return
        assert engine.partial_state_bytes() == reference.partial_state_bytes()
        engine.insert_many(rows[n // 2:])
        reference.insert_many(rows[n // 2:])
        assert engine.partial_state_bytes() == reference.partial_state_bytes()
        assert engine.flush() == reference.flush()

    def resumes_with_the_fixtures_own_sample(
        self, tmp_path, engine, twin, reference, rest
    ):
        """Every column but the ``prisamp`` slot equals the fresh
        engine's; that slot holds the sample, ``seen``, ``log_tau`` and
        tiebreak the PR 15 commit wrote, and two loads of the directory
        continue it identically."""
        own = fixture_sampler_payloads(tmp_path / "own")
        restored = states_of(engine)
        assert_same_but_for_the_draws(restored, states_of(reference))
        assert restored.keys() == own.keys()
        for key, states in restored.items():
            sampler = states[SAMPLER_SLOT]
            for field in ("k", "seen", "tiebreak", "log_tau", "heap"):
                assert sampler[field] == own[key][field], (key, field)
            assert sampler["rng"][1] == 0  # keyed from here on
        for each in (engine, twin, reference):
            each.insert_many(rest)
        assert engine.partial_state_bytes() == twin.partial_state_bytes()
        assert_same_but_for_the_draws(states_of(engine), states_of(reference))
        rows, twin_rows, expected = engine.flush(), twin.flush(), reference.flush()
        assert rows == twin_rows
        sizes = [[len(row.pop("samp")) for row in out] for out in (rows, expected)]
        assert sizes[0] == sizes[1] and rows == expected

    def test_upgrade_is_idempotent(self, tmp_path, name):
        directory = unpack(name, tmp_path)
        assert upgrade_store(directory)["status"] == "upgraded"
        once = listing(directory)
        assert upgrade_store(directory) == {
            "directory": directory, "status": "current",
        }
        assert listing(directory) == once


class TestCommand:
    def test_store_upgrade_walks_a_state_dir(self, tmp_path, capsys):
        # A --store-dir keeps one store per shard below it.
        for shard, name in enumerate(("store_countsum_pr15", "store_countsum_v1")):
            os.rename(unpack(name, tmp_path), tmp_path / f"shard{shard}")
        assert main(["store", "upgrade", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("upgraded") == 2 and "B/group" in out
        assert main(["store", "upgrade", str(tmp_path), "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["status"] for r in reports] == ["current", "current"]
        assert main(["store", "inspect", str(tmp_path / "shard0")]) == 0
        assert "v3" in capsys.readouterr().out

    def test_nothing_to_upgrade(self, tmp_path, capsys):
        assert main(["store", "upgrade", str(tmp_path)]) == 0
        assert "no store directory" in capsys.readouterr().out
        assert main(["store", "upgrade", str(tmp_path / "nope")]) == 2
        assert upgrade_store(str(tmp_path)) == {
            "directory": str(tmp_path), "status": "empty",
        }
