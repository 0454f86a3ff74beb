"""Store-backed serving: bounded RAM per engine, exact answers, manifest
checkpoints instead of blob files.

With ``store_dir`` set, the serve backends cap each engine's hot tier
and spill the rest to segment files — queries must still answer exactly,
and a server restart over the same directory must resume from the store
manifest with an *empty* blob checkpoint.
"""

from __future__ import annotations

import os

import pytest

from repro.core.errors import StoreError
from repro.serve import (
    CHECKPOINT_FILENAME,
    ServeClient,
    StreamServer,
    ThreadedServer,
    build_backend,
)
from repro.serve.protocol import rows_to_cols
from repro.store import MANIFEST_NAME
from repro.workloads.netflow import PACKET_SCHEMA
from tests.serve.util import SQL, canon, expected_rows, make_rows


def wide_rows(n: int) -> list[tuple]:
    """Rows spread over enough destIPs that a tiny hot budget must spill."""
    rows = []
    for row in make_rows(n):
        rows.append(row[:3] + (f"d{len(rows) % 97}",) + row[4:])
    return rows


class TestSingleBackend:
    def test_query_exact_with_spilling(self, tmp_path):
        rows = wide_rows(400)
        backend = build_backend(
            SQL, PACKET_SCHEMA, store_dir=str(tmp_path / "s"),
            store_hot_groups=8,
        )
        for i in range(0, len(rows), 64):
            backend.insert_cols(rows_to_cols(rows[i : i + 64]))
        stats = backend.stats()
        assert stats["store"]["cold_groups"] > 0
        assert stats["store"]["hot_groups"] <= 8
        assert canon(backend.query()) == canon(expected_rows(SQL, rows))
        backend.close()

    def test_checkpoint_goes_through_manifest(self, tmp_path):
        store_dir = str(tmp_path / "s")
        backend = build_backend(
            SQL, PACKET_SCHEMA, store_dir=store_dir, store_hot_groups=8,
        )
        backend.insert_cols(rows_to_cols(wide_rows(200)))
        assert backend.stats()["store"]["cold_groups"] > 0
        assert backend.checkpoint_blobs() == []
        assert os.path.exists(os.path.join(store_dir, MANIFEST_NAME))
        backend.close()

        resumed = build_backend(
            SQL, PACKET_SCHEMA, store_dir=store_dir, store_hot_groups=8,
        )
        assert canon(resumed.query()) == canon(
            expected_rows(SQL, wide_rows(200))
        )
        resumed.close()

    @pytest.mark.parametrize(
        "older, version",
        [("manifest", 1), ("manifest", 4), ("segment", 1), ("segment", 2),
         ("segment", 3), ("segment", 4), ("segment", 5)],
    )
    def test_an_older_store_dir_is_refused_naming_its_version(
        self, tmp_path, older, version
    ):
        # The way forward from older state is a fresh dir or a replay.
        store_dir = str(tmp_path / "s")
        backend = build_backend(
            SQL, PACKET_SCHEMA, store_dir=store_dir, store_hot_groups=8,
        )
        backend.insert_cols(rows_to_cols(wide_rows(200)))
        backend.checkpoint_blobs()
        backend.close()
        seg_dir = os.path.join(store_dir, "segments")
        paths = (
            [os.path.join(store_dir, MANIFEST_NAME)] if older == "manifest"
            else [os.path.join(seg_dir, name) for name in os.listdir(seg_dir)]
        )
        for path in paths:
            with open(path, "r+b") as handle:
                handle.seek(4)  # the version byte of the envelope's head
                handle.write(bytes([version]))
        with pytest.raises(
            StoreError, match=f"unsupported version {version} at offset 4 "
        ):
            build_backend(
                SQL, PACKET_SCHEMA, store_dir=store_dir, store_hot_groups=8,
            )
        # Refused, not quarantined: the older files stay where they were.
        assert not [
            name for _dir, _subdirs, names in os.walk(store_dir)
            for name in names if name.endswith(".quarantined")
        ]

    def test_storeless_checkpoint_blobs_unchanged(self):
        backend = build_backend(SQL, PACKET_SCHEMA)
        backend.insert_cols(rows_to_cols(make_rows(50)))
        assert backend.checkpoint_blobs() == backend.partial_blobs()
        backend.close()


class TestShardedBackend:
    def test_per_shard_stores_answer_exactly(self, tmp_path):
        rows = wide_rows(600)
        backend = build_backend(
            SQL, PACKET_SCHEMA, shards=3, processes=0,
            store_dir=str(tmp_path / "s"), store_hot_groups=8,
        )
        for i in range(0, len(rows), 64):
            backend.insert_cols(rows_to_cols(rows[i : i + 64]))
        assert canon(backend.query()) == canon(expected_rows(SQL, rows))
        backend.close()
        shard_dirs = sorted(os.listdir(tmp_path / "s"))
        assert shard_dirs == ["shard0", "shard1", "shard2"]
        for shard in shard_dirs:  # each shard spilled, beyond its checkpoint
            names = os.listdir(tmp_path / "s" / shard / "segments")
            assert any(not name.startswith("ckpt-") for name in names)


class TestServerIntegration:
    def serve(self, tmp_path, **kwargs) -> ThreadedServer:
        backend = build_backend(
            SQL, PACKET_SCHEMA,
            store_dir=str(tmp_path / "store"), store_hot_groups=8,
            **kwargs
        )
        return ThreadedServer(
            StreamServer(backend, state_dir=str(tmp_path / "state"))
        ).start()

    @pytest.mark.slow
    def test_restart_resumes_from_manifest(self, tmp_path):
        rows = wide_rows(300)

        server = self.serve(tmp_path)
        with ServeClient(server.host, server.port) as client:
            client.insert(rows[:150])
            client.flush()
        server.stop()
        # The blob checkpoint exists but is empty: durable state lives in
        # the store manifest.
        assert os.path.exists(tmp_path / "state" / CHECKPOINT_FILENAME)
        assert os.path.exists(tmp_path / "store" / MANIFEST_NAME)

        server = self.serve(tmp_path)
        with ServeClient(server.host, server.port) as client:
            stats = client.stats()
            assert stats["server"]["restored_blobs"] == 0
            assert stats["backend"]["tuples_in"] == 150
            assert stats["backend"]["store"]["cold_groups"] > 0
            client.insert(rows[150:])
            client.flush()
            resumed = client.query()
        server.stop()
        assert canon(resumed) == canon(expected_rows(SQL, rows))
