"""Checkpoint → restart → resume: served state survives a server death.

The acceptance bar is *byte-identical results*: a stream split across a
shutdown/restart must answer exactly like an uninterrupted run, for both
the single and the sharded backend.
"""

from __future__ import annotations

import os

import pytest

from repro.core.errors import ParameterError
from repro.core.serde import (
    PARTIALS_CHECKPOINT_VERSION,
    dump_partials_checkpoint,
    load_partials_checkpoint,
    read_partials_checkpoint,
)
from repro.serve import (
    CHECKPOINT_FILENAME,
    ServeClient,
    StreamServer,
    ThreadedServer,
    build_backend,
)
from repro.workloads.netflow import PACKET_SCHEMA
from tests.serve.util import SQL, canon, expected_rows, make_rows


def serve_with_state(state_dir, shards: int = 0) -> ThreadedServer:
    backend = build_backend(SQL, PACKET_SCHEMA, shards=shards, processes=0)
    return ThreadedServer(
        StreamServer(backend, state_dir=str(state_dir))
    ).start()


class TestGracefulShutdownCheckpoint:
    @pytest.mark.parametrize("shards", [0, 4])
    def test_restart_resumes_byte_identical(self, tmp_path, shards):
        rows = make_rows(240)

        server = serve_with_state(tmp_path, shards)
        with ServeClient(server.host, server.port) as client:
            client.insert(rows[:120])
            client.flush()
        path = server.stop()
        assert path == str(tmp_path / CHECKPOINT_FILENAME)
        assert os.path.exists(path)

        server = serve_with_state(tmp_path, shards)
        with ServeClient(server.host, server.port) as client:
            stats = client.stats()
            assert stats["server"]["restored_blobs"] == (shards or 1)
            client.insert(rows[120:])
            client.flush()
            resumed = client.query()
        server.stop()

        # byte-identical: same canonical reprs as one uninterrupted run
        assert canon(resumed) == canon(expected_rows(SQL, rows))

    def test_double_restart_chains_checkpoints(self, tmp_path):
        rows = make_rows(300)
        thirds = [rows[:100], rows[100:200], rows[200:]]
        for chunk in thirds:
            server = serve_with_state(tmp_path, shards=2)
            with ServeClient(server.host, server.port) as client:
                client.insert(chunk)
                client.flush()
                final = client.query()
            server.stop()
        assert canon(final) == canon(expected_rows(SQL, rows))

    def test_stop_is_idempotent(self, tmp_path):
        server = serve_with_state(tmp_path)
        assert server.stop() is not None
        assert server.stop() is None  # second stop: thread already gone


class TestExplicitCheckpointFrame:
    def test_checkpoint_frame_writes_and_reports(self, tmp_path):
        rows = make_rows(80)
        server = serve_with_state(tmp_path, shards=2)
        try:
            with ServeClient(server.host, server.port) as client:
                client.insert(rows)
                client.flush()
                info = client.checkpoint()
                assert info["path"] == str(tmp_path / CHECKPOINT_FILENAME)
                assert info["bytes"] == os.path.getsize(info["path"])
        finally:
            server.stop()

    def test_stats_frame_shows_checkpoint_volume_and_time(self, tmp_path):
        from repro.obs.registry import MetricsRegistry

        backend = build_backend(SQL, PACKET_SCHEMA)
        server = ThreadedServer(StreamServer(
            backend, state_dir=str(tmp_path),
            metrics=MetricsRegistry(enabled=True),
        )).start()
        try:
            with ServeClient(server.host, server.port) as client:
                client.insert(make_rows(80))
                client.flush()
                info = client.checkpoint()
                metrics = client.stats()["metrics"]["metrics"]
        finally:
            server.stop()
        assert metrics["serve.checkpoint.bytes"]["value"] == info["bytes"]
        assert metrics["serve.frame.CHECKPOINT.us"]["count"] == 1

    def test_explicit_checkpoint_survives_hard_kill(self, tmp_path):
        """CHECKPOINT then *no* graceful stop: restore still works.

        Simulates a crash after the last explicit checkpoint — the rows
        ingested before the CHECKPOINT frame survive; nothing after it
        was promised.
        """
        rows = make_rows(160)
        server = serve_with_state(tmp_path, shards=2)
        with ServeClient(server.host, server.port) as client:
            client.insert(rows[:80])
            client.flush()
            client.checkpoint()
        # hard kill: drop the thread's loop without StreamServer.stop()
        server._loop.call_soon_threadsafe(server._loop.stop)
        server._thread.join(timeout=30)

        server = serve_with_state(tmp_path, shards=2)
        with ServeClient(server.host, server.port) as client:
            client.insert(rows[80:])
            client.flush()
            resumed = client.query()
        server.stop()
        assert canon(resumed) == canon(expected_rows(SQL, rows))


class TestCheckpointEnvelope:
    def test_roundtrip(self):
        blobs = [b"\x01one", b"\x01two"]
        image = dump_partials_checkpoint(SQL, PACKET_SCHEMA.names(), blobs)
        assert image[:4] == b"FDCK"
        assert image[4] == PARTIALS_CHECKPOINT_VERSION
        restored = load_partials_checkpoint(
            image, SQL, PACKET_SCHEMA.names()
        )
        assert restored == blobs

    def test_blobs_are_stored_raw(self):
        image = dump_partials_checkpoint(
            SQL, PACKET_SCHEMA.names(), [b"\x00\xff raw"]
        )
        assert b"\x00\xff raw" in image
        assert read_partials_checkpoint(image) == (
            SQL, PACKET_SCHEMA.names(), [b"\x00\xff raw"]
        )

    def test_wrong_query_rejected(self):
        image = dump_partials_checkpoint(SQL, PACKET_SCHEMA.names(), [])
        with pytest.raises(ParameterError, match="different query"):
            load_partials_checkpoint(
                image, "select x from TCP group by x", PACKET_SCHEMA.names()
            )

    def test_wrong_schema_rejected(self):
        image = dump_partials_checkpoint(SQL, PACKET_SCHEMA.names(), [])
        with pytest.raises(ParameterError, match="different schema"):
            load_partials_checkpoint(image, SQL, ["a", "b"])

    # Another magic or version: tests/test_hostile.py.

    def test_restore_for_other_query_fails_at_startup(self, tmp_path):
        server = serve_with_state(tmp_path)
        with ServeClient(server.host, server.port) as client:
            client.insert(make_rows(10))
            client.flush()
        server.stop()

        other = build_backend(
            "select destIP, count(*) as c from TCP group by destIP",
            PACKET_SCHEMA,
        )
        with pytest.raises(ParameterError, match="different query"):
            ThreadedServer(
                StreamServer(other, state_dir=str(tmp_path))
            ).start()


GOLDEN_SQL = "select k, count(*) as c from TCP group by k"
GOLDEN_SCHEMA = ["time", "k"]
GOLDEN_BLOBS = [b"\x02state-a", b"", b"\x02b"]
GOLDEN_IMAGE = bytes.fromhex(
    "4644434b" "03"                    # "FDCK", v3
    "62000000" "6d65def0"              # body: 98 bytes, its crc32
    "0003" "00000003"                  # 3 texts, 3 blobs
    "03" "0000003c"                    # texts: str column, 60 bytes
    "0000002b" "00000004" "00000001"   # byte lengths
    "73656c656374206b2c20636f756e74282a2920617320632066726f6d2054435020"
    "67726f7570206279206b" "74696d65" "6b"
    "05" "00000016"                    # blobs: bytes column, 22 bytes
    "00000008" "00000000" "00000002"
    "0273746174652d61" "0262"
)
#: The same checkpoint as the writer lays it out now: both length tables at
#: u8.  GOLDEN_IMAGE holds the widest column kinds, and must keep reading back.
GOLDEN_IMAGE_NARROW = bytes.fromhex(
    "4644434b" "03"                    # "FDCK", v3
    "50000000" "9bae4513"              # body: 80 bytes, its crc32
    "0003" "00000003"                  # 3 texts, 3 blobs
    "23" "00000033"                    # texts: str/u8 column, 51 bytes
    "2b" "04" "01"                     # byte lengths
    "73656c656374206b2c20636f756e74282a2920617320632066726f6d2054435020"
    "67726f7570206279206b" "74696d65" "6b"
    "25" "0000000d"                    # blobs: bytes/u8 column, 13 bytes
    "08" "00" "02"
    "0273746174652d61" "0262"
)


class TestCheckpointBytes:
    def test_writer_matches_fixture(self):
        image = dump_partials_checkpoint(GOLDEN_SQL, GOLDEN_SCHEMA, GOLDEN_BLOBS)
        assert image == GOLDEN_IMAGE_NARROW

    @pytest.mark.parametrize("image", [GOLDEN_IMAGE, GOLDEN_IMAGE_NARROW])
    def test_fixture_reads_back(self, image):
        assert read_partials_checkpoint(image) == (
            GOLDEN_SQL, GOLDEN_SCHEMA, GOLDEN_BLOBS
        )

    # Every truncation and flip of GOLDEN_IMAGE: tests/test_hostile.py.


class TestUnreadableStateDir:
    """A state dir the server cannot restore must fail start-up loudly."""

    def _checkpointed(self, tmp_path) -> str:
        server = serve_with_state(tmp_path)
        with ServeClient(server.host, server.port) as client:
            client.insert(make_rows(60))
            client.flush()
        return server.stop()

    def _start(self, tmp_path):
        backend = build_backend(SQL, PACKET_SCHEMA)
        return ThreadedServer(
            StreamServer(backend, state_dir=str(tmp_path))
        ).start()

    @pytest.mark.parametrize(
        "damage, offset",
        [
            (lambda image: b"XXXX" + image[4:], "offset 0"),  # magic
            (lambda image: image[:-9], "truncated at offset 5"),  # length
            (  # one flipped bit mid-file
                lambda image: image[:200]
                + bytes([image[200] ^ 0x10]) + image[201:],
                "fails its CRC32 at offset 5",
            ),
        ],
    )
    def test_corrupt_checkpoint_fails_startup(self, tmp_path, damage, offset):
        path = self._checkpointed(tmp_path)
        with open(path, "rb") as handle:
            image = handle.read()
        with open(path, "wb") as handle:
            handle.write(damage(image))
        with pytest.raises(ParameterError) as excinfo:
            self._start(tmp_path)
        assert path in str(excinfo.value)
        assert offset in str(excinfo.value)

    def test_legacy_json_checkpoint_is_refused(self, tmp_path):
        legacy = tmp_path / "checkpoint.json"
        legacy.write_text('{"version": 1, "kind": "engine-partials"}')
        with pytest.raises(ParameterError, match="checkpoint.json"):
            self._start(tmp_path)
        # ...but not once a current checkpoint sits beside it.
        legacy.unlink()
        self._checkpointed(tmp_path)
        legacy.write_text("{}")
        self._start(tmp_path).stop()
