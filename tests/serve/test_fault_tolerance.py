"""Fault tolerance across the serving stack.

Three failure domains, each with its own contract:

- **Server**: periodic background checkpoints (atomic write-then-rename)
  bound what a SIGKILL can lose to one checkpoint interval; a restart on
  the same state dir resumes from the last *completed* checkpoint,
  byte-identically.
- **Client**: a transport error marks the client dead — every later call
  fails fast with the same structured :class:`ClientConnectionError` —
  unless retries are enabled, in which case the client reconnects with
  backoff and replays exactly its unacknowledged batches by ``seq``.
- **Both**: ``close()`` is idempotent and exception-free however the
  connection died.

Real-subprocess crash scenarios (SIGKILL of an actual ``repro serve``
process via :mod:`repro.testing.chaos`) are marked ``slow`` + ``chaos``;
everything else runs in-process and fast.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.errors import ParameterError
from repro.serve import (
    AsyncServeClient,
    ClientConnectionError,
    RemoteError,
    ServeClient,
    StreamServer,
    ThreadedServer,
    build_backend,
)
from repro.testing import ServerProcess, wait_until
from repro.workloads.netflow import PACKET_SCHEMA
from tests.serve.util import SQL, canon, expected_rows, make_rows, serve


def serve_with_state(state_dir, port: int = 0, **kwargs) -> ThreadedServer:
    backend = build_backend(SQL, PACKET_SCHEMA, shards=0, processes=0)
    return ThreadedServer(
        StreamServer(backend, state_dir=str(state_dir), port=port, **kwargs)
    ).start()


def checkpoints_written(client: ServeClient) -> int:
    return client.stats()["server"]["checkpoints_written"]


class TestPeriodicCheckpointing:
    def test_interval_requires_state_dir(self):
        backend = build_backend(SQL, PACKET_SCHEMA)
        with pytest.raises(ParameterError, match="state_dir"):
            StreamServer(backend, checkpoint_interval_s=1.0)

    def test_interval_must_be_positive(self, tmp_path):
        backend = build_backend(SQL, PACKET_SCHEMA)
        with pytest.raises(ParameterError, match="positive"):
            StreamServer(
                backend, state_dir=str(tmp_path), checkpoint_interval_s=0.0
            )

    def test_periodic_checkpoint_survives_hard_kill(self, tmp_path):
        """Rows flushed before a completed periodic checkpoint survive a
        crash that never runs the graceful-shutdown checkpoint."""
        rows = make_rows(150)
        server = serve_with_state(tmp_path, checkpoint_interval_s=0.05)
        with ServeClient(server.host, server.port) as client:
            client.insert(rows)
            client.flush()
            # A checkpoint *started* before the flush may predate the
            # rows; one counted after the flush necessarily contains them.
            floor = checkpoints_written(client)
            wait_until(
                lambda: checkpoints_written(client) > floor,
                timeout_s=30.0,
                message="a post-flush periodic checkpoint",
            )
            stats = client.stats()["server"]
            assert stats["checkpoint_interval_s"] == 0.05
            assert stats["checkpoint_errors"] == 0
            assert stats["last_checkpoint_at"] is not None
        server.kill()  # crash: no graceful-shutdown checkpoint runs

        resumed_server = serve_with_state(tmp_path)
        try:
            with ServeClient(
                resumed_server.host, resumed_server.port
            ) as client:
                assert canon(client.query()) == canon(
                    expected_rows(SQL, rows)
                )
        finally:
            resumed_server.stop()

    def test_graceful_stop_cancels_checkpoint_task(self, tmp_path):
        server = serve_with_state(tmp_path, checkpoint_interval_s=30.0)
        assert server.stop() is not None  # returns, no hang on the task


class TestClientFailFast:
    """Without retries: one structured error, then fail-fast forever."""

    def test_transport_death_marks_client_dead(self):
        server = serve()
        client = ServeClient(server.host, server.port)
        client.insert(make_rows(20))
        client.flush()
        server.stop()

        with pytest.raises(ClientConnectionError) as first:
            client.query()
        # Later calls fail fast with the *same* structured error — the
        # client never touches the poisoned socket again.
        with pytest.raises(ClientConnectionError) as second:
            client.stats()
        assert second.value is first.value
        with pytest.raises(ClientConnectionError):
            client.insert(make_rows(5))
        assert client.close() == {}  # exception-free on a dead transport

    def test_close_idempotent_after_server_drop(self):
        server = serve()
        client = ServeClient(server.host, server.port)
        server.stop()
        first = client.close()
        assert first == {}
        assert client.close() is first
        with pytest.raises(ClientConnectionError, match="closed"):
            client.query()

    def test_close_idempotent_after_graceful_close(self):
        with serve() as server:
            client = ServeClient(server.host, server.port)
            goodbye = client.close()
            assert goodbye.get("tuples_in") == 0
            assert client.close() is goodbye

    def test_remote_error_does_not_kill_client(self):
        # Semantic (frame-scoped) errors must not trip the transport
        # machinery: the connection is still healthy.
        with serve() as server:
            with ServeClient(server.host, server.port) as client:
                client.insert([("not", "a", "packet")])
                with pytest.raises(RemoteError) as excinfo:
                    client.flush()
                assert excinfo.value.code == "bad-rows"
                client.insert(make_rows(10))
                client.flush()
                assert canon(client.query()) == canon(
                    expected_rows(SQL, make_rows(10))
                )


class TestClientReconnect:
    """With retries: reconnect + seq-keyed replay across a restart."""

    def test_flush_replays_across_server_restart(self, tmp_path):
        rows = make_rows(200)
        first = serve_with_state(tmp_path)
        port = first.port
        client = ServeClient(
            first.host, port, retries=10, backoff_s=0.01
        )
        try:
            seq1 = client.insert(rows[:100])
            report = client.flush()
            assert report["outcomes"] == {seq1: "acked"}
            assert report["reconnects"] == 0
            # Graceful stop checkpoints batch 1 and drops the connection.
            first.stop()
            second = serve_with_state(tmp_path, port=port)
            try:
                seq2 = client.insert(rows[100:])
                report = client.flush()
                # Deterministic outcome: batch 2 was unacknowledged at
                # the restart, so it is the one replayed — batch 1 is
                # never re-sent (at most once per batch).
                assert report["outcomes"][seq2] == "replayed"
                assert seq1 not in report["outcomes"]  # prior flush window
                assert report["reconnects"] == 1
                assert canon(client.query()) == canon(
                    expected_rows(SQL, rows)
                )
            finally:
                second.stop()
        finally:
            client.close()  # idempotent whatever happened above

    def test_reconnect_budget_exhausted(self):
        server = serve()
        client = ServeClient(
            server.host, server.port, retries=2, backoff_s=0.01
        )
        server.stop()  # nothing ever listens again
        with pytest.raises(ClientConnectionError, match="reconnect"):
            client.query()
        assert client.close() == {}

    def test_async_client_replays_across_restart(self, tmp_path):
        rows = make_rows(160)
        first = serve_with_state(tmp_path)
        port = first.port
        host = first.host

        async def scenario():
            client = await AsyncServeClient.connect(
                host, port, retries=10, backoff_s=0.01
            )
            seq1 = await client.insert(rows[:80])
            report = await client.flush()
            assert report["outcomes"] == {seq1: "acked"}
            first.stop()
            second = serve_with_state(tmp_path, port=port)
            try:
                seq2 = await client.insert(rows[80:])
                report = await client.flush()
                assert report["outcomes"][seq2] == "replayed"
                assert report["reconnects"] == 1
                result = await client.query()
                await client.close()
            finally:
                second.stop()
            return result

        result = asyncio.run(scenario())
        assert canon(result) == canon(expected_rows(SQL, rows))

    def test_async_fail_fast_without_retries(self):
        server = serve()

        async def scenario():
            client = await AsyncServeClient.connect(server.host, server.port)
            await client.insert(make_rows(10))
            await client.flush()
            server.stop()
            with pytest.raises(ClientConnectionError) as first:
                await client.query()
            with pytest.raises(ClientConnectionError) as second:
                await client.stats()
            assert second.value is first.value
            assert await client.close() == {}

        asyncio.run(scenario())


@pytest.mark.slow
@pytest.mark.chaos
class TestRealProcessCrash:
    """SIGKILL an actual ``repro serve`` subprocess (the CLI code path)."""

    def test_sigkill_between_checkpoints_resumes_from_last(self, tmp_path):
        """Kill between periodic checkpoints: the restart resumes from
        the last completed checkpoint, byte-identically — rows after it
        are gone (bounded loss), rows before it are exact."""
        rows = make_rows(240)
        state = str(tmp_path)
        # Interval long enough that no periodic checkpoint can sneak in
        # between the forced one and the SIGKILL.
        with ServerProcess(
            SQL, state_dir=state, checkpoint_interval_s=3600.0
        ) as server:
            with ServeClient(server.host, server.port) as client:
                client.insert(rows[:120])
                client.flush()
                client.checkpoint()  # the "last completed checkpoint"
                client.insert(rows[120:])  # after it: not durable
                client.flush()
            frozen = server.checkpoint_bytes()
            assert frozen is not None
            server.kill()  # SIGKILL — no graceful-shutdown checkpoint

            restarted = ServerProcess(SQL, state_dir=state).start()
            try:
                # Byte-identical resume source: the crash and restart
                # leave the checkpoint file untouched.
                assert restarted.checkpoint_bytes() == frozen
                with ServeClient(restarted.host, restarted.port) as client:
                    resumed = client.query()
                    assert canon(resumed) == canon(
                        expected_rows(SQL, rows[:120])
                    )
                    # Re-deliver the lost tail: back to the full answer.
                    client.insert(rows[120:])
                    client.flush()
                    assert canon(client.query()) == canon(
                        expected_rows(SQL, rows)
                    )
            finally:
                restarted.stop()

    def test_periodic_checkpoint_via_cli_flag(self, tmp_path):
        """--checkpoint-interval end to end: a checkpoint appears without
        any CHECKPOINT frame or graceful stop, and survives SIGKILL."""
        rows = make_rows(90)
        state = str(tmp_path)
        with ServerProcess(
            SQL, state_dir=state, checkpoint_interval_s=0.1
        ) as server:
            with ServeClient(server.host, server.port) as client:
                client.insert(rows)
                client.flush()
                floor = checkpoints_written(client)
                wait_until(
                    lambda: checkpoints_written(client) > floor,
                    timeout_s=30.0,
                    message="a post-flush periodic checkpoint",
                )
            server.kill()

            restarted = ServerProcess(SQL, state_dir=state).start()
            try:
                with ServeClient(restarted.host, restarted.port) as client:
                    assert canon(client.query()) == canon(
                        expected_rows(SQL, rows)
                    )
            finally:
                restarted.stop()

    def test_client_replays_across_real_restart(self, tmp_path):
        rows = make_rows(200)
        state = str(tmp_path)
        server = ServerProcess(
            SQL, state_dir=state, checkpoint_interval_s=3600.0
        ).start()
        client = ServeClient(
            server.host, server.port, retries=10, backoff_s=0.05,
        )
        try:
            client.insert(rows[:100])
            client.flush()
            client.checkpoint()
            server.kill()
            # Restart on the same port so the client's redial finds it.
            server = ServerProcess(
                SQL, state_dir=state, port=server.port
            ).start()
            seq2 = client.insert(rows[100:])
            report = client.flush()
            assert report["outcomes"][seq2] == "replayed"
            assert report["reconnects"] >= 1
            assert canon(client.query()) == canon(expected_rows(SQL, rows))
        finally:
            client.close()
            server.stop()
