"""Shard supervision: crash detection, respawn-from-checkpoint, exact
loss accounting, and bounded close() with dead workers.

The recovery guarantee under test is the paper's merge property worn as
fault tolerance: a checkpointed partial state re-seeds a fresh worker and
merges exactly, so after a SIGKILL the query equals the unsharded
reference over precisely the non-lost tuples — and the lost delta is
exact (``rows_lost``), not an estimate.

A shard is :func:`stable_route` of the ``(tb, destIP)`` group key, so
tests can compute *which* rows die with a given shard, making the
post-crash reference deterministic.
"""

from __future__ import annotations

import time

import pytest

from repro.core.cols import pack_cols, rows_to_cols
from repro.core.errors import QueryError
from repro.parallel import ShardedEngine, pipe, router, stable_route
from repro.testing import kill_worker, wait_until

from tests.parallel.test_sharded import (
    COUNT_SUM_SQL,
    SCHEMA,
    make_rows,
    unsharded,
)

SHARDS = 3


def routed_to(rows, shard: int) -> list[tuple]:
    """The subset of ``rows`` that stable_route sends to ``shard``: their
    group key is ``(time // 60, destIP)``."""
    return [r for r in rows if stable_route((r[0] // 60, r[2]), SHARDS) == shard]


def supervised_engine(**kwargs) -> ShardedEngine:
    defaults = dict(shards=SHARDS, processes=None)
    defaults.update(kwargs)
    return ShardedEngine(COUNT_SUM_SQL, SCHEMA, **defaults)


@pytest.mark.slow
@pytest.mark.chaos
class TestCrashRecovery:
    def test_kill_after_checkpoint_loses_nothing(self):
        # Checkpoint, kill, keep inserting: everything up to the
        # checkpoint is re-seeded into the replacement and everything
        # after it goes to the replacement — zero loss, exact equality.
        rows_before = make_rows(300)
        rows_after = make_rows(300)
        with supervised_engine() as engine:
            engine.insert_many(rows_before)
            info = engine.checkpoint()
            assert sum(info["rows_captured"]) == len(rows_before)
            pid = kill_worker(engine, shard=1)
            engine.insert_many(rows_after)
            result = engine.query()

            assert result == unsharded(COUNT_SUM_SQL, rows_before + rows_after)
            (failure,) = engine.failures
            assert failure.owner == 1
            assert failure.pid == pid
            assert failure.exitcode == -9
            assert failure.phase == "ship"
            assert failure.respawned is True
            assert failure.rows_lost == 0
            assert failure.rows_recovered == len(routed_to(rows_before, 1))

    def test_unckpointed_rows_are_lost_exactly(self):
        # Rows shipped after the last checkpoint die with the worker;
        # the supervisor reports the exact count and the query equals
        # the reference with exactly those rows removed.
        rows_before = make_rows(200)
        doomed = routed_to(make_rows(500), 1)[:40]
        rows_after = make_rows(200)
        assert doomed, "scenario needs rows routed to shard 1"
        with supervised_engine() as engine:
            engine.insert_many(rows_before)
            engine.checkpoint()
            engine.insert_many(doomed)  # batch_size=1: shipped immediately
            kill_worker(engine, shard=1)
            engine.insert_many(rows_after)
            result = engine.query()

            (failure,) = engine.failures
            assert failure.rows_lost == len(doomed)
            assert result == unsharded(
                COUNT_SUM_SQL, rows_before + rows_after
            )
            assert engine.stats()["rows_lost"] == len(doomed)

    def test_kill_detected_during_state_request(self):
        with supervised_engine() as engine:
            engine.insert_many(make_rows(150))
            engine.checkpoint()
            kill_worker(engine, shard=0)
            # No inserts in between: the death surfaces on the reply path
            # of the next state collection, not on a ship.
            result = engine.query()
            assert result == unsharded(COUNT_SUM_SQL, make_rows(150))
            (failure,) = engine.failures
            assert failure.owner == 0
            assert failure.phase == "request"

    def test_respawn_budget_exhausted_raises(self, monkeypatch):
        monkeypatch.setattr(router, "_MAX_RESPAWNS", 0)
        with supervised_engine() as engine:
            engine.insert_many(make_rows(60))
            kill_worker(engine, shard=1)
            with pytest.raises(QueryError, match="respawn budget"):
                engine.insert_many(routed_to(make_rows(500), 1)[:5])
            (failure,) = engine.failures
            assert failure.respawned is False

    def test_failure_recorded_in_stats(self):
        rows = make_rows(120)
        with supervised_engine() as engine:
            engine.insert_many(rows)
            engine.checkpoint()
            engine.insert_many(routed_to(make_rows(400), 2)[:10])
            kill_worker(engine, shard=2)
            engine.query()
            stats = engine.stats()
        (failure,) = stats["failures"]
        assert (failure["owner"], failure["rows_lost"]) == (2, 10)
        assert stats["respawns"] == [0, 0, 1]
        assert stats["rows_lost"] == 10

    def test_two_deaths_same_shard_recover_twice(self, monkeypatch):
        monkeypatch.setattr(router, "_MAX_RESPAWNS", 3)
        rows = make_rows(180)
        with supervised_engine() as engine:
            engine.insert_many(rows)
            engine.checkpoint()
            kill_worker(engine, shard=1)
            assert engine.query() == unsharded(COUNT_SUM_SQL, rows)
            kill_worker(engine, shard=1)
            assert engine.query() == unsharded(COUNT_SUM_SQL, rows)
            assert [f.owner for f in engine.failures] == [1, 1]
            assert engine.stats()["respawns"][1] == 2


@pytest.mark.slow
@pytest.mark.chaos
class TestCloseAfterDeath:
    """Regression: close() used to hang in the mp.Queue feeder-thread
    join when a worker died with batches still buffered on its queue."""

    def _fill_and_kill(self, engine) -> None:
        # Queue depth 2, dead consumer: ship until the queue (plus the
        # feeder pipe) holds undrained batches, then nothing ever reads.
        victims = routed_to(make_rows(2000), 1)
        engine.insert_many(victims[:50])
        wait_until(
            lambda: engine._owners[1].process.is_alive(), timeout_s=10.0,
            message="worker up",
        )
        kill_worker(engine, shard=1)
        # Refill the dead worker's queue without tripping supervision.
        for batch_start in range(0, 4):
            try:
                engine._owners[1].queue.put(
                    ("colb", pack_cols(rows_to_cols(victims[:8]))),
                    timeout=0.2,
                )
            except Exception:
                break

    def test_close_returns_with_dead_worker_supervised(self, monkeypatch):
        monkeypatch.setattr(pipe, "_QUEUE_DEPTH", 2)
        engine = supervised_engine()
        try:
            self._fill_and_kill(engine)
        finally:
            start = time.monotonic()
            stats = engine.close()
            elapsed = time.monotonic() - start
        assert elapsed < 30.0
        assert stats["tuples_per_shard"][1] == -1  # dead shard reports -1
        assert all(c >= 0 for i, c in enumerate(stats["tuples_per_shard"])
                   if i != 1)

    def test_close_idempotent_after_death(self):
        engine = supervised_engine()
        engine.insert_many(make_rows(30))
        kill_worker(engine, shard=0)
        first = engine.close()
        assert engine.close() is first


class TestSupervisionSurface:
    """Fast, inline-mode checks of the new public surface."""

    def test_stats_report_supervision_fields(self):
        with ShardedEngine(
            COUNT_SUM_SQL, SCHEMA, shards=2, processes=0
        ) as engine:
            engine.insert_many(make_rows(50))
            stats = engine.stats()
            assert stats["respawns"] == [0, 0]
            assert stats["failures"] == []
            assert stats["rows_lost"] == 0
            assert engine.failures == []

    def test_inline_checkpoint_reports_rows(self):
        with ShardedEngine(
            COUNT_SUM_SQL, SCHEMA, shards=2, processes=0
        ) as engine:
            engine.insert_many(make_rows(80))
            info = engine.checkpoint()
            assert info["shards"] == 2
            assert sum(info["rows_captured"]) == 80
            assert all(size > 0 for size in info["blob_bytes"])

    def test_kill_worker_rejects_inline(self):
        with ShardedEngine(
            COUNT_SUM_SQL, SCHEMA, shards=2, processes=0
        ) as engine:
            with pytest.raises(ValueError, match="inline"):
                kill_worker(engine, 0)
