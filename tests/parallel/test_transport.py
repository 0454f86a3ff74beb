"""The columnar shard transport and crash accounting for columnar batches.

Per-shard partitions cross the process boundary as packed ``colb`` bytes
on the queue, and the supervisor's exact loss accounting covers batches
offered in columns the same as batches offered in rows.  (That every
edge — rows, columns, interleaved — equals the unsharded engine is
``tests/test_edge_equivalence.py``.)
"""

from __future__ import annotations

import pytest

from repro.core.errors import QueryError
from repro.parallel import ShardedEngine
from repro.testing import kill_worker

from tests.parallel.test_sharded import (
    COUNT_SUM_SQL,
    SCHEMA,
    make_rows,
    unsharded,
)
from tests.parallel.test_supervisor import routed_to, supervised_engine


def to_cols(rows) -> list[list]:
    return [list(col) for col in zip(*rows)]


class TestTransportEquivalence:
    def test_ungrouped_round_robin_continues_across_edges(self):
        # No GROUP BY → round-robin placement over one counter, whichever
        # edge the rows came through: every shard ends up within one row
        # of its fair share.
        sql = "select count(*) as c, sum(len) as s from TCP"
        rows = make_rows(200)
        engine = ShardedEngine(sql, SCHEMA, shards=3, processes=0)
        engine.insert_many(rows[:70])
        engine.insert_cols(to_cols(rows[70:130]))
        for start in range(130, len(rows), 16):
            engine.insert_many(rows[start:start + 16])
        assert engine.query() == unsharded(sql, rows)
        assert sorted(engine.close()["tuples_per_shard"]) == [66, 67, 67]

    def test_ragged_columnar_batch_rejected(self):
        with ShardedEngine(
            COUNT_SUM_SQL, SCHEMA, shards=2, processes=0
        ) as engine:
            with pytest.raises(QueryError, match="ragged"):
                engine.insert_cols([[1], [], [], [], [], []])


@pytest.mark.slow
@pytest.mark.chaos
class TestColumnarCrashAccounting:
    """Satellite (f): worker death mid-columnar-stream keeps the exact
    loss accounting of the row path."""

    def test_columnar_rows_lost_exactly(self):
        rows_before = make_rows(200)
        doomed = routed_to(make_rows(500), 1)[:40]
        rows_after = make_rows(200)
        assert doomed, "scenario needs rows routed to shard 1"
        with supervised_engine() as engine:
            engine.insert_cols(to_cols(rows_before))
            engine.checkpoint()
            engine.insert_cols(to_cols(doomed))  # shipped immediately
            kill_worker(engine, shard=1)
            engine.insert_cols(to_cols(rows_after))
            result = engine.query()

            (failure,) = engine.failures
            assert failure.rows_lost == len(doomed)
            assert failure.respawned is True
            assert result == unsharded(
                COUNT_SUM_SQL, rows_before + rows_after
            )
            assert engine.stats()["rows_lost"] == len(doomed)

    def test_checkpointed_columnar_rows_survive(self):
        rows_before = make_rows(300)
        rows_after = make_rows(300)
        with supervised_engine() as engine:
            engine.insert_cols(to_cols(rows_before))
            info = engine.checkpoint()
            assert sum(info["rows_captured"]) == len(rows_before)
            kill_worker(engine, shard=1)
            engine.insert_cols(to_cols(rows_after))
            assert engine.query() == unsharded(
                COUNT_SUM_SQL, rows_before + rows_after
            )
            (failure,) = engine.failures
            assert failure.rows_lost == 0
            assert failure.rows_recovered == len(routed_to(rows_before, 1))
