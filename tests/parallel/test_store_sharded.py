"""Sharded engines over tiered stores: per-shard spill directories and
respawn-from-manifest recovery.

The store replaces the re-shipped checkpoint blob as the recovery
substrate: a respawned worker rebuilds its engine over its shard's store
directory and resumes from the manifest written at the last checkpoint —
the supervisor never re-sends state.
"""

from __future__ import annotations

import os

import pytest

from repro.parallel import ShardedEngine, stable_route
from repro.store import MANIFEST_NAME
from repro.testing import kill_worker

from tests.parallel.test_sharded import (
    COUNT_SUM_SQL,
    SCHEMA,
    make_rows,
    unsharded,
)

SHARDS = 3


def wide_rows(n: int) -> list[tuple]:
    """make_rows spread over enough destIPs that 4-group budgets spill."""
    return [
        row[:2] + (f"h{i % 211}",) + row[3:]
        for i, row in enumerate(make_rows(n))
    ]


def spilled(tmp_path, shard: int) -> bool:
    """Whether the shard's store wrote a spill segment (not a ``ckpt-``)."""
    segments = tmp_path / "store" / f"shard{shard}" / "segments"
    return any(not name.startswith("ckpt-") for name in os.listdir(segments))


def store_engine(tmp_path, **kwargs) -> ShardedEngine:
    defaults = dict(
        shards=SHARDS,
        processes=0,
        router=lambda key, n: stable_route(key[1], n),
        store_dir=str(tmp_path / "store"),
        store_hot_groups=4,
    )
    defaults.update(kwargs)
    return ShardedEngine(COUNT_SUM_SQL, SCHEMA, **defaults)


class TestInlineStore:
    def test_results_exact_with_spilling(self, tmp_path):
        rows = wide_rows(900)
        with store_engine(tmp_path) as engine:
            engine.insert_many(rows)
            assert engine.query() == unsharded(COUNT_SUM_SQL, rows)
            # Every shard spilled into its own directory.
            for shard, inner in enumerate(o._engine for o in engine._owners.values()):
                assert inner.store is not None
                assert inner.store.cold_count > 0
                assert inner.store.directory.endswith(f"shard{shard}")

    def test_partial_states_checkpoint_manifests(self, tmp_path):
        with store_engine(tmp_path) as engine:
            engine.insert_many(make_rows(600))
            blobs = engine.partial_states()
            assert len(blobs) == SHARDS
            for shard in range(SHARDS):
                manifest = tmp_path / "store" / f"shard{shard}" / MANIFEST_NAME
                assert manifest.exists()
                assert spilled(tmp_path, shard)


@pytest.mark.slow
@pytest.mark.chaos
class TestStoreBackedRecovery:
    def test_respawn_recovers_from_manifest_not_blob(self, tmp_path):
        # Checkpoint, SIGKILL a worker, keep inserting: the replacement
        # rebuilds over the shard's store directory and resumes from the
        # manifest — zero loss, exact equality, and no blob re-seed.
        rows_before = make_rows(300)
        rows_after = make_rows(300)
        with store_engine(tmp_path, processes=None) as engine:
            engine.insert_many(rows_before)
            engine.checkpoint()
            assert os.path.exists(
                tmp_path / "store" / "shard1" / MANIFEST_NAME
            )
            assert spilled(tmp_path, 1)  # the manifest references spill
            kill_worker(engine, shard=1)
            engine.insert_many(rows_after)
            result = engine.query()

            assert result == unsharded(
                COUNT_SUM_SQL, rows_before + rows_after
            )
            (failure,) = engine.failures
            assert failure.owner == 1
            assert failure.respawned is True
            assert failure.rows_lost == 0

    def test_unckpointed_tail_lost_exactly(self, tmp_path):
        # Rows after the last manifest die with the worker, exactly like
        # the blob-checkpoint story — the store does not smuggle
        # un-checkpointed state across a crash.
        rows_before = make_rows(200)
        doomed = [
            r for r in make_rows(500) if stable_route(r[2], SHARDS) == 1
        ][:40]
        rows_after = make_rows(200)
        assert doomed
        with store_engine(tmp_path, processes=None) as engine:
            engine.insert_many(rows_before)
            engine.checkpoint()
            assert spilled(tmp_path, 1)
            engine.insert_many(doomed)
            kill_worker(engine, shard=1)
            engine.insert_many(rows_after)
            result = engine.query()

            (failure,) = engine.failures
            assert failure.rows_lost == len(doomed)
            assert result == unsharded(
                COUNT_SUM_SQL, rows_before + rows_after
            )
