"""Tiered store correctness: exact results, durability, and containment.

The load-bearing guarantee is *byte-identity*: a store-backed engine —
whatever got evicted, compacted, checkpointed, or faulted back in along
the way — must produce results equal to an all-RAM engine fed the same
stream.  Forward decay makes this possible (spilled partial states have
fixed numerators, so they fold back in exactly); these tests make it
mandatory, including for sketch and sampler UDAFs whose state includes
RNG positions.
"""

from __future__ import annotations

import json
import os
import random

import pytest

import repro.core.serde as serde_mod
import repro.store.tiered as tiered_mod
from repro.core.errors import ParameterError, QueryError, StoreError
from repro.core.serde import STORE_MANIFEST, seal, unseal
from repro.core.tree import pack_tree, unpack_tree
from repro.dsms.engine import QueryEngine
from repro.dsms.parser import parse_query
from repro.dsms.schema import Field, FieldType, Schema
from repro.dsms.udaf import default_registry
from repro.store import MANIFEST_NAME, MANIFEST_VERSION, TieredStore, describe_store

SCHEMA = Schema(
    [
        Field("time", FieldType.INT),
        Field("srcIP", FieldType.STR),
        Field("destIP", FieldType.STR),
        Field("destPort", FieldType.INT),
        Field("len", FieldType.INT),
        Field("proto", FieldType.STR),
    ]
)

BUILTIN_SQL = (
    "select tb, destIP, count(*) as c, sum(len) as s, min(len) as lo, "
    "max(len) as hi, avg(len) as mean from TCP "
    "group by time/60 as tb, destIP"
)

#: Sketches and samplers carry the hard state: GK summaries, SpaceSaving
#: counters, and the priority sampler's per-group RNG stream.
SKETCH_SQL = (
    "select tb, destIP, count(*) as c, fwd_hh(destPort, len) as hh, "
    "fwd_quantiles(len, 0.5) as med, prisamp(srcIP, len) as samp "
    "from TCP group by time/60 as tb, destIP"
)


def make_rows(n: int = 1_500, groups: int = 200, seed: int = 11) -> list[tuple]:
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        rows.append(
            (
                i // 3,
                f"s{rng.randrange(40)}",
                f"h{rng.randrange(groups)}",
                rng.choice((80, 443, 53)),
                40 + rng.randrange(1_400),
                "tcp" if rng.random() < 0.85 else "udp",
            )
        )
    return rows


def build_engine(
    sql: str = BUILTIN_SQL, store: TieredStore | None = None, **kwargs
) -> QueryEngine:
    query = parse_query(sql, default_registry())
    return QueryEngine(query, SCHEMA, store=store, **kwargs)


def reference_flush(sql: str, rows: list[tuple], **kwargs) -> list:
    engine = build_engine(sql, **kwargs)
    engine.insert_many(rows)
    return engine.flush()


def manifest_tree(image: bytes):
    """The tree a sealed store-manifest image holds."""
    return unpack_tree(unseal(STORE_MANIFEST, image))


def sealed_manifest(manifest, version: int = MANIFEST_VERSION) -> bytes:
    """``manifest`` packed in a store-manifest envelope of ``version``."""
    return seal(STORE_MANIFEST._replace(version=version), pack_tree(manifest))


def checkpointed_store(directory: str) -> str:
    """A checkpointed store with spill the manifest does not reference;
    returns the manifest path."""
    engine = build_engine(store=TieredStore(directory, hot_groups=4))
    engine.insert_many(make_rows(400, groups=60))
    assert engine.store.cold_count > 0
    manifest_path = engine.store_checkpoint()
    engine.insert_many(make_rows(100, groups=60))  # leave unreferenced spill
    engine.store.close()
    return manifest_path


class TestByteIdentity:
    @pytest.mark.parametrize("sql", [BUILTIN_SQL, SKETCH_SQL],
                             ids=["builtins", "sketches"])
    @pytest.mark.parametrize("hot", [1, 8, 50])
    def test_flush_equals_all_ram(self, tmp_path, sql, hot):
        rows = make_rows()
        store = TieredStore(str(tmp_path / "s"), hot_groups=hot)
        engine = build_engine(sql, store=store)
        engine.insert_many(rows)
        assert store.cold_count > 0  # the budget actually bit
        assert engine.flush() == reference_flush(sql, rows)

    def test_hot_tier_respects_budget(self, tmp_path):
        rows = make_rows()
        store = TieredStore(str(tmp_path / "s"), hot_groups=16)
        engine = build_engine(store=store)
        engine.insert_many(rows)
        assert store.hot_count <= 16
        # Hot and cold key sets are disjoint; together they cover every
        # group the reference engine knows.
        high_keys = set(dict.keys(engine._high))
        assert not high_keys & set(store.cold_key_set())
        assert engine.group_count == len(reference_flush(BUILTIN_SQL, rows))

    def test_per_row_process_path(self, tmp_path):
        rows = make_rows(400, groups=60)
        store = TieredStore(str(tmp_path / "s"), hot_groups=8)
        engine = build_engine(SKETCH_SQL, store=store)
        for row in rows:
            engine.process(row)
        assert store.cold_count > 0
        assert engine.flush() == reference_flush(SKETCH_SQL, rows)

    def test_process_and_insert_cols_agree_behind_a_store(self, tmp_path):
        # Both ingest paths ask the store for a missed key before they
        # create its group, and report the keys WHERE let through.
        sql = (
            "select tb, destIP, count(*) as c, sum(len) as s, "
            "prisamp(srcIP, len) as samp from TCP where proto = 'tcp' "
            "group by time/60 as tb, destIP"
        )
        rows = make_rows(900, groups=60)
        flushed = []
        for path in ("process", "insert_cols"):
            store = TieredStore(str(tmp_path / path), hot_groups=8)
            engine = build_engine(sql, store=store)
            if path == "process":
                for row in rows:
                    engine.process(row)
            else:
                for start in range(0, len(rows), 50):
                    engine.insert_cols(list(zip(*rows[start:start + 50])))
            stats = store.stats()
            assert stats["evictions"] > 0 and stats["fault_ins"] > 0
            flushed.append(engine.flush())
            store.close()
        assert flushed[0] == flushed[1] == reference_flush(sql, rows)

    def test_partial_state_splices_cold_groups(self, tmp_path):
        rows = make_rows()
        store = TieredStore(str(tmp_path / "s"), hot_groups=10)
        engine = build_engine(SKETCH_SQL, store=store)
        engine.insert_many(rows)
        blob = engine.partial_state_bytes()
        # Snapshot is non-destructive: nothing faulted in, nothing lost.
        assert store.hot_count <= 10
        collector = build_engine(SKETCH_SQL)
        collector.merge_partial(blob)
        assert collector.flush() == reference_flush(SKETCH_SQL, rows)
        assert engine.flush() == reference_flush(SKETCH_SQL, rows)

    def test_merge_partial_faults_cold_groups_in(self, tmp_path):
        # Half the stream arrives as a merged partial *after* eviction
        # has pushed overlapping groups cold: the faulting table must
        # bring them back so same-group summaries merge exactly.
        # (prisamp is excluded: PrioritySampler has no same-group merge
        # rule anywhere, store-backed or not.)
        sql = (
            "select tb, destIP, count(*) as c, fwd_hh(destPort, len) as hh, "
            "fwd_quantiles(len, 0.5) as med from TCP "
            "group by time/60 as tb, destIP"
        )
        rows = make_rows(1_200, groups=80)
        half = len(rows) // 2
        donor = build_engine(sql)
        donor.insert_many(rows[half:])
        store = TieredStore(str(tmp_path / "s"), hot_groups=5)
        engine = build_engine(sql, store=store)
        engine.insert_many(rows[:half])
        assert store.cold_count > 0
        engine.merge_partial(donor.partial_state_bytes())

        reference = build_engine(sql)
        reference.insert_many(rows[:half])
        reference.merge_partial(donor.partial_state_bytes())
        assert engine.flush() == reference.flush()

    def test_compaction_preserves_results(self, tmp_path, monkeypatch):
        rows = make_rows(2_000, groups=300)
        # Deflated pages are ~3x smaller here: 1 KiB seals what 4 KiB did.
        monkeypatch.setattr(tiered_mod, "_SEGMENT_BYTES", 1 << 10)
        # Modest churn must still qualify.
        monkeypatch.setattr(tiered_mod, "_COMPACT_GARBAGE_RATIO", 0.1)
        store = TieredStore(str(tmp_path / "s"), hot_groups=4)
        engine = build_engine(store=store)
        # Small batches churn groups hot<->cold, leaving dead records in
        # sealed segments — the garbage compaction exists to reclaim.
        for i in range(0, len(rows), 50):
            engine.insert_many(rows[i : i + 50])
        assert store.stats()["compactions"] > 0
        store.compact(force=True)
        assert engine.flush() == reference_flush(BUILTIN_SQL, rows)


class TestRandomizedSchedules:
    """Property-style: random ingest/eviction schedules never change results."""

    @pytest.mark.parametrize(
        "sql, churn",
        [
            (SKETCH_SQL, False),  # summary pages
            (SKETCH_SQL, True),
            (BUILTIN_SQL, False),  # faults at the table miss, read ahead
            (BUILTIN_SQL, True),
        ],
        ids=["sketch-fg", "sketch-churn", "builtins-fg", "builtins-churn"],
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_random_schedule_byte_identity(
        self, tmp_path, monkeypatch, seed, sql, churn
    ):
        rng = random.Random(seed)
        rows = make_rows(
            rng.randrange(400, 1_200), groups=rng.randrange(30, 250), seed=seed
        )
        hot_groups = rng.choice((1, 3, 17, 64))
        # With churn, small segments seal often and inline compaction
        # rewrites one as soon as a tenth of it is dead: compaction runs
        # inside most maintain() calls, interleaved with ingest.
        sizes = (256, 512, 1 << 10) if churn else (2 << 10, 64 << 10, 4 << 20)
        monkeypatch.setattr(tiered_mod, "_SEGMENT_BYTES", rng.choice(sizes))
        if churn:
            monkeypatch.setattr(tiered_mod, "_COMPACT_MIN_SEGMENTS", 1)
            monkeypatch.setattr(tiered_mod, "_COMPACT_GARBAGE_RATIO", 0.1)
        store = TieredStore(str(tmp_path / f"s{seed}"), hot_groups=hot_groups)
        engine = build_engine(sql, store=store)
        reference = build_engine(sql)
        i = 0
        while i < len(rows):
            step = rng.randrange(1, 200)
            engine.insert_many(rows[i : i + step])
            reference.insert_many(rows[i : i + step])
            i += step
            if rng.random() < 0.2:
                store.compact(force=rng.random() < 0.5)
            if rng.random() < 0.1:
                # Mid-stream snapshots must not perturb later results —
                # and are the all-RAM engine's bytes.
                assert (
                    engine.partial_state_bytes()
                    == reference.partial_state_bytes()
                )
        assert engine.partial_state_bytes() == reference.partial_state_bytes()
        assert store.stats()["evictions"] > 0
        assert engine.flush() == reference.flush()
        if churn:
            assert store.stats()["compactions"] > 0
        store.close()


class TestPages:
    """The cold tier's unit is a page; the engine must not be able to tell."""

    def test_an_eviction_batch_is_one_page(self, tmp_path):
        store = TieredStore(str(tmp_path / "s"), hot_groups=10)
        engine = build_engine(store=store)
        engine.insert_many(make_rows(300, groups=150))
        stats = store.stats()
        assert stats["evictions"] > 100
        assert stats["spill_pages"] == 1  # one insert, one maintain(), one page
        before = stats["pages_read"]
        assert engine.group_count == stats["hot_groups"] + stats["cold_groups"]
        assert store.stats()["pages_read"] == before  # a count reads no page
        assert len(list(store.cold_key_set())) == stats["cold_groups"]
        assert store.stats()["pages_read"] == before + 1  # a scan reads it once

    def test_unconsumed_read_ahead_changes_nothing(self, tmp_path):
        rows = make_rows(900, groups=120)
        store = TieredStore(str(tmp_path / "s"), hot_groups=6)
        engine = build_engine(SKETCH_SQL, store=store)
        reference = build_engine(SKETCH_SQL)
        for i in range(0, len(rows), 90):
            engine.insert_many(rows[i : i + 90])
            reference.insert_many(rows[i : i + 90])
            # Stage every cold key (and some that are not cold): a batch
            # that then touches none of them must leave no trace.
            cold = list(store.cold_key_set())
            before = store.stats()
            store.stage(cold + [(-1, "nobody")])
            assert len(store._stash) == len(cold) + 1
            after = store.stats()
            assert after["rows_decoded"] == before["rows_decoded"] + len(cold)
            assert after["fault_ins"] == before["fault_ins"]
            assert after["cold_groups"] == before["cold_groups"] == len(cold)
        assert store._stash  # still staged: the next batch drops it
        assert engine.partial_state_bytes() == reference.partial_state_bytes()
        assert engine.flush() == reference.flush()

    def test_a_staged_row_is_a_fault_in_only_when_consumed(self, tmp_path):
        store = TieredStore(str(tmp_path / "s"), hot_groups=4)
        engine = build_engine(store=store)
        engine.insert_many(make_rows(200, groups=40))
        cold = sorted(store.cold_key_set(), key=repr)
        faults, pages = store.stats()["fault_ins"], store.stats()["pages_read"]
        store.stage(cold)
        assert store.stats()["pages_read"] == pages + 1
        assert store.fault_in(cold[0]) is not None  # consumed from the stash
        assert store.fault_in(cold[0]) is None  # gone: one live copy
        assert store.fault_in((-1, "nobody")) is None
        assert store.stats()["fault_ins"] == faults + 1
        assert store.stats()["pages_read"] == pages + 1  # no second read
        store.unstage()
        assert store.fault_in(cold[1]) is not None  # not staged: faults alone
        assert store.stats()["pages_read"] == pages + 2

    def test_two_keys_on_one_hash_in_one_eviction_batch(
        self, tmp_path, monkeypatch
    ):
        rows = make_rows(600, groups=40)
        twins = {(0, "h3"), (0, "h4")}
        real_hash = tiered_mod.group_hash
        monkeypatch.setattr(
            tiered_mod, "group_hash",
            lambda key: 42 if key in twins else real_hash(key),
        )
        monkeypatch.setattr(tiered_mod, "_COMPACT_MIN_SEGMENTS", 10_000)
        store = TieredStore(str(tmp_path / "s"), hot_groups=2)
        engine = build_engine(store=store)
        reference = build_engine()
        # One batch whose eviction holds both twins: they may not share a
        # page, or one slot would name two rows.
        first = [
            next(row for row in rows if row[2] == name) for name in ("h3", "h4")
        ]
        assert [row[0] // 60 for row in first] == [0, 0]
        batch = first + [row for row in rows[:60] if row not in first]
        engine.insert_many(batch)
        reference.insert_many(batch)
        assert {(0, "h3"), (0, "h4")} <= set(store.cold_key_set())
        assert store.stats()["spill_pages"] == 2
        assert [s for s, _o, _l in store._dir.lookup(42)] == [0, 0]
        # Fault one twin in, leave the other cold, spill it again, compact.
        engine.insert_many(first[:1])
        reference.insert_many(first[:1])
        store.compact(force=True)
        for i in range(60, len(rows), 45):
            engine.insert_many(rows[i : i + 45])
            reference.insert_many(rows[i : i + 45])
            store.compact(force=i % 2 == 0)
        assert engine.partial_state_bytes() == reference.partial_state_bytes()
        assert engine.flush() == reference.flush()

    def test_a_page_with_every_row_faulted_in_is_garbage(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tiered_mod, "_COMPACT_MIN_SEGMENTS", 10_000)
        store = TieredStore(str(tmp_path / "s"), hot_groups=4)
        engine = build_engine(store=store)
        rows = make_rows(120, groups=30)
        engine.insert_many(rows)
        store._seal_writer()
        assert store.stats()["segment_bytes"] > 0
        store.hot_groups = 1_000  # nothing spills from here on
        engine.insert_many(rows)  # touches, and so faults in, every group
        assert store.cold_count == 0 and store.segment_count == 1
        assert store.compact() == 1  # all garbage: retired, nothing copied
        assert store.segment_count == 0 and store.stats()["segment_bytes"] == 0
        assert engine.flush() == reference_flush(BUILTIN_SQL, rows + rows)

    def test_sketch_pages_close_at_the_byte_cap(self, tmp_path):
        store = TieredStore(str(tmp_path / "s"), hot_groups=2)
        engine = build_engine(SKETCH_SQL, store=store)
        engine.insert_many(make_rows(600, groups=80))
        engine.store_checkpoint()
        store.compact(force=True)
        pages = [
            length
            for name in os.listdir(os.path.join(store.directory, "segments"))
            for _o, length, _rows in tiered_mod.SegmentReader(
                os.path.join(store.directory, "segments", name)
            ).pages
        ]
        assert len(pages) > 2
        # A page closes once it holds the cap; one more group may overshoot.
        assert max(pages) < tiered_mod._PAGE_SUMMARY_BYTES + 32_000


class TestHandleCache:
    def store_fds(self, store: TieredStore) -> list[str]:
        held = []
        for fd in os.listdir("/proc/self/fd"):
            try:
                target = os.readlink(f"/proc/self/fd/{fd}")
            except OSError:
                continue
            if target.startswith(os.path.abspath(store.directory)):
                held.append(target)
        return held

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_a_hundred_segments_hold_a_bounded_number_of_descriptors(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tiered_mod, "_SEGMENT_BYTES", 1)
        monkeypatch.setattr(tiered_mod, "_COMPACT_MIN_SEGMENTS", 10_000)
        store = TieredStore(str(tmp_path / "s"), hot_groups=1)
        engine = build_engine(store=store)
        rows = make_rows(110, groups=10_000)  # ~every row its own group
        for row in rows:
            engine.insert_many([row])  # one eviction, one sealed segment each
        assert store.segment_count >= 100
        by_segment = {}
        for key in store.cold_key_set():  # a scan: opens and closes each file
            by_segment.setdefault(
                store._dir.lookup(tiered_mod.group_hash(key))[0][0], key
            )
        assert len(by_segment) >= 100
        for key in by_segment.values():  # a lone read per segment
            store.encoded_states(key)
        cap = tiered_mod._HANDLE_CACHE
        assert len(store._handles) == cap
        # LRU: the handles kept are the ones used last.
        assert list(store._handles) == list(by_segment)[-cap:]
        held = self.store_fds(store)
        assert cap <= len(held) <= cap + 2  # + the mmapped key directory
        # A hit moves a handle to the young end instead of reopening it.
        oldest = next(iter(store._handles))
        handle = store._handles[oldest]
        store.encoded_states(by_segment[oldest])
        assert list(store._handles)[-1] == oldest
        assert store._handles[oldest] is handle
        assert len(self.store_fds(store)) == len(held)
        store.close()
        assert self.store_fds(store) == []


class TestEvictionPolicy:
    def test_hot_group_survives_one_shot_flood(self, tmp_path):
        # One group touched every batch; hundreds touched once.  The
        # decayed-touch priority must keep the regular at the bottom of
        # no eviction order — it stays hot while one-shots spill.
        store = TieredStore(str(tmp_path / "s"), hot_groups=32)
        engine = build_engine(store=store)
        hot_key = (0, "h-regular")
        for i in range(300):
            batch = [(1, "s0", "h-regular", 80, 100, "tcp")]
            batch.extend(
                (1, "s0", f"cold{i}-{j}", 80, 100, "tcp") for j in range(4)
            )
            engine.insert_many(batch)
        assert store.cold_count > 0
        assert hot_key in engine._high
        assert hot_key not in store.cold_key_set()


class TestCheckpointRestore:
    def test_resume_equals_uninterrupted(self, tmp_path):
        rows = make_rows(1_400, groups=150)
        half = len(rows) // 2
        directory = str(tmp_path / "s")

        store = TieredStore(directory, hot_groups=12)
        engine = build_engine(SKETCH_SQL, store=store)
        engine.insert_many(rows[:half])
        assert store.cold_count > 0  # the checkpoint references spill
        manifest_path = engine.store_checkpoint()
        assert os.path.basename(manifest_path) == MANIFEST_NAME
        store.close()

        resumed_store = TieredStore(directory, hot_groups=12)
        resumed = build_engine(SKETCH_SQL, store=resumed_store)
        assert resumed.tuples_processed == half
        resumed.insert_many(rows[half:])
        assert resumed.flush() == reference_flush(SKETCH_SQL, rows)

    def test_checkpoint_then_crash_discards_tail_only(self, tmp_path):
        rows = make_rows(900, groups=90)
        directory = str(tmp_path / "s")
        store = TieredStore(directory, hot_groups=8)
        engine = build_engine(store=store)
        engine.insert_many(rows[:600])
        assert store.cold_count > 0
        engine.store_checkpoint()
        engine.insert_many(rows[600:])  # never checkpointed
        del engine  # crash: no close, no second checkpoint

        resumed = build_engine(store=TieredStore(directory, hot_groups=8))
        assert resumed.flush() == reference_flush(BUILTIN_SQL, rows[:600])

    def test_checkpoint_fsyncs_directory_after_manifest_publish(
        self, tmp_path, monkeypatch
    ):
        # Satellite fix: ``os.replace`` makes the manifest atomic but not
        # durable — without a parent-directory fsync a power loss can
        # roll the rename back and resurrect the previous checkpoint
        # while its segments are already deleted.
        directory = str(tmp_path / "s")
        store = TieredStore(directory, hot_groups=8)
        engine = build_engine(store=store)
        engine.insert_many(make_rows(400, groups=60))

        events: list[tuple[str, str]] = []
        real_replace = os.replace

        def spy_replace(src, dst):
            real_replace(src, dst)
            events.append(("replace", os.path.abspath(dst)))

        monkeypatch.setattr(
            serde_mod, "fsync_dir",
            lambda d: events.append(("fsync", os.path.abspath(d))),
        )
        monkeypatch.setattr("os.replace", spy_replace)
        manifest_path = engine.store_checkpoint()

        root = os.path.abspath(directory)
        published = events.index(("replace", os.path.abspath(manifest_path)))
        assert ("fsync", root) in events[published + 1:], (
            "manifest publish must be followed by a directory fsync"
        )
        # The directory snapshot rename needs the same treatment.
        snap_publishes = [
            i for i, (kind, path) in enumerate(events)
            if kind == "replace" and path.endswith(".dir")
        ]
        assert snap_publishes
        assert ("fsync", root) in events[snap_publishes[-1] + 1:]

    def test_restore_rejects_different_query(self, tmp_path):
        directory = str(tmp_path / "s")
        engine = build_engine(store=TieredStore(directory, hot_groups=4))
        engine.insert_many(make_rows(200))
        engine.store_checkpoint()
        engine.store.close()
        with pytest.raises(StoreError, match="different query"):
            build_engine(SKETCH_SQL, store=TieredStore(directory))

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda m: [], "a list"),
            (lambda m: None, "a NoneType"),
            (lambda m: "x", "a str"),
            # Another version: tests/test_hostile.py.  What the builds
            # before the envelope wrote: bare JSON.
            (lambda m: json.dumps({**m, "version": 4}).encode(), "bad magic"),
            (lambda m: seal(STORE_MANIFEST, b"{not a tree"), "malformed"),
            (lambda m: {k: v for k, v in m.items() if k != "segments"},
             "'segments' is None"),
            (lambda m: {**m, "segments": 5}, "'segments' is 5"),
            (lambda m: {**m, "segments": [5]}, "'segments' is [5]"),
            (lambda m: {**m, "directory_file": None}, "'directory_file' is None"),
        ],
        ids=["list", "null", "str", "bare-json", "not-a-tree", "no-segments",
             "segments-int", "segment-name-int", "directory-file-null"],
    )
    def test_a_malformed_manifest_is_refused_before_any_file_moves(
        self, tmp_path, edit, named
    ):
        directory = str(tmp_path / "s")
        manifest_path = checkpointed_store(directory)
        with open(manifest_path, "rb") as handle:
            manifest = manifest_tree(handle.read())
        edited = edit(manifest)  # an image, or a tree to seal
        with open(manifest_path, "wb") as handle:
            handle.write(edited if type(edited) is bytes else sealed_manifest(edited))
        files = sorted(os.walk(directory))
        with pytest.raises(StoreError) as excinfo:
            build_engine(store=TieredStore(directory, hot_groups=4))
        assert manifest_path in str(excinfo.value)
        assert named in str(excinfo.value)
        assert sorted(os.walk(directory)) == files

    @pytest.mark.parametrize("field", [0, 8], ids=["hash", "offset"])
    def test_a_flipped_slot_bit_in_the_directory_snapshot_is_refused(
        self, tmp_path, field
    ):
        # Such a flip used to recover silently one group short.
        directory = str(tmp_path / "s")
        with open(checkpointed_store(directory), "rb") as handle:
            snap = os.path.join(directory, manifest_tree(handle.read())["directory_file"])
        with open(snap, "rb") as handle:
            image = bytearray(handle.read())
        live = next(  # past envelope (13) and header (24): a slot in use
            at for at in range(37, len(image), 24)
            if image[at + 16:at + 20] not in (bytes(4), b"\xff" * 4)
        )
        image[live + field] ^= 0x10
        with open(snap, "wb") as handle:
            handle.write(image)
        files = sorted(os.walk(directory))
        with pytest.raises(StoreError, match="fails its CRC32") as excinfo:
            build_engine(store=TieredStore(directory, hot_groups=4))
        assert excinfo.value.segment == snap and snap in str(excinfo.value)
        assert sorted(os.walk(directory)) == files

    def test_a_store_of_sealed_json_manifests_is_refused_not_wiped(self, tmp_path):
        # What the builds before a packed manifest wrote, under its old
        # name: refused by its version, every file left where it was.
        directory = str(tmp_path / "s")
        manifest_path = checkpointed_store(directory)
        with open(manifest_path, "rb") as handle:
            manifest = manifest_tree(handle.read())
        with open(manifest_path, "wb") as handle:
            handle.write(seal(STORE_MANIFEST._replace(version=5),
                              json.dumps(manifest).encode()))
        files = sorted(os.walk(directory))
        for read in (lambda: build_engine(store=TieredStore(directory, hot_groups=4)),
                     lambda: describe_store(directory)):
            with pytest.raises(StoreError, match="unsupported version 5 at offset 4"):
                read()
        assert sorted(os.walk(directory)) == files

    def test_describe_store_reports_the_manifest_recovery_reads(self, tmp_path):
        directory = str(tmp_path / "s")
        manifest_path = checkpointed_store(directory)
        with open(manifest_path, "rb") as handle:
            manifest = manifest_tree(handle.read())
        report = describe_store(directory)
        described = report["manifest"]
        assert described["version"] == MANIFEST_VERSION
        for field in ("query", "tuples_in", "segments", "directory_file"):
            assert described[field] == manifest[field]
        listed = {
            entry["name"]: entry for entry in report["segments"]
            if entry["name"] in manifest["segments"]
        }
        assert sorted(listed) == sorted(manifest["segments"])
        assert all(entry["status"] == "ok" for entry in listed.values())
        live = sum(entry["live"] for entry in listed.values())
        assert live == described["groups"] > 0

    def test_describe_store_refuses_what_recovery_refuses(self, tmp_path):
        directory = str(tmp_path / "s")
        manifest_path = checkpointed_store(directory)
        with open(manifest_path, "rb") as handle:
            manifest = manifest_tree(handle.read())
        with open(manifest_path, "wb") as handle:
            handle.write(sealed_manifest(manifest, version=MANIFEST_VERSION + 1))
        with pytest.raises(StoreError, match=f"version {MANIFEST_VERSION + 1} "):
            describe_store(directory)
        with pytest.raises(StoreError, match="not a directory"):
            describe_store(str(tmp_path / "missing"))

    def test_unckpointed_dir_starts_fresh(self, tmp_path):
        directory = str(tmp_path / "s")
        engine = build_engine(store=TieredStore(directory, hot_groups=4))
        engine.insert_many(make_rows(400, groups=60))
        engine.store.close()  # no checkpoint: leftover segments, no manifest
        fresh = build_engine(store=TieredStore(directory, hot_groups=4))
        assert fresh.group_count == 0
        assert fresh.flush() == []


class TestEngineContract:
    def test_a_store_attaches_to_one_engine(self, tmp_path):
        # An engine attaches its store when it is built, so it is fresh;
        # a second engine over the same store would share its hot table.
        store = TieredStore(str(tmp_path / "s"), hot_groups=4)
        build_engine(store=store)
        with pytest.raises(ParameterError, match="already attached"):
            build_engine(store=store)

    def test_a_two_level_engine_is_refused_a_store(self, tmp_path):
        # The Fig. 2(a) low table is the per-tuple model the figure
        # times; a store-backed engine is one-level.
        store = TieredStore(str(tmp_path / "s"), hot_groups=4)
        with pytest.raises(QueryError, match="store-backed engine is one-level"):
            build_engine(store=store, two_level=True)
        rows = make_rows(300, groups=60)
        engine = build_engine(store=store)  # the store was left unattached
        engine.insert_many(rows)
        assert store.stats()["evictions"] > 0
        assert engine.flush() == reference_flush(BUILTIN_SQL, rows)

    def test_store_checkpoint_requires_store(self):
        with pytest.raises(QueryError, match="store") as excinfo:
            build_engine().store_checkpoint()
        # A plain engine's state is the blob, and the message says so.
        assert "partial_state_bytes()" in str(excinfo.value)
        assert "checkpoint()/" not in str(excinfo.value)


@pytest.mark.chaos
class TestCorruptionContainment:
    def corrupt_one_sealed_segment(self, store: TieredStore) -> str:
        seg_dir = os.path.join(store.directory, "segments")
        sealed = sorted(
            name for name in os.listdir(seg_dir) if name.endswith(".seg")
        )
        assert sealed, "test needs at least one sealed segment"
        victim = sealed[0]
        path = os.path.join(seg_dir, victim)
        # Flip one byte inside a record body (past header magic).
        with open(path, "r+b") as handle:
            handle.seek(40)
            byte = handle.read(1)
            handle.seek(40)
            handle.write(bytes([byte[0] ^ 0xFF]))
        return victim

    def test_bit_flip_quarantines_and_keeps_serving(self, tmp_path, monkeypatch):
        rows = make_rows(1_500, groups=250)
        # Small enough that a segment seals despite deflated pages.
        monkeypatch.setattr(tiered_mod, "_SEGMENT_BYTES", 2 << 10)
        # Keep sealed segments around.
        monkeypatch.setattr(tiered_mod, "_COMPACT_MIN_SEGMENTS", 10_000)
        store = TieredStore(str(tmp_path / "s"), hot_groups=8)
        engine = build_engine(store=store)
        engine.insert_many(rows)
        victim = self.corrupt_one_sealed_segment(store)

        with pytest.raises(StoreError) as excinfo:
            engine.flush()
        # The error names the damaged segment and offset...
        assert victim in str(excinfo.value)
        assert excinfo.value.segment is not None
        assert excinfo.value.offset is not None
        # ...the segment is renamed aside, not left in the read path...
        seg_dir = os.path.join(store.directory, "segments")
        assert victim not in os.listdir(seg_dir)
        assert (victim + ".quarantined") in os.listdir(seg_dir)
        assert store.stats()["quarantined"] == 1
        # ...and the store keeps serving everything else.
        survivors = engine.flush()
        reference = reference_flush(BUILTIN_SQL, rows)
        assert 0 < len(survivors) < len(reference)
        by_key = {(r["tb"], r["destIP"]): r for r in reference}
        for row in survivors:
            assert row == by_key[(row["tb"], row["destIP"])]


class TestObservability:
    def test_stats_count_the_spill_and_read_path(self, tmp_path):
        # The store's own counters are its one record: no registry copy.
        store = TieredStore(str(tmp_path / "counts"), hot_groups=8)
        engine = build_engine(SKETCH_SQL, store=store)
        rows = make_rows(600, groups=80)
        engine.insert_many(rows)
        stats = store.stats()
        assert stats["hot_groups"] <= 8
        assert stats["cold_groups"] > 0
        assert 0 < stats["spill_pages"] < stats["evictions"]
        assert engine.flush() == reference_flush(SKETCH_SQL, rows)
        stats = store.stats()  # the flush read every cold group back
        assert stats["pages_read"] > 0
        assert stats["rows_decoded"] > 0

    def test_stats_shape(self, tmp_path):
        store = TieredStore(str(tmp_path / "shape2"), hot_groups=4)
        engine = build_engine(store=store)
        engine.insert_many(make_rows(300, groups=50))
        stats = store.stats()
        for key in (
            "hot_groups", "hot_budget", "cold_groups", "segments",
            "segment_bytes", "evictions", "fault_ins", "spilled_bytes",
            "spill_pages", "pages_read", "rows_decoded",
            "compactions", "quarantined",
        ):
            assert key in stats
        assert stats["hot_groups"] <= stats["hot_budget"] == 4
