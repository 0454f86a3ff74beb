"""Crash chaos: SIGKILL a store mid-flight, recovery answers exactly.

The child process runs a store-backed engine with small segments and an
eager compaction threshold, checkpoints once, then churns groups forever
so spilling, segment writes and the inline compaction inside each
``maintain()`` are all in flight when the parent kills it.  The child
reports the first compaction, and the parent kills only after that
report, so every run covers a store that has compacted since its
checkpoint.  Whatever instant the KILL lands, reopening the directory
must recover exactly the checkpointed prefix — no partial segment,
half-renamed snapshot, or mid-compaction repoint may leak into results.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro.store import TieredStore
from tests.store.test_tiered import (
    SKETCH_SQL,
    build_engine,
    make_rows,
    reference_flush,
)

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

CHILD = """
import sys
sys.path.insert(0, {root!r})
sys.path.insert(0, {src!r})
from tests.store.test_tiered import SKETCH_SQL, build_engine, make_rows
import repro.store.tiered as tiered
from repro.store import TieredStore

tiered._SEGMENT_BYTES = 4 << 10
tiered._COMPACT_GARBAGE_RATIO = 0.1
directory = sys.argv[1]
rows = make_rows(1_500, groups=250)
store = TieredStore(directory, hot_groups=8)
engine = build_engine(SKETCH_SQL, store=store)
engine.insert_many(rows[:600])
engine.store_checkpoint()
print("CKPT", flush=True)
i = 0


def churn():  # evictions, fault-ins and inline compactions
    global i
    engine.insert_many(rows[600 + i : 600 + i + 30])
    i = (i + 30) % (len(rows) - 630)


for _ in range(5_000):
    churn()
    if store.stats()["compactions"] > 0:
        break
else:
    sys.exit("no compaction ran")
print("COMPACTED", flush=True)
while True:  # until killed
    churn()
"""


@pytest.mark.chaos
class TestKillMidCompaction:
    @pytest.mark.parametrize("delay", [0.05, 0.25])
    def test_sigkill_recovers_to_checkpoint_exactly(self, tmp_path, delay):
        directory = str(tmp_path / "s")
        script = tmp_path / "child.py"
        script.write_text(
            CHILD.format(root=ROOT, src=os.path.join(ROOT, "src"))
        )
        proc = subprocess.Popen(
            [sys.executable, str(script), directory],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            for expected in ("CKPT", "COMPACTED"):
                line = proc.stdout.readline()
                assert line.strip() == expected, proc.stderr.read()
            time.sleep(delay)  # let post-checkpoint churn + compaction run
        finally:
            proc.kill()
            proc.wait()

        rows = make_rows(1_500, groups=250)
        resumed = build_engine(
            SKETCH_SQL, store=TieredStore(directory, hot_groups=8)
        )
        assert resumed.flush() == reference_flush(SKETCH_SQL, rows[:600])
        # Recovery found real corruption nowhere — only unreferenced
        # leftovers, which it wipes silently.
        assert resumed.store.stats()["quarantined"] == 0
