"""The four workloads: query, trace shape, topology, reference answer.

Every trace comes from ``repro.workloads.netflow.PacketTraceGenerator``
with the run's ``--seed``; batches are 2048 rows and the column batches
are built once per set-up (their cost is a layer metric, not part of
in-process ingest).  Sizes are a fifth to a third of what the issue probed so
that a run fits the driver's time budget; the *shape* of each workload (group
count against hot tier, sketch-valued against scalar state, wire against
no wire) is what it was chosen for.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field

from repro.core.cols import rows_to_cols
from repro.dsms.engine import QueryEngine
from repro.dsms.parser import parse_query
from repro.dsms.udaf import default_registry
from repro.serve import protocol
from repro.workloads.netflow import (
    PACKET_SCHEMA,
    PacketTraceConfig,
    PacketTraceGenerator,
)

__all__ = [
    "BATCH_ROWS", "EXP_RATE", "WORKLOADS", "Inputs", "Workload",
    "build_inputs", "canonical", "guard_sizes", "mismatch_rows",
    "parse", "reference", "trace_digest",
]

BATCH_ROWS = 2048

#: Forward-exponential weight, per-minute landmark (the Fig. 3/4 idiom).
EXP_RATE = 0.1
FWD_EXP = f"exp((time % 60) * {EXP_RATE})"
#: Forward-polynomial weight g(n) = n^2, per-minute landmark (Fig. 2(a)).
_FWD_POLY = "(time % 60) * (time % 60)"

_SKETCH_SQL = (
    f"select tb, destPort, fwd_hh(destIP, {FWD_EXP}) as hh, "
    f"fwd_quantiles(len, {FWD_EXP}) as q, "
    f"prisamp(srcIP, {FWD_EXP}) as samp, sum({FWD_EXP}) as w "
    "from TCP group by time/60 as tb, destPort"
)
_COUNTSUM_SQL = (
    f"select tb, destIP, destPort, sum({_FWD_POLY}) / 3600 as c, "
    f"sum(len * {_FWD_POLY}) / 3600 as s "
    "from TCP group by time/60 as tb, destIP, destPort"
)
#: No time bucket: one long-lived group per destination, landmark 0.
_SPILL_SQL = (
    "select destIP, sum(time * time) as c, sum(len * time * time) as s "
    "from TCP group by destIP"
)


@dataclass(frozen=True)
class Workload:
    name: str
    topology: str  # key of topologies.TOPOLOGIES this workload is timed on
    sql: str
    rows: int
    trace: dict  # PacketTraceConfig fields other than rate and seed
    hot_groups: int = 0  # hot tier of the store topology, about 5 % of groups
    query_every: int = 0  # a live query after every Nth batch of the pass
    #: per round, after the ingest pass: (queries, checkpoints, ack probes)
    probes: tuple = (2, 3, 20)

    def scaled(self, factor: float) -> "Workload":
        """The same shape at another size (the self-tests' smoke size)."""
        return dataclasses.replace(
            self,
            rows=max(BATCH_ROWS, int(self.rows * factor)),
            hot_groups=max(4, int(self.hot_groups * factor)),
        )


_SERVED_TRACE = dict(
    duration_sec=120.0, num_dest_ips=1000, num_dest_ports=4,
    zipf_exponent=1.1,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sketch_inproc",
            topology="inproc",
            sql=_SKETCH_SQL,
            rows=120_000,
            trace=dict(duration_sec=300.0, num_dest_ports=8,
                       zipf_exponent=1.1, jitter_sec=2.0),
        ),
        Workload(
            name="countsum_served",
            topology="served",
            sql=_COUNTSUM_SQL,
            rows=100_000,
            trace=_SERVED_TRACE,
        ),
        Workload(
            name="spill_store",
            topology="store",
            sql=_SPILL_SQL,
            rows=60_000,
            trace=dict(duration_sec=300.0, num_dest_ips=200_000,
                       num_dest_ports=4, zipf_exponent=1.1),
            hot_groups=600,
            probes=(1, 3, 20),  # a live query here costs as much as a pass
        ),
        Workload(
            name="readmix_cluster",
            topology="cluster",
            sql=_COUNTSUM_SQL,
            rows=100_000,
            trace=_SERVED_TRACE,
            query_every=10,
        ),
    )
}


@dataclass
class Inputs:
    """What one set-up builds from the seed; the program sees only this."""

    rows: list
    row_batches: list
    col_batches: list
    expected: list = field(default_factory=list)  # canonical reference rows

    @property
    def groups(self) -> int:
        return len(self.expected)


def parse(sql: str):
    """A fresh registry per parse: sampler UDAFs count their RNG streams
    on the registry's instances, so engines must not share one."""
    return parse_query(sql, default_registry())


def build_inputs(workload: Workload, seed: int, recorder) -> Inputs:
    """Generate the trace and its batches (spans: generator, cols)."""
    config = PacketTraceConfig(
        rate_per_sec=workload.rows / workload.trace["duration_sec"],
        seed=seed,
        **workload.trace,
    )
    with recorder.span("workloads.netflow.generate"):
        rows = PacketTraceGenerator(config).materialize()
    row_batches = [
        rows[start:start + BATCH_ROWS]
        for start in range(0, len(rows), BATCH_ROWS)
    ]
    col_batches = []
    for seq, batch in enumerate(row_batches):
        with recorder.span("core.cols.rows_to_cols", seq=seq):
            col_batches.append(rows_to_cols(batch))
    return Inputs(rows, row_batches, col_batches)


def trace_digest(inputs: Inputs) -> str:
    """Identifies the generated trace in ``--out`` records."""
    return hashlib.sha256(repr(inputs.rows).encode("utf-8")).hexdigest()[:16]


def canonical(rows) -> list[str]:
    """Result rows in the legacy suites' canonical form."""
    return sorted(repr(sorted(dict(row).items())) for row in rows)


def reference(workload: Workload, inputs: Inputs) -> dict:
    """Fill ``inputs.expected`` from a single in-process engine, row by row.

    ``run_query`` drives this same ``process`` path but closes a bucket
    whenever the first GROUP BY key changes: with no time bucket
    (``spill_store``) or out-of-order rows (``sketch_inproc``) that splits
    one group into many rows, so the reference reads the engine with one
    ``flush`` instead.  On the two in-order bucketed workloads both give
    the same rows (asserted in the self-tests).

    Returns the frame sizes the answer implies, for :func:`guard_sizes`.
    """
    engine = QueryEngine(parse(workload.sql), PACKET_SCHEMA)
    for row in inputs.rows:
        engine.process(row)
    partial_bytes = len(engine.partial_state_bytes())
    rows = engine.flush()
    inputs.expected = canonical(rows)
    result_bytes = len(json.dumps(protocol.encode_result_rows(rows)))
    return {"partial_bytes": partial_bytes, "result_bytes": result_bytes}


def mismatch_rows(got: list[str], expected: list[str]) -> int:
    """Canonical rows missing from, plus rows foreign to, the reference."""
    have, want = Counter(got), Counter(expected)
    return sum((want - have).values()) + sum((have - want).values())


def guard_sizes(inputs: Inputs, sizes: dict) -> None:
    """Refuse, before timing, inputs the wire would refuse during it.

    Probing for this benchmark found that a RESULT frame of 11.3 MB (~80k
    groups) kills the connection at the 8 MiB ``MAX_FRAME_BYTES``, and that
    a rejected batch can deadlock ``flush()`` (ROADMAP open item 1).  So
    nothing that could be rejected is ever sent: every batch is validated
    against the schema, and INSERT_COLS, RESULT and PARTIALS_OK (hex, so
    twice the blob, all groups on one node at worst) must each stay under
    half the limit.
    """
    budget = protocol.MAX_FRAME_BYTES // 2
    for cols in inputs.col_batches:
        if PACKET_SCHEMA.validate_cols(cols) > BATCH_ROWS:
            raise ValueError(f"batch exceeds {BATCH_ROWS} rows")
    frames = {
        "INSERT_COLS": max(
            len(protocol.encode_cols(cols, seq=0))
            for cols in (inputs.col_batches[0], inputs.col_batches[-1])
        ),
        "RESULT": sizes["result_bytes"],
        "PARTIALS_OK": 2 * sizes["partial_bytes"],
    }
    for name, size in frames.items():
        if size > budget:
            raise ValueError(
                f"{name} frame would be {size} B; the benchmark keeps every "
                f"frame under {budget} B (MAX_FRAME_BYTES / 2)"
            )
