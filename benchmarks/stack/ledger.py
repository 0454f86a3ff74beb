"""The per-layer ledger: the cost of each layer on a workload's path,
measured from outside.

One *ledger round* puts the workload's batches through the plain engine
(the single shared baseline) and through its own topology under a span
recorder.  Where a socket hides the server side (``countsum_served``,
``readmix_cluster``) it unrolls the pipe in-process on the same batches
(``rows_to_cols`` → ``encode_cols`` → ``FrameDecoder`` → ``decode_cols`` →
``validate_cols`` → ``backend.insert_cols``, then the RESULT codec), and
it micro-times the layers the topology calls only from inside (UDAF
``update_many``; segment append/read and key directory at ``spill_store``;
routing keys, ring lookup and the fold at ``readmix_cluster``).  Each
metric is "time of the benchmark's calls into that module's public
functions ÷ work".  A layer that is not on the workload's path is not
measured there; ``run.py`` prints 0 for it.  Timers inside ``src/`` are a
later issue, not this one.

Untraced passes bracket the traced ones so that the ratios
(``dsms.engine.paired_overhead_ratio``, ``trace.overhead_ratio``) compare
neighbours in time, which cancels host drift the way PR 6's wire-overhead
gate does.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import statistics
from dataclasses import dataclass

from repro.cluster.ring import HashRing
from repro.core.cols import pack_cols, rows_to_cols, unpack_cols
from repro.core.merge import merge_all
from repro.core.protocol import tag_key
from repro.dsms.engine import QueryEngine
from repro.dsms.udaf import default_registry
from repro.parallel.routing import GroupKeyRouter
from repro.serve import build_backend, protocol
from repro.store import KeyDirectory, SegmentWriter, canonical_key, read_record_at
from repro.store.segment import key_hash
from repro.workloads.netflow import PACKET_SCHEMA

from measure import Ops, run_round, timings
from spans import NULL_RECORDER, SpanRecorder
from workloads import EXP_RATE, canonical, mismatch_rows, parse

__all__ = ["COUNT_METRICS", "LedgerRound", "ledger_round", "combine"]

#: Rows of the trace the UDAF kernels and the routing/ring lookups are
#: micro-timed on; cold groups sampled for the store's record-level calls.
_KERNEL_ROWS = 20_000
_COLD_SAMPLE = 400
_FAULT_SAMPLE = 200

#: Names and units of the ledger's metrics are the ``per_layer`` list of
#: ``BENCHMARK.json`` — the contract is the one place they are written down.
#: These are the ones that are counts made by the program, not times: they
#: repeat exactly for one seed (``store.tiered.pressure`` is an EWMA that folds
#: read latency in, so it is listed with the counts but is not exact).
COUNT_METRICS = frozenset({
    "core.cols.wire_bytes_per_row",
    "serve.protocol.result_bytes_per_group",
    "dsms.engine.groups",
    "dsms.engine.low_evictions",
    "dsms.udaf.summary_bytes_per_group",
    "store.tiered.fault_ins",
    "store.tiered.evictions",
    "store.tiered.hot_hit_ratio",
    "store.tiered.spilled_bytes_per_row",
    "store.segment.bytes_per_group",
    "store.directory.bytes",
    "serve.server.frames_total",
    "serve.server.errors_total",
    "serve.server.checkpoint_bytes_per_group",
    "cluster.coordinator.blob_bytes_per_group",
    "cluster.coordinator.node_skew",
    "ops_failed_share",
    "result_mismatch_rows",
})


def _us(total_ns: float, work: int) -> float:
    return total_ns / 1e3 / max(work, 1)


def _us_per_row(round_) -> float:
    return round_.ingest_s * 1e6 / max(round_.rows_acked, 1)


@dataclass
class LedgerRound:
    values: dict  # metric name -> value
    recorder: SpanRecorder
    ops: Ops
    mismatch_rows: int  # over every answer this round checked
    #: Self time per span name along the workload's *own* path: its
    #: topology's traced round plus, where a socket hides the server
    #: side, the unrolled pipe.  This is where a workload's dominant
    #: layer shows.
    own_self_ns: dict


def ledger_round(workload, inputs, setup_recorder, workdir) -> LedgerRound:
    """One pass over the layers on this workload's path, on its batches."""
    rec = SpanRecorder()
    ops = Ops()
    out: dict[str, float] = {}
    mismatches: list[int] = []
    rows = len(inputs.rows)
    groups = max(inputs.groups, 1)
    own = workload.topology

    def untraced(topology):
        """The own topology with its probes: these passes also give the
        timing medians that could not be end-to-end (README, Bounds)."""
        return run_round(
            workload, inputs, workdir, NULL_RECORDER, ops, topology=topology,
            probes=workload.probes if topology == own else (0, 0, 0),
            query_every=workload.query_every if topology == own else 0,
        )

    # Untraced passes bracket each other and the traced ones, so the ratios
    # compare neighbours in time.
    base1 = untraced("inproc")
    own1 = untraced(own)
    base2 = untraced("inproc")
    out["dsms.engine.paired_overhead_ratio"] = _us_per_row(own1) / statistics.mean(
        [_us_per_row(base1), _us_per_row(base2)]
    )

    # The shared baseline (plain engine), then the workload's own topology;
    # for an in-process workload they are one and the same round.
    marks = {}
    rounds = {}
    for topology in dict.fromkeys(["inproc", own]):
        first = len(rec.spans)
        rounds[topology] = run_round(
            workload, inputs, workdir, rec, ops, topology=topology,
            query_every=workload.query_every if topology == own else 0,
            inspect=functools.partial(
                _INSPECT[topology], rec=rec, out=out, workdir=workdir
            ),
        )
        if rounds[topology].mismatch is not None:  # None: the query failed
            mismatches.append(rounds[topology].mismatch)
        marks[topology] = (first, len(rec.spans))
    own2 = untraced(own)
    out["trace.overhead_ratio"] = _us_per_row(rounds[own]) / statistics.mean(
        [_us_per_row(own1), _us_per_row(own2)]
    )
    out.update(timings([own1, own2]))

    _engine_metrics(
        rounds["inproc"], rec.spans[slice(*marks["inproc"])], out, rows, groups
    )
    _insert_many(workload, inputs, rec, out)
    _udaf_kernels(workload, inputs, rec, out)
    own_path = [marks[own]]
    if own == "store":
        # The same pairing, under the name the store's readers look for.
        out["store.tiered.ingest_overhead_ratio"] = out[
            "dsms.engine.paired_overhead_ratio"
        ]
    elif own in ("served", "cluster"):
        # Both put a socket between the caller and the engine.
        first = len(rec.spans)
        mismatches.append(_unrolled_pipe(workload, inputs, rec, out))
        own_path.append((first, len(rec.spans)))
        if own == "served":
            _served_metrics(rounds[own], rec, out, rows, groups)
        else:
            _cluster_metrics(rounds[own], rec, out, rows, groups)
            _routing_and_ring(workload, inputs, rec, out)
    out["workloads.netflow.gen_us_per_row"] = _us(
        setup_recorder.total_ns("workloads.netflow.generate"), rows
    )
    out["dsms.parser.parse_ms"] = setup_recorder.total_ns("dsms.parser.parse") / 1e6
    return LedgerRound(
        out, rec, ops, sum(mismatches), rec.self_times_ns(own_path)
    )


# -- per-layer numbers read off one traced round ----------------------------------


def _engine_metrics(round_, spans, out, rows, groups) -> None:
    out["dsms.engine.insert_cols_us_per_row"] = (
        (round_.ingest_s - round_.flush_s) * 1e6 / rows
    )
    for call in ("partial_state_bytes", "merge_partial", "flush"):
        durations = [
            end - start
            for name, start, end, _parent, _seq in spans
            if name == f"dsms.engine.{call}"
        ]
        out[f"dsms.engine.{call}_us_per_group"] = _us(
            statistics.mean(durations), groups
        )


def _served_metrics(round_, rec, out, rows, groups) -> None:
    out["serve.client.insert_us_per_row"] = (
        (round_.ingest_s - round_.flush_s) * 1e6 / rows
    )
    out["serve.client.flush_wait_ms"] = round_.flush_s * 1e3
    out["serve.client.blocked_share"] = 1.0 - round_.own_cpu_s / round_.pass_s
    acks = sorted(round_.ack_ms)
    out["serve.client.ack_ms_p95"] = acks[math.ceil(0.95 * len(acks)) - 1]
    out["serve.client.query_ms_max"] = max(round_.query_ms)
    out["serve.server.cpu_us_per_row"] = (
        (round_.cpu_s - round_.own_cpu_s) * 1e6 / rows
    )
    out["serve.server.startup_ms"] = rec.total_ns("serve.server.startup") / 1e6
    out["serve.server.checkpoint_bytes_per_group"] = round_.state_bytes / groups


def _cluster_metrics(round_, rec, out, rows, groups) -> None:
    out["cluster.coordinator.insert_cols_us_per_row"] = (
        (round_.ingest_s - round_.flush_s) * 1e6 / rows
    )
    out["cluster.coordinator.flush_ms"] = round_.flush_s * 1e3
    gather_ms = statistics.mean(
        rec.durations_ns("cluster.coordinator.partial_blobs")
    ) / 1e6
    out["cluster.coordinator.partial_blobs_ms"] = gather_ms
    out["cluster.coordinator.fold_ms"] = (
        statistics.median(round_.query_ms) - gather_ms
    )
    out["cluster.coordinator.blob_bytes_per_group"] = round_.state_bytes / groups


# -- inspect hooks: read layer counters off a loaded topology ---------------------


def _inspect_inproc(topo, round_, rec, out, workdir) -> None:
    engine = topo.engine
    out["dsms.engine.groups"] = float(engine.group_count)
    out["dsms.engine.low_evictions"] = float(engine.low_evictions)
    out["dsms.udaf.summary_bytes_per_group"] = engine.state_size_per_group()


def _inspect_store(topo, round_, rec, out, workdir) -> None:
    store, engine, stats = topo.store, topo.engine, topo.stats
    ingested = max(engine.tuples_processed, 1)
    out["store.tiered.fault_ins"] = float(stats["fault_ins"])
    out["store.tiered.evictions"] = float(stats["evictions"])
    out["store.tiered.hot_hit_ratio"] = 1.0 - stats["fault_ins"] / ingested
    out["store.tiered.spilled_bytes_per_row"] = stats["spilled_bytes"] / ingested
    out["store.tiered.pressure"] = stats["pressure"]
    out["store.directory.bytes"] = float(stats["directory_bytes"])
    out["store.tiered.checkpoint_ms"] = statistics.mean(
        rec.durations_ns("store.tiered.checkpoint")
    ) / 1e6

    cold = list(itertools.islice(
        store.cold_key_set(), _COLD_SAMPLE + _FAULT_SAMPLE
    ))
    sample, victims = cold[:len(cold) // 2], cold[len(cold) // 2:]
    records = []
    for key in sample:
        with rec.span("store.tiered.encoded_states"):
            encoded = store.encoded_states(key)
        records.append(([tag_key(part) for part in key], encoded))
    count = max(len(records), 1)
    out["store.tiered.encoded_states_us_per_group"] = _us(
        rec.total_ns("store.tiered.encoded_states"), count
    )
    _segment_and_directory(records, rec, out, workdir)

    # Destructive from here on: fault_in hands the state to the caller and
    # forgets it, and flush empties the engine.  The topology is discarded.
    for key in victims:
        with rec.span("store.tiered.fault_in"):
            store.fault_in(key)
    faults = rec.durations_ns("store.tiered.fault_in")
    out["store.tiered.fault_in_us_p50"] = (
        statistics.median(faults) / 1e3 if faults else float("nan")
    )
    with rec.span("store.tiered.cold_scan"):
        scanned = len(engine.flush())
    out["store.tiered.cold_scan_us_per_group"] = _us(
        rec.total_ns("store.tiered.cold_scan"), scanned
    )


def _segment_and_directory(records, rec, out, workdir) -> None:
    count = max(len(records), 1)
    path = os.path.join(workdir, "ledger.seg")
    writer = SegmentWriter(path)
    try:
        with rec.span("store.segment.append"):
            locations = [
                writer.append(tagged, encoded) for tagged, encoded in records
            ]
        with rec.span("store.segment.finalize"):
            writer.finalize()
        with rec.span("store.segment.read_record_at"):
            for offset, length in locations:
                read_record_at(path, offset, length)
        size = os.path.getsize(path)
    finally:
        writer.abort()
        if os.path.exists(path):
            os.unlink(path)
    out["store.segment.append_us_per_record"] = _us(
        rec.total_ns("store.segment.append"), count
    )
    out["store.segment.read_us_per_record"] = _us(
        rec.total_ns("store.segment.read_record_at"), count
    )
    out["store.segment.bytes_per_group"] = size / count

    hashes = [key_hash(canonical_key(tagged)) for tagged, _ in records]
    dir_path = os.path.join(workdir, "ledger.dir")
    directory = KeyDirectory(dir_path)
    try:
        with rec.span("store.directory.put"):
            for h, (offset, length) in zip(hashes, locations):
                directory.put(h, 0, offset, length)
        with rec.span("store.directory.lookup"):
            for h in hashes:
                directory.lookup(h)
    finally:
        directory.close()
        os.unlink(dir_path)
    out["store.directory.put_us"] = _us(rec.total_ns("store.directory.put"), count)
    out["store.directory.lookup_us"] = _us(
        rec.total_ns("store.directory.lookup"), count
    )


def _inspect_served(topo, round_, rec, out, workdir) -> None:
    server = topo.client.stats()["server"]
    out["serve.server.frames_total"] = float(server["frames_total"])
    out["serve.server.errors_total"] = float(server["errors_total"])


def _inspect_cluster(topo, round_, rec, out, workdir) -> None:
    coordinator = topo.coordinator
    sent = [node["rows_sent"] for node in coordinator.stats()["per_node"].values()]
    out["cluster.coordinator.node_skew"] = max(sent) / statistics.mean(sent)
    # The fold a fan-out query does after the gather, unrolled so that the
    # blob codec, merge_partial, merge_all and flush each get a span.
    blobs = coordinator.partial_blobs()
    groups = max(topo.inputs.groups, 1)
    with rec.span("serve.protocol.blob_codec"):
        blobs = protocol.decode_blobs(protocol.encode_blobs(blobs))
    collectors = []
    for blob in blobs:
        collector = QueryEngine(parse(topo.sql), PACKET_SCHEMA)
        with rec.span("cluster.fold.merge_partial"):
            collector.merge_partial(blob)
        collectors.append(collector)
    with rec.span("core.merge.merge_all"):
        merged = merge_all(collectors)
    with rec.span("cluster.fold.flush"):
        merged.flush()
    out["serve.protocol.blob_codec_us_per_group"] = _us(
        rec.total_ns("serve.protocol.blob_codec"), groups
    )
    out["core.merge.merge_all_us_per_group"] = _us(
        rec.total_ns("core.merge.merge_all"), groups
    )


_INSPECT = {
    "inproc": _inspect_inproc,
    "store": _inspect_store,
    "served": _inspect_served,
    "cluster": _inspect_cluster,
}


# -- the client→server pipe, unrolled in-process on the same batches --------------


def _unrolled_pipe(workload, inputs, rec, out) -> int:
    """Returns the mismatch of the piped answer against the reference."""
    rows = len(inputs.rows)
    groups = max(inputs.groups, 1)
    backend = build_backend(workload.sql, PACKET_SCHEMA)
    decoder = protocol.FrameDecoder()
    wire_bytes = 0
    try:
        for seq, batch in enumerate(inputs.row_batches):
            with rec.span("pipe.batch", seq=seq):
                with rec.span("core.cols.rows_to_cols", seq=seq):
                    cols = rows_to_cols(batch)
                with rec.span("core.cols.pack_cols", seq=seq):
                    body = pack_cols(cols, seq=seq)
                with rec.span("core.cols.unpack_cols", seq=seq):
                    unpack_cols(body)
                with rec.span("serve.protocol.encode_cols", seq=seq):
                    frame = protocol.encode_cols(cols, seq=seq)
                wire_bytes += len(frame)
                with rec.span("serve.protocol.frame_decode", seq=seq):
                    decoder.feed(frame)
                    (decoded,) = decoder.frames()
                with rec.span("serve.protocol.decode_cols", seq=seq):
                    received, _seq, _count = protocol.decode_cols(
                        memoryview(frame)[protocol.HEADER.size + 1:]
                    )
                with rec.span("dsms.schema.validate_cols", seq=seq):
                    PACKET_SCHEMA.validate_cols(received)
                with rec.span("serve.backend.insert_cols", seq=seq):
                    backend.insert_cols(received)
        with rec.span("pipe.query"):
            with rec.span("serve.backend.query"):
                result = backend.query()
            with rec.span("serve.protocol.result_encode"):
                frame = protocol.encode_frame(
                    protocol.RESULT,
                    {"rows": protocol.encode_result_rows(result)},
                )
            with rec.span("serve.protocol.result_decode"):
                decoder.feed(frame)
                (reply,) = decoder.frames()
                answer = protocol.decode_result_rows(reply.payload["rows"])
    finally:
        backend.close()
    for metric, span, work in (
        ("core.cols.rows_to_cols_us_per_row", "core.cols.rows_to_cols", rows),
        ("core.cols.pack_us_per_row", "core.cols.pack_cols", rows),
        ("core.cols.unpack_us_per_row", "core.cols.unpack_cols", rows),
        ("serve.protocol.encode_cols_us_per_row", "serve.protocol.encode_cols", rows),
        ("serve.protocol.frame_decode_us_per_row", "serve.protocol.frame_decode", rows),
        ("serve.protocol.decode_cols_us_per_row", "serve.protocol.decode_cols", rows),
        ("dsms.schema.validate_cols_us_per_row", "dsms.schema.validate_cols", rows),
        ("serve.backend.insert_cols_us_per_row", "serve.backend.insert_cols", rows),
        ("serve.backend.query_us_per_group", "serve.backend.query", groups),
        ("serve.protocol.result_encode_us_per_group", "serve.protocol.result_encode", groups),
        ("serve.protocol.result_decode_us_per_group", "serve.protocol.result_decode", groups),
    ):
        out[metric] = _us(rec.total_ns(span), work)
    out["core.cols.wire_bytes_per_row"] = wire_bytes / rows
    out["serve.protocol.result_bytes_per_group"] = len(frame) / groups
    return mismatch_rows(canonical(answer), inputs.expected)


def _insert_many(workload, inputs, rec, out) -> None:
    engine = QueryEngine(parse(workload.sql), PACKET_SCHEMA)
    for seq, batch in enumerate(inputs.row_batches):
        with rec.span("dsms.engine.insert_many", seq=seq):
            engine.insert_many(batch)
    out["dsms.engine.insert_many_us_per_row"] = _us(
        rec.total_ns("dsms.engine.insert_many"), len(inputs.rows)
    )


def _udaf_kernels(workload, inputs, rec, out) -> None:
    """``update_many`` of the UDAFs the query names, one state each, on
    argument lists cut from the trace."""
    registry = default_registry()
    schema = PACKET_SCHEMA
    rows = inputs.rows[:_KERNEL_ROWS]
    time_at, src, dest, length = (
        schema.index_of(name) for name in ("time", "srcIP", "destIP", "len")
    )
    weights = [math.exp((row[time_at] % 60) * EXP_RATE) for row in rows]
    arguments = {
        "fwd_hh": [(row[dest], w) for row, w in zip(rows, weights)],
        "fwd_quantiles": [(row[length], w) for row, w in zip(rows, weights)],
        "prisamp": [(row[src], w) for row, w in zip(rows, weights)],
        "sum": [(w,) for w in weights],
    }
    for name, batch in arguments.items():
        if f"{name}(" not in workload.sql:
            continue
        udaf = registry.get(name)
        state = udaf.create()
        with rec.span(f"dsms.udaf.{name}.update_many"):
            udaf.update_many(state, batch)
        out[f"dsms.udaf.{name}.update_us_per_row"] = _us(
            rec.total_ns(f"dsms.udaf.{name}.update_many"), len(batch)
        )


def _routing_and_ring(workload, inputs, rec, out) -> None:
    router = GroupKeyRouter(parse(workload.sql), PACKET_SCHEMA)
    ring = HashRing(["node0", "node1", "node2"])
    routed = 0
    for seq, cols in enumerate(inputs.col_batches):
        if routed >= _KERNEL_ROWS:
            break
        count = len(cols[0])
        with rec.span("parallel.routing.keys", seq=seq):
            keys = router.keys(cols, count)
        with rec.span("cluster.ring.node_for", seq=seq):
            for key in keys:
                ring.node_for(key)
        routed += count
    out["parallel.routing.keys_us_per_row"] = _us(
        rec.total_ns("parallel.routing.keys"), routed
    )
    out["cluster.ring.node_for_us_per_key"] = _us(
        rec.total_ns("cluster.ring.node_for"), routed
    )


def combine(rounds: list[dict]) -> dict:
    """Median of every measured metric over the ledger rounds that were run."""
    return {
        name: statistics.median(r[name] for r in rounds) for name in rounds[0]
    }
