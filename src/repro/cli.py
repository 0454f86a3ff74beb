"""Command-line interface: ``python -m repro <command>``.

These subcommands make the library usable without writing Python:

``trace``
    Generate a synthetic packet trace as CSV::

        python -m repro trace --duration 10 --rate 5000 --out trace.csv

``query``
    Run a GSQL-like query over a CSV trace and print result rows::

        python -m repro query "select tb, destIP, count(*) as c from TCP
            group by time/60 as tb, destIP" --trace trace.csv

``figure``
    Regenerate one of the paper's figures as a text table::

        python -m repro figure fig5

``summaries``
    Enumerate the summary registry::

        python -m repro summaries list

``bench``
    Run the downscaled benchmark suite, writing a machine-readable
    ``BENCH_<name>.json`` artifact plus an instrumented stats snapshot::

        python -m repro bench smoke --out-dir bench-out

``stats``
    Render the observability snapshot left by an instrumented run::

        python -m repro stats --json

``serve``
    Run the continuous-query server (``repro.serve``) for one query::

        python -m repro serve "select tb, destIP, count(*) as c from TCP
            group by time/60 as tb, destIP" --port 9440 --shards 4

``client``
    Talk to a running server: ``replay`` a trace CSV into it, ``query``
    it, ``subscribe`` to periodic results, fetch ``stats``, or force a
    ``checkpoint``::

        python -m repro client replay --trace trace.csv --port 9440
        python -m repro client query --port 9440

``cluster``
    Run one query on a multi-node cluster (``repro.cluster``): N serving
    nodes behind a consistent-hash coordinator, fed a trace and queried
    with exact fan-out/fold.  ``--verify`` cross-checks the cluster
    answer against a single in-process engine::

        python -m repro cluster "select tb, destIP, count(*) as c from TCP
            group by time/60 as tb, destIP" --nodes 3 --verify

``checkpoint``
    Inspect a server checkpoint file (``serve --state-dir``)::

        python -m repro checkpoint inspect /var/lib/repro/checkpoint.bin

``store``
    Inspect a tiered group-state store directory (``repro.store``, as
    written by ``serve --store-dir``)::

        python -m repro store inspect /var/lib/repro/state
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import TYPE_CHECKING, Sequence

# Nothing else of the library at module level: each subcommand imports
# what it runs, so a `repro serve` child does not pay for `repro.bench`.
from repro.core.errors import DecayError

if TYPE_CHECKING:
    from repro.dsms.schema import Schema

__all__ = ["main"]


def write_trace_csv(rows: Sequence[tuple], schema: Schema, path: str) -> None:
    """Write a trace as CSV with a schema-derived header."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(schema.names())
        writer.writerows(rows)


def read_trace_csv(path: str, schema: Schema) -> list[tuple]:
    """Read a CSV trace back into typed tuples matching ``schema``."""
    converters = [field.type.python_type() for field in schema.fields]
    rows: list[tuple] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != schema.names():
            raise DecayError(
                f"trace header {header!r} does not match schema {schema.names()}"
            )
        for record in reader:
            rows.append(tuple(conv(v) for conv, v in zip(converters, record)))
    return rows


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.workloads.netflow import (
        PACKET_SCHEMA,
        PacketTraceConfig,
        PacketTraceGenerator,
    )

    config = PacketTraceConfig(
        duration_sec=args.duration,
        rate_per_sec=args.rate,
        tcp_fraction=1.0 if args.proto == "tcp" else
        (0.0 if args.proto == "udp" else 0.8),
        num_dest_ips=args.dest_ips,
        seed=args.seed,
        jitter_sec=args.jitter,
    )
    trace = PacketTraceGenerator(config).materialize()
    write_trace_csv(trace, PACKET_SCHEMA, args.out)
    print(f"wrote {len(trace):,} packets to {args.out}")
    return 0


def _registry_params(args: argparse.Namespace) -> dict:
    """The default registry's parameters: ``--epsilon``, ``--sample-size``."""
    return dict(hh_epsilon=args.epsilon, eh_epsilon=args.epsilon,
                sample_size=args.sample_size)


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.dsms.engine import run_query
    from repro.dsms.parser import parse_query
    from repro.dsms.udaf import default_registry
    from repro.workloads.netflow import PACKET_SCHEMA

    query = parse_query(args.sql, default_registry(**_registry_params(args)))
    trace = read_trace_csv(args.trace, PACKET_SCHEMA)
    count = 0
    for row in run_query(query, PACKET_SCHEMA, trace,
                         two_level=not args.single_level):
        print(row)
        count += 1
        if args.limit and count >= args.limit:
            break
    print(f"-- {count} row(s)", file=sys.stderr)
    return 0


def _figure_id(text: str) -> str:
    """argparse ``type=`` for the figure id: the valid ids live with the
    figure drivers, which only this subcommand loads."""
    from repro.bench.figures import FIGURE_IDS

    if text not in FIGURE_IDS:
        raise argparse.ArgumentTypeError(
            f"unknown figure {text!r} (choose from {', '.join(FIGURE_IDS)})"
        )
    return text


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.bench.figures import figure_table
    from repro.workloads.netflow import PACKET_SCHEMA

    trace = read_trace_csv(args.trace, PACKET_SCHEMA) if args.trace else None
    table = figure_table(
        args.figure,
        trace=trace,
        trace_seconds=args.duration,
        trace_rate=args.rate,
    )
    print(table)
    return 0


def _cmd_summaries(args: argparse.Namespace) -> int:
    from repro.core import registry

    entries = registry.iter_summaries()
    if args.kind:
        entries = [info for info in entries if info.kind == args.kind]
    if args.verbose:
        for info in entries:
            print(f"{info.name}  [{info.kind}]")
            print(f"    update:    {registry.INPUT_KINDS[info.input_kind]}")
            print(f"    mergeable: {info.mergeable}"
                  + ("" if not info.mergeable
                     else f" (exact={info.exact_merge})"))
            print(f"    signature: {info.signature}")
        print(f"-- {len(entries)} summaries", file=sys.stderr)
        return 0
    header = ("name", "kind", "input", "mergeable")
    rows = [
        (info.name, info.kind, info.input_kind,
         "exact" if info.mergeable and info.exact_merge
         else "approx" if info.mergeable else "no")
        for info in entries
    ]
    widths = [max(len(str(r[i])) for r in [header, *rows]) for i in range(4)]
    for row in [header, *rows]:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip())
    print(f"-- {len(rows)} summaries", file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import os

    from repro.bench.artifacts import (
        collect_stats,
        run_bench_suite,
        write_artifact,
    )

    os.makedirs(args.out_dir, exist_ok=True)
    artifact = run_bench_suite(
        name=args.suite, scale=args.scale, repeats=args.repeats
    )
    artifact_path = os.path.join(args.out_dir, f"BENCH_{args.suite}.json")
    write_artifact(artifact, artifact_path)
    print(f"wrote {artifact_path} ({len(artifact['entries'])} entries)")
    if not args.no_stats:
        metrics = collect_stats(scale=args.scale)
        metrics.write_snapshot(args.stats_out)
        print(f"wrote {args.stats_out} ({len(metrics)} metrics)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # This process has no TLS code path: asyncio is imported with `ssl`
    # declined (its own `except ImportError` branch), so OpenSSL is never
    # mapped (~4 of 25 MiB).  Only here: sys.modules is the host's.
    declined = "ssl" not in sys.modules
    if declined:
        sys.modules["ssl"] = None
    try:
        import asyncio
    finally:
        if declined:
            del sys.modules["ssl"]  # a later `import ssl` works as usual
    import signal

    from repro.obs.registry import MetricsRegistry
    from repro.serve.backend import build_backend
    from repro.serve.server import StreamServer
    from repro.workloads.netflow import PACKET_SCHEMA

    backend = build_backend(
        args.sql,
        PACKET_SCHEMA,
        shards=args.shards,
        processes=None if args.multiprocess else 0,
        registry_params=_registry_params(args),
        store_dir=args.store_dir,
        store_hot_groups=args.store_hot_groups,
    )
    server = StreamServer(
        backend,
        host=args.host,
        port=args.port,
        credit_window=args.credit_window,
        max_frame_bytes=args.max_frame_bytes,
        idle_timeout_s=args.idle_timeout,
        state_dir=args.state_dir,
        checkpoint_interval_s=args.checkpoint_interval,
        metrics=MetricsRegistry(enabled=not args.no_metrics),
    )

    async def run() -> None:
        await server.start()
        names = PACKET_SCHEMA.names()
        read = [names[index] for index in backend.columns_read]
        print(
            f"serving on {server.host}:{server.port} "
            f"({backend.kind} backend; reads {len(read)} of {len(names)} "
            f"columns: {', '.join(read)}): {backend.sql}"
        )
        if server.restored_blobs:
            print(
                f"restored {server.restored_blobs} partial state(s) "
                f"from {server.checkpoint_path}"
            )
        if args.port_file:
            # One line, written only once the listener is bound — a test
            # or script can poll this file instead of racing the bind.
            with open(args.port_file, "w") as handle:
                handle.write(f"{server.host} {server.port}\n")
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_event.set)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread (tests) or exotic platform
        if args.run_seconds is not None:
            try:
                await asyncio.wait_for(stop_event.wait(), args.run_seconds)
            except asyncio.TimeoutError:
                pass
        else:
            await stop_event.wait()
        path = await server.stop()
        if path is not None:
            print(f"checkpoint written to {path}")

    asyncio.run(run())
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import json
    import os
    import tempfile

    from repro.cluster import Coordinator, LocalNode, ProcessNode
    from repro.workloads.netflow import (
        PACKET_SCHEMA,
        PacketTraceConfig,
        PacketTraceGenerator,
    )

    if args.trace:
        rows = read_trace_csv(args.trace, PACKET_SCHEMA)
    else:
        config = PacketTraceConfig(
            duration_sec=args.duration,
            rate_per_sec=args.rate,
            seed=args.seed,
        )
        rows = PacketTraceGenerator(config).materialize()
    state_dir = args.state_dir or tempfile.mkdtemp(prefix="repro-cluster-")
    nodes = []
    for i in range(args.nodes):
        node_dir = os.path.join(state_dir, f"node{i}")
        if args.process:
            nodes.append(ProcessNode(f"node{i}", args.sql, node_dir))
        else:
            nodes.append(
                LocalNode(f"node{i}", args.sql, PACKET_SCHEMA, node_dir)
            )
    with Coordinator(
        args.sql, PACKET_SCHEMA, nodes, batch_size=args.batch
    ) as cluster:
        cluster.insert(rows)
        results = cluster.query()
        stats = cluster.stats()
    report = {
        "nodes": stats["nodes"],
        "rows": len(rows),
        "tuples_in": stats["tuples_in"],
        "result_rows": len(results),
        "rows_lost": stats["rows_lost"],
        "per_node_rows": {
            name: info["rows_sent"]
            for name, info in stats["per_node"].items()
        },
        "state_dir": state_dir,
    }
    if args.verify:
        from repro.dsms.engine import QueryEngine
        from repro.dsms.parser import parse_query
        from repro.dsms.udaf import default_registry

        # One engine fed every row and flushed once: the cluster answers
        # each group once, whatever its first GROUP BY key.
        engine = QueryEngine(parse_query(args.sql, default_registry()),
                             PACKET_SCHEMA)
        engine.insert_many(rows)
        single = engine.flush()

        def canon(result_rows):
            return sorted(repr(sorted(row.items())) for row in result_rows)

        report["exact_match"] = canon(results) == canon(single)
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.verify and not report["exact_match"]:
        print("cluster and single-engine results DIFFER", file=sys.stderr)
        return 1
    return 0


def _client_session(args: argparse.Namespace):
    from repro.serve.client import ServeClient
    from repro.workloads.netflow import PACKET_SCHEMA

    try:
        return ServeClient(
            args.host,
            args.port,
            schema_names=PACKET_SCHEMA.names(),
            retries=args.retries,
            backoff_s=args.backoff,
        )
    except ConnectionError as error:
        raise DecayError(
            f"cannot connect to {args.host}:{args.port}: {error}"
        ) from error


def _cmd_client_replay(args: argparse.Namespace) -> int:
    from repro.workloads.netflow import PACKET_SCHEMA

    trace = read_trace_csv(args.trace, PACKET_SCHEMA)
    with _client_session(args) as client:
        batches = 0
        for start in range(0, len(trace), args.batch):
            client.insert(trace[start:start + args.batch])
            batches += 1
        client.flush()
        print(f"replayed {len(trace):,} rows in {batches} batch(es)")
        if args.query:
            count = 0
            for row in client.query():
                print(row)
                count += 1
            print(f"-- {count} row(s)", file=sys.stderr)
    return 0


def _cmd_client_query(args: argparse.Namespace) -> int:
    with _client_session(args) as client:
        count = 0
        for row in client.query():
            print(row)
            count += 1
    print(f"-- {count} row(s)", file=sys.stderr)
    return 0


def _cmd_client_subscribe(args: argparse.Namespace) -> int:
    with _client_session(args) as client:
        client.subscribe(args.interval, args.count)
        remaining = args.count
        while remaining > 0:
            for push in client.results(1):
                marker = " (final)" if push["done"] else ""
                print(f"-- push {push['seq']}/{args.count}{marker}")
                for row in push["rows"]:
                    print(row)
                remaining -= 1
    return 0


def _cmd_client_stats(args: argparse.Namespace) -> int:
    import json

    with _client_session(args) as client:
        print(json.dumps(client.stats(), indent=2, sort_keys=True))
    return 0


def _cmd_client_checkpoint(args: argparse.Namespace) -> int:
    with _client_session(args) as client:
        info = client.checkpoint()
    print(f"checkpoint written to {info['path']} ({info['bytes']:,} bytes)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.obs.registry import format_snapshot, load_snapshot

    try:
        snap = load_snapshot(args.path)
    except FileNotFoundError:
        print(
            f"error: no stats snapshot at {args.path!r} "
            "(run `repro bench smoke` or an instrumented query first)",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(json.dumps(snap, indent=2, sort_keys=True))
    else:
        print(format_snapshot(snap))
    return 0


def _cmd_checkpoint_inspect(args: argparse.Namespace) -> int:
    import json

    from repro.core.serde import (
        PARTIALS_CHECKPOINT_VERSION,
        read_partials_checkpoint,
    )
    from repro.dsms.engine import describe_partial_state

    try:
        with open(args.path, "rb") as handle:
            image = handle.read()
        # Full check: the file's CRC, then every blob's own.
        sql, schema, blobs = read_partials_checkpoint(image)
        described = [describe_partial_state(blob) for blob in blobs]
    except (OSError, DecayError) as error:
        print(f"error: {args.path}: {error}", file=sys.stderr)
        return 2
    groups = sum(blob["groups"] for blob in described)
    summary_bytes = sum(
        slot["bytes"] for blob in described for slot in blob["summaries"]
    )
    report = {
        "path": args.path,
        "version": PARTIALS_CHECKPOINT_VERSION,
        "query": sql,
        "schema": schema,
        "bytes": len(image),
        "groups": groups,
        "bytes_per_group": len(image) / groups if groups else None,
        "summary_bytes": summary_bytes,
        "blobs": described,
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"checkpoint: {args.path} (v{report['version']}, CRC ok)")
    print(f"query: {sql}")
    print(f"schema: {', '.join(schema)}")
    per_group = f", {len(image) / groups:.1f} B/group" if groups else ""
    print(
        f"{len(blobs)} blob(s), {groups:,} group(s), "
        f"{len(image):,} bytes{per_group}, {summary_bytes:,} in summary buffers"
    )
    for index, blob in enumerate(described):
        columns = " ".join(
            f"{kind}:{size:,} ({size / max(blob['groups'], 1):.1f}/row)"
            for kind, size in blob["columns"]
        )
        print(
            f"  blob {index}: v{blob['version']}, {blob['groups']:,} group(s), "
            f"{blob['bytes']:,} B, tuples_in {blob['tuples_in']:,} | {columns}"
        )
        for slot in blob["summaries"]:
            print(
                f"    slot {slot['slot']}: {slot['type']} x {slot['buffers']:,}, "
                f"{slot['bytes']:,} B"
            )
    return 0


def _cmd_store_inspect(args: argparse.Namespace) -> int:
    import json

    from repro.store import describe_store

    report = describe_store(args.directory)
    segments = report["segments"]
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"store: {args.directory}")
    m = report["manifest"]
    if m is None:
        print("manifest: none (store was not checkpointed)")
    else:
        print(
            f"manifest: v{m['version']}, {m['groups']:,} group(s), "
            f"{len(m['segments'])} segment(s) referenced"
        )
        print(f"query: {m['query']}")
    for entry in segments:
        line = f"  {entry['name']:<28} {entry['bytes']:>12,} B  {entry['status']}"
        if "records" in entry:
            per_live = entry["bytes_per_live_row"]
            line += (
                f"  {entry['format']}  ({entry['pages']:,} pages, "
                f"{entry['records']:,} rows, {entry['live']:,} live"
                + (f", {per_live:,} B/live row)" if per_live else ")")
            )
        print(line)
        if entry.get("layout"):
            print(f"      slots: {' | '.join(entry['layout'])}")
        if entry.get("columns"):
            columns = " ".join(f"{kind}:{per}" for kind, per in entry["columns"])
            print(f"      columns, B/row of the first page: {columns}")
        for name, tally in entry.get("summaries", {}).items():
            print(f"      {name} x {tally['buffers']:,}, {tally['bytes']:,} B")
    if not segments:
        print("  (no segment files)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Forward Decay (ICDE 2009) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # Options several subcommands share, each declared once.
    accuracy = argparse.ArgumentParser(add_help=False)
    accuracy.add_argument("--epsilon", type=float, default=0.01,
                          help="accuracy for sketch-backed aggregates")
    accuracy.add_argument("--sample-size", type=int, default=100,
                          help="k for sampler UDAFs")
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true",
                         help="emit the report as JSON")
    connection = argparse.ArgumentParser(add_help=False)
    connection.add_argument("--host", default="127.0.0.1", help="server address")
    connection.add_argument("--port", type=int, required=True, help="server port")
    connection.add_argument("--retries", type=int, default=0,
                            help="reconnect attempts after a transport error "
                            "(0 = fail fast)")
    connection.add_argument("--backoff", type=float, default=0.05,
                            help="initial reconnect backoff in seconds "
                            "(doubles per attempt, jittered)")

    trace = commands.add_parser("trace", help="generate a synthetic packet trace")
    trace.add_argument("--duration", type=float, default=10.0,
                       help="trace length in seconds")
    trace.add_argument("--rate", type=float, default=5_000.0,
                       help="packets per second")
    trace.add_argument("--proto", choices=["tcp", "udp", "mixed"],
                       default="mixed", help="protocol mix")
    trace.add_argument("--dest-ips", type=int, default=5_000,
                       help="distinct destination population")
    trace.add_argument("--jitter", type=float, default=0.0,
                       help="out-of-order timestamp jitter (seconds)")
    trace.add_argument("--seed", type=int, default=42)
    trace.add_argument("--out", required=True, help="output CSV path")
    trace.set_defaults(handler=_cmd_trace)

    query = commands.add_parser(
        "query", parents=[accuracy], help="run a GSQL query over a trace"
    )
    query.add_argument("sql", help="the query text")
    query.add_argument("--trace", required=True, help="CSV trace path")
    query.add_argument("--single-level", action="store_true",
                       help="disable two-level aggregate splitting")
    query.add_argument("--limit", type=int, default=0,
                       help="print at most this many rows (0 = all)")
    query.set_defaults(handler=_cmd_query)

    figure = commands.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("figure", type=_figure_id, metavar="FIGURE",
                        help="figure id, e.g. fig1, fig2a, fig5")
    figure.add_argument("--trace", default=None,
                        help="optional CSV trace to measure on")
    figure.add_argument("--duration", type=float, default=4.0,
                        help="generated-trace length (seconds)")
    figure.add_argument("--rate", type=float, default=5_000.0,
                        help="generated-trace rate (packets/second)")
    figure.set_defaults(handler=_cmd_figure)

    summaries = commands.add_parser(
        "summaries", help="inspect the summary registry"
    )
    summaries_commands = summaries.add_subparsers(
        dest="summaries_command", required=True
    )
    summaries_list = summaries_commands.add_parser(
        "list", help="list every registered summary"
    )
    summaries_list.add_argument(
        "--kind", choices=["aggregate", "sketch", "sampler"], default=None,
        help="only show one summary family",
    )
    summaries_list.add_argument(
        "--verbose", "-v", action="store_true",
        help="show update signatures and constructor signatures",
    )
    summaries_list.set_defaults(handler=_cmd_summaries)

    bench = commands.add_parser(
        "bench", help="run the benchmark suite, writing a BENCH artifact"
    )
    bench.add_argument(
        "suite", choices=["smoke"],
        help="the downscaled fig2a + fig4a queries (the paper's figures "
        "themselves are `repro figure`)",
    )
    bench.add_argument("--out-dir", default=".",
                       help="directory for BENCH_<suite>.json")
    bench.add_argument("--scale", type=float, default=1.0,
                       help="workload scale factor (trace rate multiplier)")
    bench.add_argument("--repeats", type=int, default=3,
                       help="timing passes per query (median is kept)")
    bench.add_argument("--stats-out", default=".repro_stats.json",
                       help="path for the instrumented stats snapshot")
    bench.add_argument("--no-stats", action="store_true",
                       help="skip the instrumented stats pass")
    bench.set_defaults(handler=_cmd_bench)

    serve = commands.add_parser(
        "serve", parents=[accuracy],
        help="run the continuous-query server for one query",
    )
    serve.add_argument("sql", help="the continuous query to serve")
    serve.add_argument("--host", default="127.0.0.1", help="listen address")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--shards", type=int, default=0,
                       help="partition the engine this many ways "
                       "(0 = single in-process engine)")
    serve.add_argument("--multiprocess", action="store_true",
                       help="run one OS process per shard "
                       "(default keeps shards inline)")
    serve.add_argument("--credit-window", type=int, default=8,
                       help="INSERT batches a client may have in flight")
    serve.add_argument("--max-frame-bytes", type=int,
                       default=8 * 1024 * 1024,
                       help="reject frames larger than this")
    serve.add_argument("--idle-timeout", type=float, default=None,
                       help="drop connections idle this many seconds")
    serve.add_argument("--state-dir", default=None,
                       help="checkpoint directory (written on graceful "
                       "shutdown, restored on start)")
    serve.add_argument("--checkpoint-interval", type=float, default=None,
                       help="also checkpoint every this many seconds "
                       "(crash recovery; requires --state-dir)")
    serve.add_argument("--port-file", default=None,
                       help="write 'host port' here once listening")
    serve.add_argument("--run-seconds", type=float, default=None,
                       help="serve for this long, then shut down "
                       "gracefully (default: until SIGINT/SIGTERM)")
    serve.add_argument("--no-metrics", action="store_true",
                       help="disable the serve.* metrics registry")
    serve.add_argument("--store-dir", default=None,
                       help="tiered group-state directory: spill groups "
                       "beyond the hot budget to segment files here "
                       "(results unchanged; restarts recover from the "
                       "store manifest)")
    serve.add_argument("--store-hot-groups", type=int, default=4096,
                       help="groups kept in RAM per engine when "
                       "--store-dir is set")
    serve.set_defaults(handler=_cmd_serve)

    cluster = commands.add_parser(
        "cluster",
        help="run one query on a multi-node coordinator-routed cluster",
    )
    cluster.add_argument("sql", help="the continuous query to cluster")
    cluster.add_argument("--nodes", type=int, default=3,
                         help="serving nodes behind the coordinator")
    cluster.add_argument("--process", action="store_true",
                         help="run each node as a real `repro serve` OS "
                         "process (default: in-process nodes)")
    cluster.add_argument("--trace", default=None,
                         help="CSV trace to ingest (as written by `repro "
                         "trace`); default generates a synthetic one")
    cluster.add_argument("--duration", type=int, default=30,
                         help="synthetic trace length in seconds")
    cluster.add_argument("--rate", type=int, default=200,
                         help="synthetic trace packets per second")
    cluster.add_argument("--seed", type=int, default=42,
                         help="synthetic trace RNG seed")
    cluster.add_argument("--batch", type=int, default=512,
                         help="most rows one INSERT_COLS frame to a node carries")
    cluster.add_argument("--state-dir", default=None,
                         help="base directory for per-node checkpoints "
                         "(default: a fresh temp dir)")
    cluster.add_argument("--verify", action="store_true",
                         help="cross-check the cluster answer against a "
                         "single in-process engine (exit 1 on mismatch)")
    cluster.set_defaults(handler=_cmd_cluster)

    client = commands.add_parser(
        "client", help="talk to a running repro serve instance"
    )
    client_commands = client.add_subparsers(
        dest="client_command", required=True
    )

    replay = client_commands.add_parser(
        "replay", parents=[connection], help="stream a trace CSV into the server"
    )
    replay.add_argument("--trace", required=True,
                        help="CSV trace path (as written by `repro trace`)")
    replay.add_argument("--batch", type=int, default=512,
                        help="rows per INSERT_COLS frame")
    replay.add_argument("--query", action="store_true",
                        help="print the merged results after replaying")
    replay.set_defaults(handler=_cmd_client_replay)

    client_query = client_commands.add_parser(
        "query", parents=[connection], help="evaluate the continuous query now"
    )
    client_query.set_defaults(handler=_cmd_client_query)

    subscribe = client_commands.add_parser(
        "subscribe", parents=[connection], help="print periodic result pushes"
    )
    subscribe.add_argument("--interval", type=float, default=1.0,
                           help="seconds between pushes")
    subscribe.add_argument("--count", type=int, default=5,
                           help="number of pushes to collect")
    subscribe.set_defaults(handler=_cmd_client_subscribe)

    client_stats = client_commands.add_parser(
        "stats", parents=[connection],
        help="print server/backend/metrics statistics as JSON",
    )
    client_stats.set_defaults(handler=_cmd_client_stats)

    client_checkpoint = client_commands.add_parser(
        "checkpoint", parents=[connection],
        help="force a server-side state checkpoint",
    )
    client_checkpoint.set_defaults(handler=_cmd_client_checkpoint)

    checkpoint = commands.add_parser(
        "checkpoint", help="inspect serve checkpoint files"
    )
    checkpoint_commands = checkpoint.add_subparsers(
        dest="checkpoint_command", required=True
    )
    checkpoint_inspect = checkpoint_commands.add_parser(
        "inspect", parents=[as_json],
        help="verify a checkpoint.bin and print what it holds",
    )
    checkpoint_inspect.add_argument(
        "path", help="checkpoint file (<state-dir>/checkpoint.bin)"
    )
    checkpoint_inspect.set_defaults(handler=_cmd_checkpoint_inspect)

    store = commands.add_parser(
        "store", help="inspect tiered group-state store directories"
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)
    store_inspect = store_commands.add_parser(
        "inspect", parents=[as_json],
        help="dump a store's manifest and segment metadata",
    )
    store_inspect.add_argument("directory",
                               help="store directory (as passed to "
                               "--store-dir; for sharded stores, one "
                               "shard<i> subdirectory)")
    store_inspect.set_defaults(handler=_cmd_store_inspect)

    stats = commands.add_parser(
        "stats", parents=[as_json],
        help="render the observability snapshot of the last bench run",
    )
    stats.add_argument("--in", dest="path", default=".repro_stats.json",
                       help="snapshot path (default .repro_stats.json)")
    stats.set_defaults(handler=_cmd_stats)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DecayError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly, as Unix
        # tools do.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
