"""Rows stop at the edge: every public ingest edge equals the reference.

A row batch is a public-API convenience — ``insert_many`` / ``insert``
transpose it once — and below the edge everything is one columnar plane.
So for every topology that fronts an engine, every way of offering the
same stream must leave results *and* partial-state bytes identical to one
in-process :class:`QueryEngine` fed row by row with ``process``: row
batches, column batches, and the two interleaved with queries and
checkpoints, in batches whose size does not divide the trace.  Every
group's rows meet on one owner in stream order, so this holds for float
sums too: no topology reassociates one.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools

import pytest

from repro.cluster import Coordinator
from repro.core.cols import rows_to_cols
from repro.dsms.engine import fold_partials
from repro.parallel import ShardedEngine, ShardPlan, stable_route
from repro.serve import (
    AsyncServeClient,
    ServeClient,
    StreamServer,
    ThreadedServer,
    build_backend,
)
from repro.workloads.netflow import PACKET_SCHEMA
from tests.serve.util import SQL, canon, make_rows

PLAN = ShardPlan(sql=SQL, schema=PACKET_SCHEMA)
ROWS = make_rows(500)
CHUNK = 37  # caller's batches: 500 = 13 * 37 + 19
FRAME = 8  # a node's frame: a chunk's ~12-row slice ships in pieces


class Edge:
    """One topology behind the surface the scripts below drive.

    ``target`` is the object under test; the method names map its
    spelling of each edge (``insert_many`` vs ``insert``) onto one
    vocabulary.  No topology gets a settling call before a read.
    """

    def __init__(self, target, *, insert, blobs,
                 call=lambda result: result, ingested=None):
        self.target = target
        self._names = {"insert": insert, "blobs": blobs}
        self._call = call
        self._ingested = ingested

    def do(self, op: str, *args):
        name = self._names.get(op, op)
        return self._call(getattr(self.target, name)(*args))

    def close_count(self) -> int:
        """Close the topology; how many rows its engines ingested."""
        return self._ingested(self._call(self.target.close()))


@contextlib.contextmanager
def sharded(tmp_path, sql, processes):
    engine = ShardedEngine(
        sql, PACKET_SCHEMA, shards=3, processes=processes, router=stable_route,
    )
    try:
        yield Edge(
            engine, insert="insert_many", blobs="partial_states",
            ingested=lambda stats: sum(stats["tuples_per_shard"]),
        )
    finally:
        engine.close()


@contextlib.contextmanager
def cluster(tmp_path, sql):
    coordinator = Coordinator.local(
        sql, PACKET_SCHEMA, str(tmp_path / "cluster"), node_count=3,
        batch_size=FRAME,
    )
    try:
        yield Edge(
            coordinator, insert="insert", blobs="partial_blobs",
            ingested=lambda stats: sum(stats["tuples_per_node"].values()),
        )
    finally:
        coordinator.close()


@contextlib.contextmanager
def served(tmp_path, sql, client_mode):
    backend = build_backend(sql, PACKET_SCHEMA, processes=0)
    server = ThreadedServer(
        StreamServer(backend, state_dir=str(tmp_path / "state"))
    ).start()
    try:
        if client_mode == "sync":
            client = ServeClient(server.host, server.port)
            call = lambda result: result
        else:
            loop = asyncio.new_event_loop()
            call = loop.run_until_complete
            client = call(AsyncServeClient.connect(server.host, server.port))
        try:
            yield Edge(
                client, insert="insert", blobs="partials", call=call,
                ingested=lambda goodbye: goodbye["tuples_in"],
            )
        finally:
            call(client.close())
            if client_mode != "sync":
                loop.close()
    finally:
        server.stop()


TOPOLOGIES = {
    "sharded-inline": lambda tmp, sql: sharded(tmp, sql, 0),
    "sharded-mp": lambda tmp, sql: sharded(tmp, sql, None),
    "cluster-local": cluster,
    "client-sync": lambda tmp, sql: served(tmp, sql, "sync"),
    "client-asyncio": lambda tmp, sql: served(tmp, sql, "asyncio"),
}


@pytest.fixture(
    params=[
        pytest.param(name, marks=pytest.mark.slow)
        if name == "sharded-mp" else name
        for name in TOPOLOGIES
    ]
)
def topology(request, tmp_path):
    """Opens the topology over a query: ``with topology(sql) as edge``."""
    return functools.partial(TOPOLOGIES[request.param], tmp_path)


@pytest.fixture
def edge(topology):
    with topology(SQL) as opened:
        yield opened


def chunks():
    return [ROWS[i : i + CHUNK] for i in range(0, len(ROWS), CHUNK)]


def script(mode: str) -> list[tuple]:
    """The stream as a list of edge operations."""
    if mode == "rows":
        return [("insert", chunk) for chunk in chunks()]
    if mode == "cols":
        return [("insert_cols", rows_to_cols(chunk)) for chunk in chunks()]
    # Interleaved: the two forms in rotation, and after every third
    # chunk a query or a checkpoint that must see every batch before it.
    ops: list[tuple] = []
    barriers = [("query",), ("checkpoint",)]
    for index, chunk in enumerate(chunks()):
        form = index % 3
        if form == 2:
            ops.append(("insert_cols", rows_to_cols(chunk)))
        else:
            ops.append(("insert", chunk))
        if form == 0:
            ops.append(barriers[(index // 3) % 2])
    return ops


def reference_results(reference) -> list[str]:
    """What the reference engine would answer now, without flushing it."""
    return canon(
        fold_partials(PLAN.build_engine, [reference.partial_state_bytes()])
    )


@pytest.mark.parametrize("mode", ["rows", "cols", "interleaved"])
def test_every_edge_matches_the_row_fed_reference(edge, mode):
    reference = PLAN.build_engine()
    for op, *args in script(mode):
        if op == "insert":
            for row in args[0]:
                reference.process(row)
        elif op == "insert_cols":
            for row in zip(*args[0]):
                reference.process(row)
        result = edge.do(op, *args)
        if op == "query":
            assert canon(result) == reference_results(reference)
    # Byte identity of the state itself: the topology's partial blobs,
    # folded, are the reference engine's blob.
    collector = PLAN.build_engine()
    for blob in edge.do("blobs"):
        collector.merge_partial(blob)
    assert collector.partial_state_bytes() == reference.partial_state_bytes()
    assert canon(edge.do("query")) == canon(reference.flush())


def test_an_empty_batch_is_ignored_at_every_edge(edge):
    # No seq, no credit, no frame, no shard message: nothing to answer.
    assert edge.do("insert", []) is None
    assert edge.do("insert_cols", []) is None
    assert edge.do("insert_cols", [[] for __ in PACKET_SCHEMA.names()]) is None
    edge.do("insert", ROWS[:CHUNK])
    reference = PLAN.build_engine()
    reference.insert_many(ROWS[:CHUNK])
    assert canon(edge.do("query")) == canon(reference.flush())
    assert edge.close_count() == CHUNK


def wide_rows() -> list[tuple]:
    """More groups than a low table's ``LOW_TABLE_SIZE`` (4,096): 4,200
    keys, each in runs of two rows, over two passes — a table that held
    them would evict two-row partials and merge them into each other."""
    keys = [key for _pass in range(2) for key in range(4200) for _run in range(2)]
    return [
        (t, float(t), "10.0.0.1", f"d{key}", 80, 443, 40 + t % 1453, "TCP")
        for t, key in enumerate(keys, start=1)
    ]


FLOAT_CASES = {
    # (sql, rows, batch size)
    "wide-decayed-sum": (
        "select destIP, sum(len*exp(0.01*(time % 60))) as s from TCP "
        "group by destIP",
        wide_rows(), 5000,
    ),
    "unkeyed-sum-avg": (
        "select sum(len*exp(0.01*(time % 60))) as s, avg(len*0.1) as a "
        "from TCP",
        ROWS, CHUNK,
    ),
}


@pytest.mark.parametrize("case", sorted(FLOAT_CASES))
def test_float_sums_match_the_row_fed_reference(topology, case):
    sql, rows, size = FLOAT_CASES[case]
    plan = ShardPlan(sql=sql, schema=PACKET_SCHEMA)
    reference = plan.build_engine()
    for row in rows:
        reference.process(row)
    with topology(sql) as edge:
        for start in range(0, len(rows), size):
            edge.do("insert_cols", rows_to_cols(rows[start : start + size]))
        answer = edge.do("query")
        blobs = edge.do("blobs")
    collector = plan.build_engine()
    for blob in blobs:
        collector.merge_partial(blob)
    reference_blob = reference.partial_state_bytes()
    assert canon(answer) == canon(reference.flush())
    assert collector.partial_state_bytes() == reference_blob


def test_a_lone_surrogate_key_matches_the_row_fed_reference(topology):
    # A str UTF-8 cannot encode strictly still packs (``surrogatepass``):
    # every topology ships it as column and state bytes and answers it.
    sql = "select destIP, count(*) as c, sum(len) as s from TCP group by destIP"
    keys = ["\ud800", "a\udfff", "𐀀", "10.0.0.1", "\ud800"]
    rows = [
        (t, float(t), "10.0.0.9", keys[t % len(keys)], 80, 443, 40 + t, "TCP")
        for t in range(1, 60)
    ]
    plan = ShardPlan(sql=sql, schema=PACKET_SCHEMA)
    reference = plan.build_engine()
    for row in rows:
        reference.process(row)
    with topology(sql) as edge:
        edge.do("insert", rows[:30])
        edge.do("insert_cols", rows_to_cols(rows[30:]))
        answer = edge.do("query")
        blobs = edge.do("blobs")
    collector = plan.build_engine()
    for blob in blobs:
        collector.merge_partial(blob)
    assert collector.partial_state_bytes() == reference.partial_state_bytes()
    assert canon(answer) == canon(reference.flush())
    assert {row["destIP"] for row in answer} == set(keys)
