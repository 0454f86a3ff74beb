"""Pay for what the plan reads: projected == full, in bytes.

A query names some of the stream's columns — in WHERE, GROUP BY and
aggregate arguments — and nothing else of a batch is ever looked at
(``QueryEngine.columns_read``).  So a transport may leave the other
columns undecoded (``unpack_cols(body, columns=...)`` zero-fills them) or
unsent (``GroupKeyRouter.partition``), and the answer *and* the partial
state must not move by a byte.  Pinned here over drawn queries and
batches, then on the two benchmark queries by exact count.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Coordinator
from repro.core import cols as cols_module
from repro.core.cols import pack_cols, rows_to_cols, unpack_cols
from repro.core.errors import SchemaError
from repro.dsms.engine import QueryEngine
from repro.dsms.parser import parse_query
from repro.dsms.udaf import default_registry
from repro.parallel import ShardedEngine, stable_route
from repro.parallel.routing import GroupKeyRouter
from repro.workloads.netflow import PACKET_SCHEMA
from tests.serve.util import canon
from tests.test_engine_path_imports import COUNTSUM_SQL, SKETCH_SQL

NAMES = PACKET_SCHEMA.names()

# -- drawn queries over one shared column pool ----------------------------------

WHERES = [
    None,
    "len > 100",
    "proto = 'tcp'",
    "destPort = 80 and len > 50",
    "srcPort > 1000 or ts > 5",
    "time >= 0",  # keeps every row
    "len < 0",  # keeps none
]
GROUPS = [
    "time/60 as tb", "destIP", "destPort", "srcIP", "proto", "srcPort % 4 as sp",
]
AGGREGATES = [
    "count(*) as c",
    "sum(len) as s",
    "sum(len * (time % 60)) as w",
    "max(ts) as m",
    "min(srcPort) as lo",
    "sum(destPort + len) as dl",
    "avg(len) as a",
]
ROWS = st.lists(
    st.tuples(
        st.integers(0, 200),  # time
        st.sampled_from([0.0, 1.5, 7.25, 60.0]),  # ts
        st.sampled_from(["10.0.0.1", "10.0.0.2", "é.example"]),  # srcIP
        st.sampled_from(["d0", "d1", "d2"]),  # destIP
        st.sampled_from([22, 80, 1024, 40_000]),  # srcPort
        st.sampled_from([80, 443]),  # destPort
        st.integers(40, 160),  # len
        st.sampled_from(["tcp", "udp"]),  # proto
    ),
    min_size=1,
    max_size=40,
)


@st.composite
def queries(draw) -> str:
    groups = draw(st.lists(st.sampled_from(GROUPS), unique=True, max_size=4))
    aggregates = draw(
        st.lists(st.sampled_from(AGGREGATES), unique=True, min_size=1, max_size=4)
    )
    where = draw(st.sampled_from(WHERES))
    aliases = [group.split(" as ")[-1] for group in groups]
    sql = f"select {', '.join(aliases + aggregates)} from TCP"
    if where is not None:
        sql += f" where {where}"
    if groups:
        sql += f" group by {', '.join(groups)}"
    return sql


def engine(sql: str) -> QueryEngine:
    return QueryEngine(parse_query(sql, default_registry()), PACKET_SCHEMA)


def plan_columns(query) -> set[str]:
    """The union of ``Expression.columns()`` over the plan, walked here
    independently of ``Query.columns()``."""
    names: set[str] = set()
    if query.where is not None:
        names |= query.where.columns()
    for group in query.group_by:
        names |= group.expression.columns()
    for item in query.select:
        if item.aggregate is not None:
            for argument in item.aggregate.args:
                names |= argument.columns()
    return names


def is_zero_fill(column, sent_value, count: int) -> bool:
    """``count`` zeros of the very type the column was sent with."""
    zero = type(sent_value)()
    return column == [zero] * count and type(column[0]) is type(zero)


def projected(batch: list, columns) -> list:
    """``batch`` as a reader of ``columns`` receives it off the wire."""
    return unpack_cols(pack_cols(batch), columns=columns)[0]


@settings(max_examples=150, deadline=None)
@given(sql=queries(), batches=st.lists(ROWS, min_size=1, max_size=3))
def test_an_engine_fed_its_projection_equals_one_fed_the_batch(sql, batches):
    full, narrow = engine(sql), engine(sql)
    read = full.columns_read
    assert read == tuple(
        sorted(PACKET_SCHEMA.index_of(name) for name in plan_columns(full.query))
    )
    for rows in batches:
        batch = rows_to_cols(rows)
        received = projected(batch, read)
        for index, (sent, got) in enumerate(zip(batch, received)):
            if index in read:
                assert got == sent
            else:
                assert is_zero_fill(got, sent[0], len(rows))
        full.insert_cols(batch)
        narrow.insert_cols(received)
        assert narrow.partial_state_bytes() == full.partial_state_bytes()
    assert narrow.tuples_selected == full.tuples_selected
    assert narrow.flush() == full.flush()


def test_a_plan_that_reads_nothing_and_one_that_reads_everything():
    assert engine("select count(*) as c from TCP").columns_read == ()
    everything = engine(
        "select tb, srcIP, destIP, proto, sum(len + srcPort + destPort) as s, "
        "max(ts) as m from TCP group by time/60 as tb, srcIP, destIP, proto"
    )
    assert everything.columns_read == tuple(range(len(NAMES)))


# -- a WHERE that keeps 0, 1 and all rows of a batch ----------------------------

ROWS_40 = [
    (100 + i, float(i), f"s{i % 3}", f"d{i % 5}", 1000 + i, 80, 40 + i, "tcp")
    for i in range(40)
]


@pytest.mark.parametrize(
    ("where", "kept"), [("len < 0", 0), ("len = 57", 1), ("len >= 40", 40)]
)
def test_where_gathers_survivors_of_the_read_columns_only(where, kept):
    sql = (
        f"select tb, destIP, count(*) as c, sum(len) as s from TCP "
        f"where {where} group by time/60 as tb, destIP"
    )
    reference, full, narrow = engine(sql), engine(sql), engine(sql)
    for row in ROWS_40:
        reference.process(row)
    batch = rows_to_cols(ROWS_40)
    full.insert_cols(batch)
    narrow.insert_cols(projected(batch, narrow.columns_read))
    assert full.tuples_selected == narrow.tuples_selected == kept
    assert narrow.partial_state_bytes() == full.partial_state_bytes()
    assert (
        narrow.partial_state_bytes() == reference.partial_state_bytes()
    )
    assert narrow.flush() == full.flush() == reference.flush()


# -- own transports project before they gather and pack -------------------------

ROUTED_SQL = (
    "select tb, destIP, count(*) as c, sum(len) as s from TCP "
    "group by time/60 as tb, destIP"
)


def test_partition_gathers_the_read_columns_and_zero_fills_the_rest():
    router = GroupKeyRouter(
        parse_query(ROUTED_SQL, default_registry()), PACKET_SCHEMA
    )
    assert [NAMES[i] for i in router.columns_read] == ["time", "destIP", "len"]
    batch = rows_to_cols(ROWS_40)
    # Placed by the destIP part of the (tb, destIP) key.
    parts = list(router.partition(batch, lambda key: int(key[1][1:]) % 3))
    assert sorted(owner for owner, _part, _count in parts) == [0, 1, 2]
    for owner, part, count in parts:
        rows = [row for row in ROWS_40 if int(row[3][1:]) % 3 == owner]
        assert count == len(rows)
        for index, column in enumerate(part):
            if index in router.columns_read:
                assert column == tuple(row[index] for row in rows)
            else:
                assert is_zero_fill(column, ROWS_40[0][index], count)
    # One owner: the read columns pass through as they are, the others
    # are still not shipped — a one-node cluster sends what three do.
    ((_owner, whole, count),) = router.partition(batch, lambda key: 0)
    assert count == 40
    for index, column in enumerate(whole):
        if index in router.columns_read:
            assert column is batch[index]
        else:
            assert is_zero_fill(column, ROWS_40[0][index], 40)


def test_sharded_and_cluster_fed_full_batches_equal_the_single_engine(tmp_path):
    single = engine(ROUTED_SQL)
    single.insert_cols(rows_to_cols(ROWS_40))
    expected = canon(single.flush())
    sharded = ShardedEngine(
        ROUTED_SQL, PACKET_SCHEMA, shards=3, processes=0,
        router=stable_route,
    )
    try:
        sharded.insert_cols(rows_to_cols(ROWS_40))
        assert canon(sharded.query()) == expected
    finally:
        sharded.close()
    for node_count in (1, 3):
        with Coordinator.local(
            ROUTED_SQL, PACKET_SCHEMA, str(tmp_path / f"c{node_count}"),
            node_count=node_count,
        ) as cluster:
            cluster.insert_cols(rows_to_cols(ROWS_40))
            assert canon(cluster.query()) == expected
            per_node = cluster.stats()["per_node"]
        # Every node read 3 of the 8 blocks of every frame it was sent.
        for info in per_node.values():
            server = info["server"]["server"]
            assert server["cols_blocks_decoded"] * 5 == (
                server["cols_blocks_skipped"] * 3
            )
            assert info["server"]["backend"]["columns_read"] == [
                "time", "destIP", "len",
            ]


def test_the_coordinator_rejects_at_its_edge_what_a_node_no_longer_sees(tmp_path):
    batch = rows_to_cols(ROWS_40)
    batch[4] = ["not-a-port"] * 40  # srcPort: no node is sent it
    with Coordinator.local(
        ROUTED_SQL, PACKET_SCHEMA, str(tmp_path), node_count=2
    ) as cluster:
        with pytest.raises(SchemaError, match="'srcPort' expects int, got 'not-a-port'"):
            cluster.insert_cols(batch)
        assert cluster.rows_routed == 0
        cluster.insert_cols(rows_to_cols(ROWS_40))
        assert cluster.stats()["tuples_in"] == 40


# -- exact counts on the two benchmark queries -----------------------------------


@pytest.mark.parametrize(
    ("sql", "read"),
    [
        (COUNTSUM_SQL, ["time", "destIP", "destPort", "len"]),
        (SKETCH_SQL, ["time", "srcIP", "destIP", "destPort", "len"]),
    ],
)
def test_blocks_decoded_per_frame(monkeypatch, sql, read):
    columns = engine(sql).columns_read
    assert [NAMES[index] for index in columns] == read
    body = pack_cols(rows_to_cols(ROWS_40))
    decoded = []
    block_values = cols_module.block_values

    def counted(view, block, count, rows=None):
        decoded.append(block)
        return block_values(view, block, count, rows)

    monkeypatch.setattr(cols_module, "block_values", counted)
    unpack_cols(body, columns=columns)
    assert len(decoded) == len(read)
    del decoded[:]
    unpack_cols(body)
    assert len(decoded) == len(NAMES)
