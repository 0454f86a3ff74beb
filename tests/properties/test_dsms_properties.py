"""Property-based tests of the DSMS: parser round-trips and engine modes."""

from __future__ import annotations

import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsms import engine as engine_module
from repro.dsms.engine import QueryEngine
from repro.dsms.expressions import (
    BinaryOp,
    Column,
    Literal,
    UnaryOp,
)
from repro.dsms.parser import parse_query
from repro.dsms.schema import Field, FieldType, Schema
from repro.dsms.udaf import default_registry

SCHEMA = Schema(
    [
        Field("time", FieldType.INT),
        Field("key", FieldType.INT),
        Field("value", FieldType.INT),
    ]
)

_REGISTRY = default_registry()


# -- random expression trees --------------------------------------------------

_columns = st.sampled_from(["time", "key", "value"])
_int_literals = st.integers(min_value=-50, max_value=50)


def _expressions(max_depth: int = 3):
    base = st.one_of(
        st.builds(Column, _columns),
        st.builds(Literal, _int_literals),
    )

    def extend(children):
        return st.one_of(
            st.builds(
                BinaryOp,
                st.sampled_from(["+", "-", "*"]),
                children,
                children,
            ),
            st.builds(
                BinaryOp,
                st.sampled_from(["%", "/"]),
                children,
                # Keep divisors constant and non-zero for well-defined math.
                st.builds(Literal, st.integers(min_value=1, max_value=60)),
            ),
            st.builds(UnaryOp, st.just("-"), children),
        )

    return st.recursive(base, extend, max_leaves=8)


rows = st.tuples(
    st.integers(0, 1_000),
    st.integers(0, 20),
    st.integers(-100, 100),
)


@given(expr=_expressions(), row=rows)
@settings(max_examples=200)
def test_expression_compile_matches_evaluate(expr, row):
    """The compiled closure and the tree-walker always agree."""
    walked = expr.evaluate(row, SCHEMA)
    compiled = expr.compile(SCHEMA)(row)
    assert walked == compiled


@given(expr=_expressions(), row=rows)
@settings(max_examples=200)
def test_expression_sql_round_trip(expr, row):
    """Rendering to query text and reparsing preserves semantics."""
    text = f"select {expr.sql()} as e from S"
    reparsed = parse_query(text, _REGISTRY).select[0].expression
    assert reparsed is not None
    assert reparsed.evaluate(row, SCHEMA) == expr.evaluate(row, SCHEMA)


# -- engine equivalences --------------------------------------------------------

streams = st.lists(rows, min_size=1, max_size=200)


@given(items=streams, table_size=st.integers(1, 16))
@settings(max_examples=75)
def test_two_level_equals_one_level(items, table_size):
    """GS's aggregate splitting must never change results (Fig 2a vs 2b)."""
    sql = (
        "select key, count(*) as c, sum(value) as s, min(value) as lo, "
        "max(value) as hi, avg(value) as mean from S group by key"
    )
    query = parse_query(sql, _REGISTRY)
    split = QueryEngine(query, SCHEMA, two_level=True)
    flat = QueryEngine(query, SCHEMA)
    with mock.patch.object(engine_module, "LOW_TABLE_SIZE", table_size):
        for row in items:
            split.process(row)
            flat.process(row)
    keys = {row[SCHEMA.index_of("key")] for row in items}
    assert (split.low_evictions > 0) == (len(keys) > table_size)
    split_rows = {r["key"]: r for r in split.flush()}
    flat_rows = {r["key"]: r for r in flat.flush()}
    assert split_rows.keys() == flat_rows.keys()
    for key, expected in flat_rows.items():
        actual = split_rows[key]
        for column in ("c", "s", "lo", "hi"):
            assert actual[column] == expected[column]
        assert math.isclose(actual["mean"], expected["mean"], rel_tol=1e-12)


@given(items=streams)
@settings(max_examples=50)
def test_engine_aggregation_matches_python(items):
    """count/sum per group equal a dictionary-based reference."""
    sql = "select key, count(*) as c, sum(value) as s from S group by key"
    query = parse_query(sql, _REGISTRY)
    engine = QueryEngine(query, SCHEMA)
    reference: dict[int, list] = {}
    for row in items:
        engine.process(row)
        entry = reference.setdefault(row[1], [0, 0])
        entry[0] += 1
        entry[1] += row[2]
    results = {r["key"]: (r["c"], r["s"]) for r in engine.flush()}
    assert results == {k: (c, s) for k, (c, s) in reference.items()}


@given(items=streams, divisor=st.integers(1, 100))
@settings(max_examples=50)
def test_bucketing_expression_consistency(items, divisor):
    """time/N bucketing in the engine equals Python floor division."""
    sql = f"select tb, count(*) as c from S group by time/{divisor} as tb"
    query = parse_query(sql, _REGISTRY)
    engine = QueryEngine(query, SCHEMA)
    reference: dict[int, int] = {}
    for row in items:
        engine.process(row)
        bucket = row[0] // divisor
        reference[bucket] = reference.get(bucket, 0) + 1
    results = {r["tb"]: r["c"] for r in engine.flush()}
    assert results == reference
