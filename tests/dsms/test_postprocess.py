"""Tests for HAVING / ORDER BY / LIMIT post-processing."""

from __future__ import annotations

import pytest

from repro.core.errors import QueryError
from repro.dsms.engine import QueryEngine, run_query
from repro.dsms.parser import parse_query
from repro.dsms.schema import Field, FieldType, Schema
from repro.dsms.udaf import default_registry

SCHEMA = Schema(
    [
        Field("time", FieldType.INT),
        Field("key", FieldType.STR),
        Field("value", FieldType.INT),
    ]
)

ROWS = [
    (1, "a", 10),
    (2, "a", 10),
    (3, "b", 5),
    (4, "b", 5),
    (5, "b", 5),
    (6, "c", 100),
]


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def run(sql, rows=ROWS, registry=None):
    """Execute with a single terminal flush (no per-bucket emission).

    ``run_query`` streams per-bucket — the first GROUP BY key acts as the
    time bucket — so these clause-semantics tests drive the engine
    directly and flush once; the per-bucket behaviour has its own test.
    """
    registry = registry or default_registry()
    query = parse_query(sql, registry)
    engine = QueryEngine(query, SCHEMA)
    for row in rows:
        engine.process(row)
    return engine.flush()


class TestHaving:
    def test_filters_on_aggregate_alias(self, registry):
        rows = run("select key, count(*) as c from S group by key having c >= 2")
        assert {r["key"] for r in rows} == {"a", "b"}

    def test_filters_on_group_alias(self, registry):
        rows = run("select key, count(*) as c from S group by key "
                   "having key != 'b'")
        assert {r["key"] for r in rows} == {"a", "c"}

    def test_having_with_arithmetic(self, registry):
        rows = run("select key, sum(value) as s from S group by key "
                   "having s * 2 > 30")
        assert {r["key"] for r in rows} == {"a", "c"}

    def test_having_unknown_alias_rejected(self, registry):
        query = parse_query(
            "select key, count(*) as c from S group by key having nope > 1",
            registry,
        )
        # Compiled once, when the engine is built — not at the first flush.
        with pytest.raises(QueryError, match="nope"):
            QueryEngine(query, SCHEMA)

    def test_order_by_unknown_alias_rejected_at_construction(self, registry):
        query = parse_query(
            "select key, count(*) as c from S group by key order by nosuch",
            registry,
        )
        with pytest.raises(QueryError, match="nosuch"):
            QueryEngine(query, SCHEMA)

    @pytest.mark.parametrize(
        "tail, clause",
        [
            ("having hh > 3", r"HAVING \(hh > 3\)"),
            ("order by c, m", "ORDER BY m"),
        ],
    )
    def test_unevaluable_clause_is_a_query_error_naming_it(
        self, registry, tail, clause
    ):
        # hh finalizes to a list, m to None for the group whose values
        # are all None: neither compares with a number.
        query = parse_query(
            "select key, count(*) as c, unary_hh(value) as hh, "
            f"min(value) as m from S group by key {tail}",
            registry,
        )
        engine = QueryEngine(query, SCHEMA)
        for row in [*ROWS, (7, "d", None), (8, "a", 3)]:
            engine.process(row)
        with pytest.raises(QueryError, match=clause):
            engine.snapshot_rows()
        with pytest.raises(QueryError, match=clause):
            engine.flush()

    def test_aggregate_in_having_rejected_at_parse(self, registry):
        with pytest.raises(QueryError):
            parse_query(
                "select key from S group by key having count(*) > 1 and key != 'x'",
                registry,
            )


class TestOrderByAndLimit:
    def test_order_by_descending(self, registry):
        rows = run("select key, sum(value) as s from S group by key "
                   "order by s desc")
        assert [r["key"] for r in rows] == ["c", "a", "b"]

    def test_order_by_ascending_default(self, registry):
        rows = run("select key, sum(value) as s from S group by key order by s")
        assert [r["key"] for r in rows] == ["b", "a", "c"]

    def test_multi_key_order(self, registry):
        rows = run("select key, count(*) as c, sum(value) as s from S "
                   "group by key order by c desc, key asc")
        assert [r["key"] for r in rows] == ["b", "a", "c"]

    def test_limit(self, registry):
        rows = run("select key, sum(value) as s from S group by key "
                   "order by s desc limit 1")
        assert len(rows) == 1
        assert rows[0]["key"] == "c"

    def test_limit_without_order(self, registry):
        rows = run("select key, count(*) as c from S group by key limit 2")
        assert len(rows) == 2

    def test_limit_validation(self, registry):
        with pytest.raises(QueryError):
            parse_query("select key from S limit 0", registry)
        with pytest.raises(QueryError):
            parse_query("select key from S limit 2.5", registry)

    def test_per_bucket_semantics(self, registry):
        """ORDER/LIMIT apply within each time bucket's emission."""
        rows = [
            (1, "x", 1), (2, "y", 9),           # bucket 0
            (11, "x", 9), (12, "y", 1),          # bucket 1
        ]
        query = parse_query(
            "select tb, key, sum(value) as s from S "
            "group by time/10 as tb, key order by s desc limit 1",
            default_registry(),
        )
        result = list(run_query(query, SCHEMA, rows))
        assert [(r["tb"], r["key"]) for r in result] == [(0, "y"), (1, "x")]

    def test_sql_round_trip(self, registry):
        text = ("select key, sum(value) as s from S group by key "
                "having s > 1 order by s desc limit 5")
        query = parse_query(text, registry)
        reparsed = parse_query(query.sql(), registry)
        assert reparsed.sql() == query.sql()
        assert reparsed.limit == 5
        assert reparsed.order_by[0].descending
