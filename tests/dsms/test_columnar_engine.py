"""The engine's columnar ingest path: bit-identity with the row path.

:meth:`QueryEngine.insert_cols` is the engine's one batch kernel
(:meth:`insert_many` transposes into it) and promises results equal to
per-tuple :meth:`process` — not approximately, but as the identical
sequence of UDAF calls.  Every test here feeds two engines the same
logical stream through two entry points and demands ``==`` on the
flushed results, including for sketch-backed aggregates whose internal
layout depends on the exact update order.
"""

from __future__ import annotations

import pytest

from repro.core.errors import QueryError, SchemaError
from repro.dsms.engine import QueryEngine
from repro.dsms.expressions import (
    BinaryOp,
    BooleanOp,
    Column,
    Comparison,
    Literal,
    UnaryOp,
)
from repro.dsms.parser import parse_query
from repro.dsms.schema import Field, FieldType, Schema
from repro.dsms.udaf import default_registry

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


def make_rows(n: int = 400) -> list[tuple]:
    return [
        (
            i % 180,
            f"s{i % 5}",
            f"h{i % 17}",
            80 if i % 4 else 443,
            40 + (i * 31) % 500,
            "tcp" if i % 6 else "udp",
        )
        for i in range(n)
    ]


def to_cols(rows) -> list[list]:
    return [list(col) for col in zip(*rows)]


def engine(sql: str) -> QueryEngine:
    return QueryEngine(parse_query(sql, default_registry()), SCHEMA)


QUERIES = [
    pytest.param(
        "select tb, destIP, count(*) as c, sum(len) as s from TCP "
        "group by time/60 as tb, destIP",
        id="count-sum-grouped",
    ),
    pytest.param(
        "select destPort, min(len) as lo, max(len) as hi, "
        "avg(len) as mean from TCP where proto = 'tcp' group by destPort",
        id="where-filtered",
    ),
    pytest.param(
        "select count(*) as c, sum(len) as s from TCP",
        id="ungrouped",
    ),
    pytest.param(
        "select proto, fwd_hh(destIP, len) as hh from TCP group by proto",
        id="sketch-heavy-hitters",
    ),
    pytest.param(
        "select destIP, fwd_quantiles(len, time) as q from TCP "
        "group by destIP",
        id="sketch-quantiles",
    ),
    pytest.param(
        "select tb, count(*) as c from TCP "
        "where proto = 'tcp' and len > 100 group by time/60 as tb",
        id="boolean-where-fallback",
    ),
    pytest.param(
        "select destPort, count(*) as c, sum(len) as s from TCP "
        "where proto = 'tcp' and len > 100 and destPort = 80 "
        "group by destPort",
        id="boolean-and-three-operands",
    ),
    pytest.param(
        "select proto, count(*) as c from TCP "
        "where not (proto = 'udp' or len < 60 or time >= 170) "
        "group by proto",
        id="boolean-not-over-or",
    ),
    pytest.param(
        "select tb, max(len) as hi from TCP "
        "where (destPort = 443 or len > 400) and (proto = 'tcp' or time < 30) "
        "group by time/60 as tb",
        id="boolean-nested-and-of-ors",
    ),
    pytest.param(
        # time is 0 on some rows: the division must only ever see the
        # rows the guard let through, exactly like short-circuit AND.
        "select destIP, count(*) as c, sum(len / time) as r from TCP "
        "where time != 0 and len / time > 1 group by destIP",
        id="boolean-guarded-division",
    ),
    pytest.param(
        "select destIP, count(*) as c from TCP "
        "where time = 0 or len / time > 1 group by destIP",
        id="boolean-or-guarded-division",
    ),
    # Samplers: the batch kernels must take their draws in row order, or
    # the samples differ.  The tcp group is past 256 rows, so its
    # generator is re-seeded inside a batch.
    pytest.param(
        "select proto, prisamp(srcIP, len) as p, wrsamp(destIP, len) as w "
        "from TCP group by proto",
        id="sampler-weighted",
    ),
    pytest.param(
        "select proto, reservoir(destIP) as r, aggsamp(len) as a "
        "from TCP group by proto",
        id="sampler-unweighted",
    ),
]


class TestBitIdentity:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_one_batch_matches_insert_many(self, sql):
        rows = make_rows()
        via_rows, via_cols = engine(sql), engine(sql)
        via_rows.insert_many(rows)
        via_cols.insert_cols(to_cols(rows))
        assert via_cols.flush() == via_rows.flush()

    @pytest.mark.parametrize("sql", QUERIES)
    def test_chunked_and_interleaved_stream(self, sql):
        rows = make_rows(500)
        via_rows, mixed = engine(sql), engine(sql)
        via_rows.insert_many(rows)
        for start in range(0, len(rows), 100):
            chunk = rows[start : start + 100]
            if (start // 100) % 2:
                mixed.insert_many(chunk)
            else:
                mixed.insert_cols(to_cols(chunk))
        assert mixed.flush() == via_rows.flush()

    @pytest.mark.parametrize("sql", QUERIES)
    def test_batch_entry_points_match_per_tuple_process(self, sql):
        # insert_many transposes into insert_cols, so the two tests above
        # compare the kernel with itself; process() is the independent
        # per-tuple reference.
        rows = make_rows()
        reference, via_rows, via_cols = engine(sql), engine(sql), engine(sql)
        for row in rows:
            reference.process(row)
        via_rows.insert_many(iter(rows))
        for start in range(0, len(rows), 64):
            via_cols.insert_cols(to_cols(rows[start : start + 64]))
        expected = reference.flush()
        assert via_rows.flush() == expected
        assert via_cols.flush() == expected

    @pytest.mark.parametrize("sql", QUERIES[-2:])
    def test_sampler_state_matches_per_tuple_process_to_the_byte(self, sql):
        # The flushed sample does not show ``log_tau`` or the generator's
        # position; the state blob does.
        rows = make_rows()
        reference, via_cols = engine(sql), engine(sql)
        for row in rows:
            reference.process(row)
        for start in range(0, len(rows), 150):
            via_cols.insert_cols(to_cols(rows[start : start + 150]))
        assert via_cols.partial_state_bytes() == reference.partial_state_bytes()

    def test_boolean_where_runs_columnar_and_matches_process(self):
        # BooleanOp evaluates masked — operand k only on the rows still
        # undecided after operands < k — which reproduces Python's
        # short-circuit, so a boolean WHERE needs no row fallback.
        sql = (
            "select tb, count(*) as c from TCP "
            "where proto = 'tcp' and len > 100 group by time/60 as tb"
        )
        rows = make_rows()
        reference, columnar = engine(sql), engine(sql)
        for row in rows:
            reference.process(row)
        where_fn, _group_fns, _arg_fns = columnar._columnar_plan()
        assert where_fn(to_cols(rows), len(rows)) == [
            reference._where_fn(row) for row in rows
        ]
        columnar.insert_cols(to_cols(rows))
        assert columnar.tuples_selected == reference.tuples_selected
        assert columnar.flush() == reference.flush()

    def test_empty_batch_is_a_noop(self):
        one = engine(QUERIES[0].values[0])
        one.insert_cols([])
        one.insert_cols([[], [], [], [], [], []])
        one.insert_many([])
        one.insert_many(iter(()))
        assert one.flush() == []

    def test_ragged_batch_rejected(self):
        with pytest.raises(QueryError, match="ragged"):
            engine(QUERIES[0].values[0]).insert_cols(
                [[1], [], [], [], [], []]
            )


class TestCompileCols:
    ROWS = make_rows(50)
    COLS = to_cols(ROWS)

    def both_paths(self, expression):
        columnar = expression.compile_cols(SCHEMA)
        assert columnar is not None
        per_row = [expression.evaluate(row, SCHEMA) for row in self.ROWS]
        return columnar(self.COLS, len(self.ROWS)), per_row

    def test_column_is_the_input_column(self):
        out, expected = self.both_paths(Column("len"))
        assert out == expected
        assert out is self.COLS[4]  # zero-copy: the schema column itself

    def test_literal_broadcasts(self):
        out, expected = self.both_paths(Literal(7))
        assert out == expected == [7] * len(self.ROWS)

    def test_binary_ops_match_scalar_semantics(self):
        for op in ("+", "-", "*", "/", "%"):
            out, expected = self.both_paths(
                BinaryOp(op, Column("time"), Literal(60))
            )
            assert out == expected, f"op {op}"

    def test_unary_negation(self):
        out, expected = self.both_paths(UnaryOp("-", Column("len")))
        assert out == expected

    def test_comparisons(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            out, expected = self.both_paths(
                Comparison(op, Column("len"), Literal(100))
            )
            assert out == expected, f"op {op}"

    # Masked boolean evaluation: compile_cols must equal compile element
    # for element and raise iff the row form raises.
    BOOL_SCHEMA = Schema(
        [
            Field("size", FieldType.INT),
            Field("len", FieldType.INT),
            Field("x", FieldType.FLOAT),
            Field("flag", FieldType.INT),
            Field("name", FieldType.STR),
        ]
    )
    BOOL_ROWS = [
        (0, 10, 1.5, True, "a"),
        (2, 10, float("nan"), 0, ""),
        (5, 3, 0.0, 1, "b"),
        (0, 0, -0.0, False, ""),
        (1, 7, float("nan"), 2, "c"),
        (4, 9, 2.0, 0, "d"),
    ]

    @staticmethod
    def _guard(op="and"):
        # size != 0 AND len / size > 1 — or its OR mirror.
        test = Comparison("!=" if op == "and" else "=", Column("size"), Literal(0))
        ratio = Comparison(
            ">", BinaryOp("/", Column("len"), Column("size")), Literal(1)
        )
        return BooleanOp(op, (test, ratio))

    BOOLEANS = {
        "and-guarded-division": lambda: TestCompileCols._guard("and"),
        "or-guarded-division": lambda: TestCompileCols._guard("or"),
        "and-unguarded-division-raises": lambda: BooleanOp(
            "and",
            (
                Comparison(
                    ">", BinaryOp("/", Column("len"), Column("size")), Literal(1)
                ),
                Comparison("!=", Column("size"), Literal(0)),
            ),
        ),
        "and-three-operands": lambda: BooleanOp(
            "and",
            (
                Comparison(">", Column("len"), Literal(2)),
                Column("flag"),
                Comparison("!=", Column("name"), Literal("")),
            ),
        ),
        "or-three-operands-nan-and-bool-vs-int": lambda: BooleanOp(
            "or", (Column("x"), Column("flag"), Column("name"))
        ),
        "not-of-raw-value": lambda: BooleanOp("not", (Column("x"),)),
        "nested-not-or-inside-and": lambda: BooleanOp(
            "and",
            (
                BooleanOp(
                    "not",
                    (
                        BooleanOp(
                            "or",
                            (
                                Comparison("=", Column("size"), Literal(0)),
                                Comparison("=", Column("flag"), Literal(True)),
                            ),
                        ),
                    ),
                ),
                Comparison(
                    ">=", BinaryOp("/", Column("len"), Column("size")), Literal(2)
                ),
                BooleanOp("or", (Column("x"), Column("name"))),
            ),
        ),
        "boolean-inside-comparison": lambda: Comparison(
            "=",
            BooleanOp("or", (Column("flag"), TestCompileCols._guard("and"))),
            Literal(True),
        ),
        "all-rows-settled-early": lambda: BooleanOp(
            "and",
            (
                Comparison("<", Column("size"), Literal(0)),
                BinaryOp("/", Column("len"), Literal(0)),
            ),
        ),
    }

    @pytest.mark.parametrize("name", sorted(BOOLEANS))
    def test_masked_boolean_matches_row_form(self, name):
        expression = self.BOOLEANS[name]()
        schema, rows = self.BOOL_SCHEMA, self.BOOL_ROWS
        per_row = expression.compile(schema)
        columnar = expression.compile_cols(schema)
        try:
            expected = [per_row(row) for row in rows]
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                columnar(to_cols(rows), len(rows))
            assert "raises" in name
            return
        assert "raises" not in name
        out = columnar(to_cols(rows), len(rows))
        assert out == expected
        assert [type(v) for v in out] == [type(v) for v in expected]
        assert expected == [expression.evaluate(row, schema) for row in rows]


class TestValidateCols:
    def test_valid_batch_returns_row_count(self):
        assert SCHEMA.validate_cols(to_cols(make_rows(12))) == 12

    def test_arity_mismatch(self):
        with pytest.raises(SchemaError, match="arity"):
            SCHEMA.validate_cols([[1], ["a"]])

    def test_ragged_batch_names_the_field(self):
        cols = to_cols(make_rows(3))
        cols[4] = cols[4][:2]
        with pytest.raises(SchemaError, match="'len'"):
            SCHEMA.validate_cols(cols)

    def test_type_mismatch_names_the_field(self):
        cols = to_cols(make_rows(3))
        cols[0][1] = "not-an-int"
        with pytest.raises(SchemaError, match="'time'"):
            SCHEMA.validate_cols(cols)

    def test_empty_batch(self):
        assert SCHEMA.validate_cols([[], [], [], [], [], []]) == 0
