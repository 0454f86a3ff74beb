"""The batch plan: every distinct sub-expression once, one UDAF hook.

``QueryEngine.insert_cols`` compiles the GROUP BY and aggregate-argument
expressions through one table keyed by the expression node
(:func:`repro.dsms.expressions.compile_shared`), hands each aggregate its
group's slice of the columns it names through ``Udaf.update_cols``, and
touches no state before every column exists.  Pinned here: the shared
plan against per-expression ``compile_cols`` and the row ``compile`` over
drawn expression trees; exactly repeatable work counts on one fixed
batch; and that a UDAF written against the old hooks still answers the
same through the engine.
"""

from __future__ import annotations

import gc
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cols import rows_to_cols
from repro.dsms import expressions as ex
from repro.dsms.engine import QueryEngine
from repro.dsms.expressions import (
    BinaryOp,
    BooleanOp,
    Column,
    Comparison,
    FunctionCall,
    Literal,
    UnaryOp,
    compile_shared,
)
from repro.dsms.parser import parse_query
from repro.dsms.schema import Field, FieldType, Schema
from repro.dsms.udaf import SumUdaf, Udaf, default_registry
from repro.workloads.netflow import (
    PACKET_SCHEMA,
    PacketTraceConfig,
    PacketTraceGenerator,
)

# -- (a) drawn expression trees ---------------------------------------------

SCHEMA = Schema(
    [Field("i", FieldType.INT), Field("j", FieldType.INT),
     Field("x", FieldType.FLOAT), Field("y", FieldType.FLOAT)]
)
INTS = st.sampled_from([0, 1, -1, 2, 7, 60, -3])
FLOATS = st.sampled_from(
    [0.0, -0.0, 1.5, -2.25, 60.0, 1e308, float("nan"), float("inf")]
)
ROWS = st.lists(st.tuples(INTS, INTS, FLOATS, FLOATS), min_size=1, max_size=6)
LEAVES = st.one_of(
    st.sampled_from([Column(name) for name in "ijxy"]),
    st.builds(Literal, st.one_of(INTS, FLOATS, st.booleans())),
)


def _grow(children):
    pair = st.tuples(children, children)
    return st.one_of(
        st.builds(BinaryOp, st.sampled_from("+-*/%"), children, children),
        st.builds(UnaryOp, st.just("-"), children),
        st.builds(Comparison, st.sampled_from(["=", "<", ">="]), children, children),
        st.builds(FunctionCall, st.sampled_from(["exp", "sqrt", "abs"]),
                  st.tuples(children)),
        st.builds(FunctionCall, st.just("pow"), pair),
        st.builds(BooleanOp, st.sampled_from(["and", "or"]), pair),
        st.builds(BooleanOp, st.just("not"), st.tuples(children)),
    )


TREES = st.recursive(LEAVES, _grow, max_leaves=6)


@st.composite
def expression_lists(draw):
    """Several expressions built over one small pool, so that sub-trees
    (and whole expressions) repeat — what the shared table exists for."""
    pool = draw(st.lists(TREES, min_size=1, max_size=3))
    from_pool = st.sampled_from(pool)
    built = st.one_of(
        from_pool,
        st.builds(BinaryOp, st.sampled_from("+*/%"), from_pool, st.one_of(from_pool, LEAVES)),
        st.builds(BinaryOp, st.just("/"), LEAVES, from_pool),
        st.builds(FunctionCall, st.just("abs"), st.tuples(from_pool)),
        st.builds(BooleanOp, st.just("and"), st.tuples(from_pool, from_pool)),
    )
    return draw(st.lists(built, min_size=1, max_size=5))


def outcome(evaluate):
    """The columns, or the type of what evaluating them raised."""
    try:
        # repr tells -0.0 from 0.0, True from 1 and 1 from 1.0, and says
        # nan == nan.
        return [[repr(v) for v in column] for column in evaluate()]
    except (ArithmeticError, ValueError, TypeError) as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(expressions=expression_lists(), rows=ROWS)
def test_shared_columns_equal_each_expression_compiled_alone(expressions, rows):
    cols, n = rows_to_cols(rows), len(rows)
    shared = outcome(lambda: compile_shared(expressions, SCHEMA)(cols, n))
    alone = outcome(
        lambda: [e.compile_cols(SCHEMA)(cols, n) for e in expressions]
    )
    # Same values, or the same first error: a repeat is skipped, and a
    # repeat could only have raised what its first evaluation did.
    assert shared == alone
    by_row = outcome(
        lambda: [[e.compile(SCHEMA)(row) for row in rows] for e in expressions]
    )
    # The row form reaches the operands of one expression in another
    # order, so when several elements would raise it may meet another
    # one first; that it raises, and every value, is the same.
    assert isinstance(shared, type) == isinstance(by_row, type)
    if not isinstance(shared, type):
        assert shared == by_row
    assert cols == rows_to_cols(rows)  # inputs untouched


def test_literals_of_different_types_are_different_nodes():
    # 1, 1.0 and True hash alike; as table keys they must not be one node.
    assert Literal(1) != Literal(1.0) and Literal(1) != Literal(True)
    assert Literal(0.0) != Literal(-0.0)
    assert Literal(60) == Literal(60) and hash(Literal(60)) == hash(Literal(60))
    time = Column("i")
    exprs = [BinaryOp("%", time, Literal(7)), BinaryOp("%", time, Literal(7.0)),
             BinaryOp("*", time, Literal(0.0)), BinaryOp("*", time, Literal(-0.0))]
    cols = [[-9, 15], [0, 0], [0.0, 0.0], [0.0, 0.0]]
    assert [[repr(v) for v in c] for c in compile_shared(exprs, SCHEMA)(cols, 2)] == [
        ["5", "1"], ["5.0", "1.0"], ["-0.0", "0.0"], ["0.0", "-0.0"],
    ]


def test_nothing_is_shared_across_a_masked_operand():
    # ``j / i`` is guarded inside the AND and bare in the second
    # expression: sharing it would divide on the rows the guard protects
    # (or hand the bare user a masked column).
    ratio = BinaryOp("/", Column("j"), Column("i"))
    guarded = BooleanOp(
        "and", (Comparison("!=", Column("i"), Literal(0)), Comparison(">", ratio, Literal(1)))
    )
    cols = [[0, 2], [5, 6], [0.0, 0.0], [0.0, 0.0]]
    assert compile_shared([guarded, guarded], SCHEMA)(cols, 2) == [[False, True]] * 2
    with pytest.raises(ZeroDivisionError):
        compile_shared([guarded, ratio], SCHEMA)(cols, 2)
    assert compile_shared([guarded, ratio], SCHEMA)([[1, 2], [5, 6], [], []], 2) == [
        [True, True], [5, 3],
    ]


def test_an_error_in_the_second_user_of_a_shared_node_changes_no_state():
    registry = default_registry()
    sql = (
        "select tb, sum(time % 60) as a, sum(len / (time % 60)) as b, "
        "fwd_hh(destIP, time % 60) as hh from TCP group by time/60 as tb"
    )
    engine = QueryEngine(parse_query(sql, registry), PACKET_SCHEMA)
    good = [
        (61 + k, 61.5 + k, "s", f"d{k % 3}", 1, 80, 100 + k, "tcp") for k in range(50)
    ]
    # time 120: the shared ``time % 60`` is fine for ``a``; ``b`` divides by it.
    bad = good[:20] + [(120, 120.5, "s", "d", 1, 80, 7, "tcp")] + good[20:]
    engine.insert_cols(rows_to_cols(good))
    before = (engine.snapshot_rows(), engine.group_count, engine.tuples_selected)
    with pytest.raises(ZeroDivisionError):
        engine.insert_cols(rows_to_cols(bad))
    assert (engine.snapshot_rows(), engine.group_count, engine.tuples_selected) == before
    reference = QueryEngine(parse_query(sql, registry), PACKET_SCHEMA)
    for row in good:
        reference.process(row)
    with pytest.raises(ZeroDivisionError):
        for row in bad:
            reference.process(row)  # the row path stops at the row, not before it
    assert engine.snapshot_rows() != reference.snapshot_rows()


# -- (c) exactly repeatable work counts -------------------------------------

FWD_EXP = "exp((time % 60) * 0.1)"
FWD_POLY = "(time % 60) * (time % 60)"
SKETCH_SQL = (  # benchmarks/stack's sketch_inproc query
    f"select tb, destPort, fwd_hh(destIP, {FWD_EXP}) as hh, "
    f"fwd_quantiles(len, {FWD_EXP}) as q, "
    f"prisamp(srcIP, {FWD_EXP}) as samp, sum({FWD_EXP}) as w "
    "from TCP group by time/60 as tb, destPort"
)
COUNTSUM_SQL = (  # countsum_served's and readmix_cluster's
    f"select tb, destIP, destPort, sum({FWD_POLY}) / 3600 as c, "
    f"sum(len * {FWD_POLY}) / 3600 as s "
    "from TCP group by time/60 as tb, destIP, destPort"
)
BATCH_ROWS = 2_048
SCALAR_OPS = {
    fn for fn in (*ex._ARITHMETIC.values(), *ex._FUNCTIONS.values()) if fn
} | {ex._gsql_divide}


def fixed_batch() -> list:
    config = PacketTraceConfig(
        rate_per_sec=400.0, duration_sec=300.0, seed=22, num_dest_ips=1000,
        num_dest_ports=4, zipf_exponent=1.1,
    )
    rows = PacketTraceGenerator(config).materialize()
    return rows_to_cols(rows[4 * BATCH_ROWS:5 * BATCH_ROWS])


def work_counts(sql: str) -> tuple[float, float]:
    """(element-wise passes, calls per row) of the second ``insert_cols``
    of one fixed batch — the plan is built by the first."""
    engine = QueryEngine(parse_query(sql, default_registry()), PACKET_SCHEMA)
    cols = fixed_batch()
    engine.insert_cols(cols)
    scalar = calls = 0
    gsql_divide = ex._gsql_divide.__code__
    expressions_py = gsql_divide.co_filename

    def profile(frame, event, arg):
        nonlocal scalar, calls
        if event == "c_call":  # ``frame`` is the caller's
            calls += 1
            scalar += (
                arg in SCALAR_OPS and frame.f_code.co_filename == expressions_py
            )
        elif event == "call":
            calls += 1
            scalar += frame.f_code is gsql_divide

    # A collection inside the window would run whatever finalizers earlier
    # tests left behind, and those calls would be counted.
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        engine.insert_cols(cols)
    finally:
        sys.setprofile(None)
        gc.enable()
    return scalar / BATCH_ROWS, calls / BATCH_ROWS


# (sql, passes, passes at the parent commit, ceiling on calls per row).
# Calls per row at the parent / now on CPython 3.11: sketch 25.67 / 14.18,
# count/sum 14.27 / 11.05; 3.12 inlines comprehensions and counts fewer.
WORK = [
    pytest.param(SKETCH_SQL, 4, 13, 15.0, id="sketch"),
    pytest.param(COUNTSUM_SQL, 5, 8, 12.0, id="countsum"),
]


@pytest.mark.parametrize("sql, passes, parent_passes, ceiling", WORK)
def test_each_distinct_sub_expression_is_one_pass(sql, passes, parent_passes, ceiling):
    measured, calls = work_counts(sql)
    assert measured == passes < parent_passes
    assert calls <= ceiling, calls
    assert work_counts(sql) == (measured, calls)  # exactly repeatable


# -- (e) UDAFs written against the old hooks --------------------------------


class OnlyUpdate(Udaf):
    """A third-party aggregate that knows nothing of batches."""

    name = "spread"
    arity = 2

    def create(self):
        return [math.inf, -math.inf, 0]

    def update(self, state, args):
        low, high = sorted(args)
        state[:] = [min(state[0], low), max(state[1], high), state[2] + 1]

    def finalize(self, state):
        return (state[1] - state[0], state[2])


class OldBatchHook(SumUdaf):
    """One that overrode ``update_many``, the hook the engine used to
    call: still correct through the engine, which no longer calls it."""

    name = "oldsum"
    batches = 0

    def update_many(self, state, args_batch):
        self.batches += 1
        state[0] += math.fsum(args[0] for args in args_batch)  # not update's order


class Tally(Udaf):
    """``count(*)``-style: no argument column to take a length from."""

    name = "tally"
    arity = -1

    def create(self):
        return []

    def update(self, state, args):
        state.append(args)

    def finalize(self, state):
        return state


def test_udafs_that_override_only_the_old_hooks_answer_the_same():
    def build():
        registry = default_registry()
        for udaf in (OnlyUpdate(), OldBatchHook(), Tally()):
            registry.register(udaf)
        sql = (
            "select tb, destPort, spread(len, time % 60) as sp, "
            "oldsum(len * 0.1) as o, tally(*) as n, sum(len * 0.1) as s "
            "from TCP group by time/60 as tb, destPort"
        )
        return QueryEngine(parse_query(sql, registry), PACKET_SCHEMA)

    cols = fixed_batch()
    rows = list(zip(*cols))
    reference, batched = build(), build()
    for row in rows:
        reference.process(row)
    batched.insert_cols(cols)
    expected = reference.flush()
    assert batched.flush() == expected
    assert all(row["o"] == row["s"] for row in expected)
    assert all(set(row["n"]) == {()} for row in expected)
    old = batched.query.select[3].aggregate.udaf
    assert isinstance(old, OldBatchHook) and old.batches == 0
    # update_many is still there for a caller with tuples: the base class's
    # is update_cols on the transpose.
    state = OnlyUpdate().create()
    OnlyUpdate().update_many(state, [(3, 9), (5, 1)])
    assert state == [1, 9, 2]
    tally = Tally().create()
    Tally().update_many(tally, [(), (), ()])
    Tally().update_many(tally, [])
    assert tally == [(), (), ()]
