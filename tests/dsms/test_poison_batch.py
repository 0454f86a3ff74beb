"""A batch whose expressions cannot be evaluated changes nothing.

``exp(0.01 * time)`` overflows a float past ``time`` ≈ 70,978, ``log``
and ``sqrt`` of a negative are outside their domain, and ``/`` by zero
raises.  :meth:`QueryEngine.insert_cols` evaluates every expression of a
batch before it counts or touches anything, and such a failure is a
:class:`QueryError` naming the select item (or group key, or WHERE) —
still an instance of the arithmetic error it was — so a serve backend
rejects the batch wholesale instead of dropping the connection.  The
per-tuple :meth:`QueryEngine.process` does the same for its one row, so a
poison row has one outcome on both paths.
"""

from __future__ import annotations

import pytest

from repro.core.cols import rows_to_cols
from repro.core.errors import QueryError
from repro.dsms.engine import QueryEngine
from repro.dsms.parser import parse_query
from repro.dsms.udaf import default_registry
from repro.workloads.netflow import PACKET_SCHEMA


def rows(times, length=10):
    return [(t, float(t), "s", f"d{t % 3}", 1, 80, length, "tcp") for t in times]


def engine(sql: str) -> QueryEngine:
    return QueryEngine(parse_query(sql, default_registry()), PACKET_SCHEMA)


@pytest.mark.parametrize(
    "sql, poison, named, kind",
    [
        (
            "select destIP, sum(exp(0.01*time)) as s from TCP group by destIP",
            rows([80000] * 10),
            "select item 's'",
            OverflowError,
        ),
        (
            "select destIP, sum(log(len - 20)) as s from TCP group by destIP",
            rows([5] * 10),
            "select item 's'",
            ValueError,
        ),
        (
            "select tb, count(*) as c from TCP group by 60 / (time - 7) as tb",
            rows([5, 6, 7]),
            "group key 'tb'",
            ZeroDivisionError,
        ),
        (
            "select destIP, count(*) as c from TCP where len / (time - 7) > 1 "
            "group by destIP",
            rows([5, 6, 7]),
            "where clause",
            ZeroDivisionError,
        ),
    ],
    ids=["exp-overflow", "log-domain", "group-divide", "where-divide"],
)
def test_a_batch_that_cannot_evaluate_raises_a_named_query_error(
    sql, poison, named, kind
):
    fed = engine(sql)
    fed.insert_cols(rows_to_cols(rows(range(10, 20), length=30)))
    before = (
        fed.tuples_processed,
        fed.tuples_selected,
        fed.snapshot_rows(),
        fed.partial_state_bytes(),
    )
    with pytest.raises(QueryError, match=named) as raised:
        fed.insert_cols(rows_to_cols(poison))
    assert isinstance(raised.value, kind)
    after = (
        fed.tuples_processed,
        fed.tuples_selected,
        fed.snapshot_rows(),
        fed.partial_state_bytes(),
    )
    assert after == before


@pytest.mark.parametrize(
    "sql, poison, kind, message",
    [
        (
            "select destIP, sum(exp(0.01*time)) as s from TCP group by destIP",
            rows([80000]),
            "QueryOverflowError",
            "select item 's': math range error",
        ),
        (
            "select destIP, sum(len / (time - 5)) as s from TCP group by destIP",
            rows([5]),
            "QueryZeroDivisionError",
            "select item 's': integer division or modulo by zero",
        ),
        (
            "select destIP, sum(log(len - 20)) as s from TCP group by destIP",
            rows([5]),
            "QueryError",
            "select item 's': math domain error",
        ),
    ],
    ids=["exp-overflow", "divide-by-zero", "log-negative"],
)
@pytest.mark.parametrize("path", ["process", "insert_cols"])
def test_a_poison_row_has_one_outcome_on_both_paths(
    path, sql, poison, kind, message
):
    fed = engine(sql)

    def offer(batch):
        if path == "process":
            for row in batch:
                fed.process(row)
        else:
            fed.insert_cols(rows_to_cols(batch))

    offer(rows(range(10, 20), length=30))
    before = (fed.tuples_processed, fed.tuples_selected, fed.group_count)
    with pytest.raises(QueryError) as raised:
        offer(poison)
    assert type(raised.value).__name__ == kind
    assert str(raised.value) == message
    assert (fed.tuples_processed, fed.tuples_selected, fed.group_count) == before
