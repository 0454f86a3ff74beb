"""The router's edge: one schema verdict per batch, before any owner.

An owner is sent only the columns its query reads, so it cannot judge
the others; the router checks every batch against the schema first.  A
wrong-typed value in a column the query never reads (``ts``) must raise
:class:`SchemaError` with nothing routed and nothing sent, on in-thread
shards and on the cluster alike.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.cluster import Coordinator
from repro.core.cols import rows_to_cols
from repro.core.errors import SchemaError
from repro.parallel import ShardedEngine
from repro.workloads.netflow import PACKET_SCHEMA
from tests.serve.util import SQL, canon, expected_rows, make_rows


@contextlib.contextmanager
def sharded(tmp_path):
    with ShardedEngine(SQL, PACKET_SCHEMA, shards=3, processes=0) as engine:
        yield engine


@contextlib.contextmanager
def cluster(tmp_path):
    with Coordinator.local(SQL, PACKET_SCHEMA, str(tmp_path), node_count=3) as c:
        yield c


@pytest.mark.parametrize("topology", [sharded, cluster], ids=["sharded", "cluster"])
def test_a_wrong_type_in_an_unread_column_is_refused_before_routing(
    topology, tmp_path
):
    good = make_rows(40)
    with topology(tmp_path) as router:
        router.insert_cols(rows_to_cols(good))
        bad = rows_to_cols(make_rows(10, start=500))
        bad[1][3] = "not-a-float"  # ts: the query reads time, destIP, len
        with pytest.raises(SchemaError, match="'ts'"):
            router.insert_cols(bad)
        assert router.rows_routed == len(good)
        assert sum(router._rows_sent.values()) == len(good)
        assert canon(router.query()) == canon(expected_rows(SQL, good))
