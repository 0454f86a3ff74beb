"""A poison batch is a frame-scoped rejection, not a wedged client.

A batch the query cannot evaluate (``exp(0.01 * time)`` overflows at
``time = 80000``) is answered ``bad-rows`` with its CREDIT, so the batch
is acknowledged and never replayed: the client surfaces the error once
and its next call works.
"""

from __future__ import annotations

import pytest

from repro.serve import ServeClient
from repro.serve.protocol import RemoteError
from tests.serve.util import canon, flushed_rows, make_rows, serve

SQL = "select destIP, sum(exp(0.01*time)) as s from TCP group by destIP"


def test_the_next_query_after_a_poison_batch_succeeds():
    good = make_rows(50)
    poison = make_rows(10, start=80000)
    server = serve(SQL)
    try:
        with ServeClient(server.host, server.port) as client:
            client.insert(good)
            client.insert(poison)
            with pytest.raises(RemoteError, match="select item 's'") as raised:
                client.flush()
            assert raised.value.code == "bad-rows"
            assert canon(client.query()) == canon(flushed_rows(SQL, good))
            assert client.stats()["backend"]["tuples_in"] == len(good)
    finally:
        server.stop()
