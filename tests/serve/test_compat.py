"""State written by the commit before typed column encodings restarts as is.

The fixtures are directories a PR 17 ``repro serve`` left behind
(``fixtures/make_fixtures.py`` says how they were written): a
``checkpoint.bin`` holding a partial-state blob, and a store directory
of version-3 segment pages — every column block in them the widest case
of its kind.  ``repro serve`` on this commit must restart on them with no
upgrade step, answer exactly what an in-process engine fed the same rows
answers, keep ingesting, and write the narrower encodings from then on.
"""

from __future__ import annotations

import os

import pytest

from repro.core.serde import read_partials_checkpoint
from repro.dsms.engine import describe_partial_state
from repro.serve import ServeClient
from repro.testing import ServerProcess
from tests.serve.fixtures.make_fixtures import HOT_GROUPS, ROWS, SQL, make_rows
from tests.serve.util import canon, expected_rows
from tests.store.test_upgrade import unpack

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.mark.parametrize("name, with_store", [
    ("serve_state_pr17", False), ("serve_store_pr17", True),
])
def test_serve_restarts_on_directories_the_parent_commit_wrote(
    name, with_store, tmp_path
):
    root = unpack(name, tmp_path, FIXTURES)
    state = os.path.join(root, "state")
    checkpoint = os.path.join(state, "checkpoint.bin")
    old_size = os.path.getsize(checkpoint)
    store_args = (
        "--store-dir", os.path.join(root, "store"),
        "--store-hot-groups", str(HOT_GROUPS),
    ) if with_store else ()
    rows = make_rows()
    # A real `repro serve` subprocess; leaving the block stops it gracefully.
    with ServerProcess(SQL, state_dir=state, extra_args=store_args) as server:
        with ServeClient(server.host, server.port) as client:
            # No upgrade step: the first answer is the fixture's rows.
            assert canon(client.query()) == canon(
                expected_rows(SQL, rows[:ROWS // 2])
            )
            client.insert(rows[ROWS // 2:])
            client.flush()
            assert canon(client.query()) == canon(expected_rows(SQL, rows))
            client.checkpoint()
    if with_store:
        return
    # Rewritten by this commit: the same framing, narrower column blocks.
    with open(checkpoint, "rb") as handle:
        _sql, _schema, (blob,) = read_partials_checkpoint(handle.read())
    kinds = [kind for kind, _size in describe_partial_state(blob)["columns"]]
    assert kinds[0] == "i8" and kinds[2:] == ["i8", "f64"]
    assert kinds[1].startswith("dict[") and kinds[1].endswith("]/u8")
    assert os.path.getsize(checkpoint) < old_size  # twice the rows, fewer bytes
