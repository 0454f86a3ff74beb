"""How the ``serve_*_pr17.tar.gz`` directories in this folder were written.

They are what a ``repro serve`` restart has to read with **no upgrade
step** after typed column encodings (PR 18) — ``checkpoint.bin`` and store
pages whose column blocks are the widest case of each kind — so they were
written by the commit that left them in the field, not by this one::

    git clone <repo> parent && git -C parent checkout <PR 17 commit>
    PYTHONPATH=parent/src python tests/serve/fixtures/make_fixtures.py OUT

* ``serve_state_pr17`` — ``state/checkpoint.bin`` of a storeless
  ``repro serve --state-dir`` after the first half of :func:`make_rows`:
  one partial-state blob (i64 / str-u32 / f64 columns).
* ``serve_store_pr17`` — ``state/`` and ``store/`` of ``repro serve
  --state-dir --store-dir --store-hot-groups 8`` after the same rows:
  most groups spilled to version-3 segment pages, the rest in the
  manifest's hot blob, ``checkpoint.bin`` holding no blob.

``tests/serve/test_compat.py`` imports :data:`SQL`, :data:`HOT_GROUPS` and
:func:`make_rows` from here; :func:`main` runs only under the parent
commit.
"""

import os
import random
import shutil
import sys
import tarfile

SQL = (
    "select tb, destIP, count(*) as c, sum(len) as s from TCP "
    "group by time/60 as tb, destIP"
)
HOT_GROUPS = 8
ROWS = 800


def make_rows(n=ROWS, seed=18):
    """``n`` PACKET_SCHEMA rows; the fixtures hold the first ``n // 2``."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        t = 1 + i // 4
        rows.append((t, t + rng.random(), f"10.0.0.{rng.randrange(20)}",
                     f"192.168.{rng.randrange(2)}.{rng.randrange(40)}",
                     1024 + rng.randrange(100), rng.choice((80, 443, 53)),
                     40 + rng.randrange(1400), "tcp"))
    return rows


def main(out):
    from repro.serve import ServeClient, StreamServer, ThreadedServer, build_backend
    from repro.workloads.netflow import PACKET_SCHEMA

    rows = make_rows()[:ROWS // 2]
    for name, with_store in (("serve_state_pr17", False),
                             ("serve_store_pr17", True)):
        root = os.path.join(out, name)
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        store = dict(
            store_dir=os.path.join(root, "store"), store_hot_groups=HOT_GROUPS,
        ) if with_store else {}
        backend = build_backend(SQL, PACKET_SCHEMA, **store)
        server = ThreadedServer(
            StreamServer(backend, state_dir=os.path.join(root, "state"))
        ).start()
        with ServeClient(server.host, server.port) as client:
            for start in range(0, len(rows), 100):
                client.insert(rows[start:start + 100])
            client.flush()
            print(name, client.stats()["backend"])
        server.stop()  # graceful: the final checkpoint
        with tarfile.open(os.path.join(out, name + ".tar.gz"), "w:gz") as tar:
            tar.add(root, arcname=name)


if __name__ == "__main__":
    main(sys.argv[1])
