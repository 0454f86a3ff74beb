"""An import budget, counted exactly.

A process imports what its query runs: package ``__init__``s export
lazily (``repro._lazy``), summaries are found by registry name, and the
CLI imports per subcommand.  Every ``repro serve`` child, cluster node and
respawned worker pays this graph before its first row, so the counts below
are pinned — in fresh interpreters, because this test process has long
since imported everything.

numpy is the settled case (DESIGN.md §6.7): ``import numpy`` costs
+16.1 MiB RSS and +242 ms per process, so nothing under ``src/`` imports
it.  OpenSSL is the other, with the event loop that drags it in:
``import asyncio`` pulls ``ssl`` → ``_ssl`` → libssl / libcrypto (+4 MiB)
and ``import hashlib`` pulls ``_hashlib`` → libcrypto (+3.6 MiB), and no
code here speaks TLS.  So asyncio is imported only by code that runs a
loop — the server, and ``AsyncServeClient`` once it connects — the
BLAKE2 hashes take the built-in ``_blake2`` that ``hashlib`` re-exports,
and a blocking client, a coordinator, the ring, a sharded engine and a
store load none of ``asyncio`` / ``ssl`` / ``_ssl`` / ``_hashlib``.
``repro serve`` — the command, not the library — runs a loop and
declines ``ssl`` around its own asyncio import; a process that embeds a
server (``ThreadedServer``, ``LocalNode``) keeps its ``ssl``.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import pickle
import pkgutil
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.core import registry
from repro.core.cols import rows_to_cols
from repro.core.protocol import StreamSummary
from repro.serve.client import ServeClient
from repro.workloads.netflow import (
    PACKET_SCHEMA,
    PacketTraceConfig,
    PacketTraceGenerator,
)
from tests.core.test_protocol_conformance import feed

SRC = Path(__file__).resolve().parents[1] / "src"

#: Fig. 2(a) count / sum: what `countsum_served` and every cluster node run.
COUNTSUM_SQL = (
    "select tb, destIP, destPort, sum((time % 60) * (time % 60)) / 3600 as c, "
    "sum(len * (time % 60) * (time % 60)) / 3600 as s "
    "from TCP group by time/60 as tb, destIP, destPort"
)
#: The `sketch_inproc` query: three summary-valued aggregates and a sum.
SKETCH_SQL = (
    "select tb, destPort, fwd_hh(destIP, exp((time % 60) * 0.1)) as hh, "
    "fwd_quantiles(len, exp((time % 60) * 0.1)) as q, "
    "prisamp(srcIP, exp((time % 60) * 0.1)) as samp, "
    "sum(exp((time % 60) * 0.1)) as w "
    "from TCP group by time/60 as tb, destPort"
)
#: The serve.* metrics registry keeps latency quantiles in a GK summary:
#: every server loads it.  Hot-key tracking (SpaceSaving) is engine
#: instrumentation, which a server never turns on.
METRICS_SUMMARIES = {"repro.sketches.gk"}

PACKAGES = [
    name
    for _finder, name, is_pkg in pkgutil.walk_packages(repro.__path__, "repro.")
    if is_pkg
]


def fresh_interpreter(code: str, *args: str, **popen):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen(
        [sys.executable, "-c", code, *args], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, **popen,
    )


def run_fresh(code: str, *args: str) -> dict:
    child = fresh_interpreter(code, *args)
    out, err = child.communicate(timeout=120)
    assert child.returncode == 0, err
    return json.loads(out)


def repro_modules(names) -> set[str]:
    return {n for n in names if n == "repro" or n.startswith("repro.")}


def test_no_module_under_src_imports_numpy():
    pattern = re.compile(r"^\s*(import|from)\s+numpy\b", re.MULTILINE)
    offenders = [
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if pattern.search(path.read_text())
    ]
    assert offenders == []


def test_import_repro_loads_the_package_and_its_export_helper():
    loaded = run_fresh(
        "import json, sys, repro\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
    )
    assert len(loaded) <= 3, loaded


# -- a `repro serve` child, up to its port file and through one full round ----

SERVE_CHILD = r"""
import json, os, sys, threading, time
port_file, state_dir, sql, *options = sys.argv[1:]
at_port = []

def watch():
    while not (os.path.exists(port_file)
               and open(port_file).read().endswith("\n")):
        time.sleep(0.001)
    at_port.append(sorted(sys.modules))

threading.Thread(target=watch, daemon=True).start()
from repro.cli import main
code = main(
    ["serve", sql, "--port-file", port_file, "--state-dir", state_dir, *options]
)
at_exit = sorted(sys.modules)  # a None entry counts: it is still a key
import ssl
print(json.dumps({
    "code": code,
    "at_port": at_port[0],
    "added": sorted(set(at_exit) - set(at_port[0])),
    "at_exit": at_exit,
    "ssl_imports_afterwards": hasattr(ssl, "SSLContext"),
}))
"""


def served_round(sql: str, tmp_path, *options: str) -> dict:
    """Start the child (``repro serve`` given ``options`` too), drive 2
    INSERT_COLS, QUERY, CHECKPOINT, STATS and a graceful stop through it;
    its module sets at the port file and at exit."""
    port_file = tmp_path / "port"
    child = fresh_interpreter(
        SERVE_CHILD, str(port_file), str(tmp_path / "state"), sql, *options
    )
    try:
        deadline = time.monotonic() + 60
        while not (port_file.exists() and port_file.read_text().endswith("\n")):
            assert child.poll() is None, child.stderr.read()
            assert time.monotonic() < deadline
            time.sleep(0.005)
        host, port = port_file.read_text().split()
        rows = PacketTraceGenerator(
            PacketTraceConfig(rate_per_sec=100.0, duration_sec=90.0, seed=3)
        ).materialize()
        half = len(rows) // 2
        with ServeClient(host, int(port)) as client:
            client.insert_cols(rows_to_cols(rows[:half]))
            client.insert_cols(rows_to_cols(rows[half:]))
            client.flush()
            assert len(client.query()) > 1
            assert client.checkpoint()["bytes"] > 0
            assert client.stats()["server"]["rows_total"] == len(rows)
        child.send_signal(signal.SIGTERM)
        out, err = child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    report = json.loads(out.strip().splitlines()[-1])
    assert report["code"] == 0, err
    return report


def loaded_summary_modules(names) -> set[str]:
    return set(names) & set(registry._SUMMARY_MODULES)


def test_a_countsum_serve_child_loads_what_its_query_runs(tmp_path):
    report = served_round(COUNTSUM_SQL, tmp_path)
    at_port = report["at_port"]
    assert len(repro_modules(at_port)) <= 33, sorted(repro_modules(at_port))
    forbidden = re.compile(
        r"^(numpy|multiprocessing|statistics"
        r"|repro\.(bench|sampling|cluster|store)(\..*)?"
        r"|repro\.core\.clustering)$"
    )
    assert [name for name in at_port if forbidden.match(name)] == []
    assert loaded_summary_modules(at_port) == METRICS_SUMMARIES
    # Nothing was deferred onto a request: ingest, QUERY, CHECKPOINT, STATS
    # and the graceful stop ran on what start-up had loaded.
    assert repro_modules(report["added"]) == set()
    # No OpenSSL in a served child, at its port file or after a full
    # round; the declined entry is gone again, so the process can still
    # import ssl should something in it ever want to.
    assert "asyncio" in at_port
    for loaded in (at_port, report["at_exit"]):
        assert {"ssl", "_ssl"} & set(loaded) == set()
    assert report["ssl_imports_afterwards"] is True


def test_importing_the_server_leaves_the_hosts_ssl_alone():
    # The embedding path (ThreadedServer, LocalNode) lives in someone
    # else's process: importing the library declines nothing there.
    loaded = run_fresh(
        "import json, sys\n"
        "import repro.serve.server\n"
        "print(json.dumps(type(sys.modules.get('ssl')).__name__))"
    )
    assert loaded == "module"


def test_a_store_backed_serve_child_maps_no_libcrypto(tmp_path):
    # 50 hot groups: the round spills, faults in and checkpoints through
    # the key directory, so every BLAKE2 key hash runs in the child.
    report = served_round(
        COUNTSUM_SQL, tmp_path,
        "--store-dir", str(tmp_path / "store"), "--store-hot-groups", "50",
    )
    assert "repro.store.segment" in report["at_port"]
    for loaded in (report["at_port"], report["at_exit"]):
        assert {"_hashlib", "ssl", "_ssl"} & set(loaded) == set()


# -- the processes on the other side of the wire: no loop, no OpenSSL ----------

#: What a process that runs no event loop must never load.
EVENT_LOOP_AND_OPENSSL = ("asyncio", "ssl", "_ssl", "_hashlib")

PROCESS_PROBE = r"""
import json, sys
from repro.core.cols import rows_to_cols
from repro.workloads.netflow import (
    PACKET_SCHEMA, PacketTraceConfig, PacketTraceGenerator,
)
sql, scratch, watched = sys.argv[1], sys.argv[2], sys.argv[3:]
rows = PacketTraceGenerator(
    PacketTraceConfig(rate_per_sec=100.0, duration_sec=90.0, seed=3)
).materialize()
%s
print(json.dumps(sorted(name for name in watched if name in sys.modules)))
"""

PROCESS_CLASSES = {
    "coordinator": "import repro.cluster.coordinator",
    "ring": (
        "from repro.cluster.ring import HashRing\n"
        "assert HashRing(['a', 'b', 'c']).node_for((rows[0][2],)) in 'abc'"
    ),
    "sharded": (
        "from repro.parallel.sharded import ShardedEngine\n"
        "engine = ShardedEngine(sql, PACKET_SCHEMA, shards=2, processes=0)\n"
        "engine.insert_cols(rows_to_cols(rows))\n"
        "assert engine.query()\n"
        "engine.close()"
    ),
    "store": (
        "from repro.dsms.engine import QueryEngine\n"
        "from repro.dsms.parser import parse_query\n"
        "from repro.dsms.udaf import default_registry\n"
        "from repro.store.tiered import TieredStore\n"
        "engine = QueryEngine(parse_query(sql, default_registry()), PACKET_SCHEMA,\n"
        "                     store=TieredStore(scratch, hot_groups=50))\n"
        "engine.insert_cols(rows_to_cols(rows))\n"
        "engine.store_checkpoint()\n"
        "assert engine.snapshot_rows()\n"
        "assert engine.store.stats()['evictions'] > 0"
    ),
    "chaos": "import repro.testing.chaos",
}


#: The routers' processes load no pipe transport either: only a sharded
#: engine with worker processes (``processes=None``) imports multiprocessing.
ALSO_WATCHED = {"coordinator": ("multiprocessing",), "sharded": ("multiprocessing",)}


@pytest.mark.parametrize("process", list(PROCESS_CLASSES))
def test_a_process_that_runs_no_loop_loads_neither_asyncio_nor_openssl(
    process, tmp_path
):
    loaded = run_fresh(
        PROCESS_PROBE % PROCESS_CLASSES[process],
        COUNTSUM_SQL, str(tmp_path), *EVENT_LOOP_AND_OPENSSL,
        *ALSO_WATCHED.get(process, ()),
    )
    assert loaded == []


def test_a_local_cluster_round_loads_no_multiprocessing(tmp_path):
    # What readmix_cluster runs: Coordinator.local, three LocalNodes,
    # ingest and a fan-out query.
    loaded = run_fresh(
        PROCESS_PROBE % (
            "from repro.cluster.coordinator import Coordinator\n"
            "with Coordinator.local(sql, PACKET_SCHEMA, scratch, node_count=3) as c:\n"
            "    c.insert_cols(rows_to_cols(rows))\n"
            "    assert c.query()"
        ),
        COUNTSUM_SQL, str(tmp_path), "multiprocessing",
    )
    assert loaded == []


def test_only_shard_worker_processes_load_multiprocessing():
    loaded = run_fresh(
        PROCESS_PROBE % (
            "from repro.parallel.sharded import ShardedEngine\n"
            "with ShardedEngine(sql, PACKET_SCHEMA, shards=2, processes=None) as e:\n"
            "    e.insert_cols(rows_to_cols(rows))\n"
            "    assert e.query()"
        ),
        COUNTSUM_SQL, "", "multiprocessing",
    )
    assert loaded == ["multiprocessing"]


THREADED_SERVER_CHILD = r"""
import sys
from repro.serve import StreamServer, ThreadedServer, build_backend
from repro.workloads.netflow import PACKET_SCHEMA
server = ThreadedServer(StreamServer(build_backend(sys.argv[1], PACKET_SCHEMA)))
server.start()
print(server.host, server.port, flush=True)
sys.stdin.read()  # until the test closes our stdin
server.stop()
"""

CLIENT_PROBE = r"""
import json, sys
from repro.serve.client import ServeClient
from repro.core.cols import rows_to_cols
from repro.workloads.netflow import PacketTraceConfig, PacketTraceGenerator
host, port, watched = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
rows = PacketTraceGenerator(
    PacketTraceConfig(rate_per_sec=100.0, duration_sec=30.0, seed=3)
).materialize()
with ServeClient(host, port) as client:
    client.insert_cols(rows_to_cols(rows))
    client.flush()
    assert client.query()
    assert client.stats()["server"]["rows_total"] == len(rows)
print(json.dumps(sorted(name for name in watched if name in sys.modules)))
"""


def test_a_blocking_client_process_loads_neither_asyncio_nor_openssl():
    server = fresh_interpreter(
        THREADED_SERVER_CHILD, COUNTSUM_SQL, stdin=subprocess.PIPE
    )
    try:
        host, port = server.stdout.readline().split()
        loaded = run_fresh(CLIENT_PROBE, host, port, *EVENT_LOOP_AND_OPENSSL)
    finally:
        _out, err = server.communicate("", timeout=60)  # EOF: stop serving
    assert server.returncode == 0, err
    assert loaded == []


def test_a_local_cluster_loads_the_server_when_its_nodes_start(tmp_path):
    # LocalNodes *are* event loops in this process, so the server (and
    # asyncio) arrive with the first node's start, not with the import.
    report = run_fresh(
        "import json, sys\n"
        "from repro.cluster.coordinator import Coordinator\n"
        "from repro.workloads.netflow import PACKET_SCHEMA\n"
        "imported = {m: m in sys.modules for m in ('repro.serve.server', 'asyncio')}\n"
        "with Coordinator.local(sys.argv[1], PACKET_SCHEMA, sys.argv[2],\n"
        "                       node_count=2):\n"
        "    started = {m: m in sys.modules for m in imported}\n"
        "print(json.dumps([imported, started]))",
        COUNTSUM_SQL, str(tmp_path),
    )
    imported, started = report
    assert imported == {"repro.serve.server": False, "asyncio": False}
    assert started == {"repro.serve.server": True, "asyncio": True}


def test_a_sketch_serve_child_loads_exactly_the_summaries_its_sql_names(tmp_path):
    report = served_round(SKETCH_SQL, tmp_path)
    named = {
        "repro.sketches.spacesaving",  # fwd_hh
        "repro.sketches.qdigest",  # fwd_quantiles
        "repro.sampling.priority",  # prisamp ...
        "repro.sampling.weighted_reservoir",  # ... which imports this itself
    }
    assert loaded_summary_modules(report["at_port"]) == named | METRICS_SUMMARIES
    assert "numpy" not in report["at_port"]
    assert repro_modules(report["added"]) == set()


# -- lazy package exports ------------------------------------------------------


def test_the_library_is_thirteen_packages():
    assert len(["repro", *PACKAGES]) == 13, PACKAGES


@pytest.mark.parametrize("package", ["repro", *PACKAGES])
def test_every_export_resolves_to_its_defining_modules_object(package):
    module = importlib.import_module(package)
    assert len(module.__all__) == len(set(module.__all__))
    star: dict = {}
    exec(f"from {package} import *", star)
    listed = dir(module)
    for name in module.__all__:
        value = getattr(module, name)
        assert star[name] is value
        assert name in listed
        if name == "__version__":
            continue
        # The very object some submodule defines under that name.
        assert any(
            vars(holder).get(name) is value
            for holder_name, holder in list(sys.modules.items())
            if holder_name.startswith("repro.") and holder is not module
        ), name
        restored = pickle.loads(pickle.dumps(value))
        if isinstance(value, type) or callable(value):
            assert restored is value
        else:
            assert type(restored) is type(value)
    with pytest.raises(AttributeError, match=re.escape(repr(package))):
        module.no_such_export


def test_exports_and_submodules_resolve_on_first_use():
    loaded = run_fresh(
        "import json, sys\n"
        "import repro, repro.core\n"
        "before = sorted(m for m in sys.modules if m.startswith('repro'))\n"
        "same = repro.DecayedCount is repro.core.aggregates.DecayedCount\n"
        "cols = repro.core.cols.__name__\n"
        "print(json.dumps({'before': before, 'same': same, 'cols': cols,\n"
        "    'bench': any(m.startswith('repro.bench') for m in sys.modules)}))"
    )
    assert loaded["before"] == ["repro", "repro._lazy", "repro.core"]
    assert loaded["same"] is True
    assert loaded["cols"] == "repro.core.cols"
    assert loaded["bench"] is False


# -- summaries by name ---------------------------------------------------------


def test_the_name_table_is_what_load_all_registers():
    registry.load_all()
    by_module: dict[str, set[str]] = {}
    for info in registry.iter_summaries():
        by_module.setdefault(info.cls.__module__, set()).add(info.name)
    table = {
        module: set(names) for module, names in registry._SUMMARY_MODULES.items()
    }
    assert by_module == table
    assert sum(map(len, table.values())) == 25


def own_summary_imports(module: str) -> set[str]:
    """``module`` and the summary modules it imports at its top level,
    transitively — what loading it alone must load."""
    seen: set[str] = set()
    todo = [module]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        source = (SRC / (name.replace(".", "/") + ".py")).read_text()
        for node in ast.parse(source).body:
            if isinstance(node, ast.ImportFrom) and (
                node.module in registry._SUMMARY_MODULES
            ):
                todo.append(node.module)
    return seen


FROM_BYTES_CHILD = r"""
import json, sys
from repro.core.protocol import StreamSummary
buffer = bytes.fromhex(sys.stdin.read())
restored = StreamSummary.from_bytes(buffer)
from repro.core import registry
print(json.dumps({
    "summary_modules": sorted(set(sys.modules) & set(registry._SUMMARY_MODULES)),
    "loaded_all": registry._LOADED,
    "same_bytes": restored.to_bytes() == buffer,
    "type": type(restored).__name__,
}))
"""


@pytest.mark.parametrize(
    "name",
    [name for names in registry._SUMMARY_MODULES.values() for name in names],
)
def test_from_bytes_imports_the_one_module_that_defines_the_summary(name):
    info = registry.get_summary(name)
    summary = info.factory()
    feed(summary, info.input_kind, n=50)
    child = fresh_interpreter(FROM_BYTES_CHILD, stdin=subprocess.PIPE)
    out, err = child.communicate(summary.to_bytes().hex(), timeout=60)
    assert child.returncode == 0, err
    report = json.loads(out)
    assert report["type"] == info.cls.__name__
    assert report["same_bytes"] is True
    assert report["loaded_all"] is False
    assert set(report["summary_modules"]) == own_summary_imports(
        info.cls.__module__
    )


def test_a_summary_registered_outside_the_library_is_found_by_name():
    name = "test_local_tally"
    try:

        @registry.register_summary(
            name, kind="sketch", input_kind="item", factory=lambda: Tally()
        )
        class Tally(StreamSummary):
            def __init__(self):
                self.seen = 0

            def update(self, item):
                self.seen += 1

            def query(self):
                return self.seen

            def _state_payload(self):
                return {"seen": self.seen}

            @classmethod
            def _from_payload(cls, payload):
                tally = cls()
                tally.seen = payload["seen"]
                return tally

        assert registry.get_summary(name).cls is Tally
        tally = registry.create_summary(name)
        tally.update_many(["a", "b", "c"])
        restored = StreamSummary.from_bytes(tally.to_bytes())
        assert type(restored) is Tally and restored.query() == 3
        assert name in registry.summary_names()
    finally:
        registry._REGISTRY.pop(name, None)
        registry._BY_CLASS.pop(locals().get("Tally"), None)
