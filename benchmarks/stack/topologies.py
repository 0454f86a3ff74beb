"""The four topologies, each driven through the library's public calls.

A topology answers the same seven questions for every workload — start,
insert batch *i*, flush (wait for acks), live query, checkpoint, bytes of
durable state, stop — so one measurement loop serves all four, and the
traced run can put a workload's batches through the plain engine as well
as through its own topology.  Each call into a layer is wrapped in a span
named after the layer's module.

Everything a topology creates (child process, sockets, store directory,
node state directories) lives under the ``workdir`` it is given and is
released by ``stop()``, which is safe to call after a failed ``start()``.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import shutil
import subprocess
import sys
import time

from repro.cluster import Coordinator
from repro.dsms.engine import QueryEngine
from repro.serve import ServeClient
from repro.store import TieredStore
from repro.workloads.netflow import PACKET_SCHEMA

from workloads import parse

__all__ = ["TOPOLOGIES", "SRC_DIR", "peak_rss_kib", "pinned_generator"]

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)
_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Process placement.  Left to itself the scheduler wake-affines the server
#: child onto the client's core for whole runs at a time, and
#: ``countsum_served`` flips between ~285k rows/s (one core shared: wall =
#: client CPU + server CPU) and ~385k rows/s (two cores: wall = server
#: CPU).  So the generator is pinned to the first CPU it may use and the
#: server child to the last; on a one-CPU host both are the same CPU.
_CPUS = sorted(os.sched_getaffinity(0))
GENERATOR_CPU, CHILD_CPU = _CPUS[0], _CPUS[-1]


@contextlib.contextmanager
def pinned_generator():
    """Pin this process for the duration of a run; restore on exit."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {GENERATOR_CPU})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


_CHILD_START_TIMEOUT_S = 60.0
_CHILD_STOP_TIMEOUT_S = 20.0


def peak_rss_kib(pid="self", reset: bool = False) -> int:
    """``VmHWM`` of a process; ``reset`` (this process only) first drops the
    mark to the current RSS (``5`` to ``clear_refs``), so that a workload
    reports its own peak and not that of whatever ran before it here."""
    if reset:
        # Hand freed heap back first: what an earlier workload's allocator
        # kept would otherwise be counted as this one's memory.
        ctypes.CDLL(None).malloc_trim(0)
        with open(f"/proc/{pid}/clear_refs", "w") as handle:
            handle.write("5")
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _remove(directory: str | None) -> None:
    if directory is not None:
        shutil.rmtree(directory, ignore_errors=True)


class Topology:
    name = "?"
    insert_span = "?"
    _dir: str | None = None

    def __init__(self, workload, inputs, workdir: str, recorder):
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.recorder = recorder
        self.sql = workload.sql

    def flush(self) -> None:
        """Return once every inserted batch is acknowledged."""

    def child_cpu_s(self) -> float:
        """User+sys CPU of system-under-test processes other than ours."""
        return 0.0

    def child_peak_rss_kib(self) -> int:
        return 0


class _EngineTopology(Topology):
    """Shared by the two in-process topologies: the engine *is* the system."""

    engine: QueryEngine

    def insert(self, index: int) -> None:
        with self.recorder.span(self.insert_span, seq=index):
            self.engine.insert_cols(self.inputs.col_batches[index])

    def query(self) -> list:
        """Exactly what ``SingleEngineBackend.query`` does: snapshot, fold
        into a throwaway engine, finalize that."""
        span = self.recorder.span
        with span("dsms.engine.partial_state_bytes"):
            blob = self.engine.partial_state_bytes()
        with span("dsms.engine.collector"):
            collector = QueryEngine(parse(self.sql), PACKET_SCHEMA)
        with span("dsms.engine.merge_partial"):
            collector.merge_partial(blob)
        with span("dsms.engine.flush"):
            return collector.flush()


class InprocTopology(_EngineTopology):
    name = "inproc"
    insert_span = "dsms.engine.insert_cols"

    def start(self) -> None:
        self.engine = QueryEngine(parse(self.sql), PACKET_SCHEMA)
        self._blob_path = os.path.join(self.workdir, "inproc.partial")
        self._state_bytes = 0

    def checkpoint(self) -> None:
        with self.recorder.span("dsms.engine.partial_state_bytes"):
            blob = self.engine.partial_state_bytes()
        with self.recorder.span("os.fsync"):
            with open(self._blob_path, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
        self._state_bytes = len(blob)

    def state_bytes(self) -> int:
        return self._state_bytes

    def stop(self) -> None:
        self.engine = None


class StoreTopology(_EngineTopology):
    name = "store"
    insert_span = "store.tiered.insert_cols"

    store: TieredStore | None = None

    def start(self) -> None:
        self._dir = os.path.join(self.workdir, "store")
        # Foreground compaction (the default): a background thread on a
        # 2-core host would measure the scheduler.
        self.store = TieredStore(self._dir, hot_groups=self.workload.hot_groups)
        self.engine = QueryEngine(
            parse(self.sql), PACKET_SCHEMA, store=self.store
        )

    def checkpoint(self) -> None:
        with self.recorder.span("store.tiered.checkpoint"):
            self.engine.store_checkpoint()

    def state_bytes(self) -> int:
        """Segment bytes of the live records: sealed, compacted, and the
        compacted-away files retired.  The dead records a seed's eviction
        order happens to leave behind vary by ±0.8 % from seed to seed,
        which would blur a 1 % bound; write amplification has its own
        metric, ``store.tiered.spilled_bytes_per_row``."""
        # The counters as ingest and the probes left them, for the ledger:
        # compaction reads every live cold record and counts that too.
        self.stats = self.store.stats()
        self.engine.store_checkpoint()
        self.store.compact(force=True)
        self.engine.store_checkpoint()
        return self.store.segment_bytes_on_disk()

    def stop(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None
        self.engine = None
        _remove(self._dir)


class ServedTopology(Topology):
    """``python -m repro serve`` child, one columnar client over loopback,
    default credit window (8): a closed loop with one client."""

    name = "served"
    insert_span = "serve.client.insert"

    child: subprocess.Popen | None = None
    client: ServeClient | None = None
    _log = None

    def start(self) -> None:
        self._dir = os.path.join(self.workdir, "served")
        os.makedirs(self._dir)
        port_file = os.path.join(self._dir, "port")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC_DIR, env.get("PYTHONPATH")])
        )
        with self.recorder.span("serve.server.startup"):
            self._log = open(os.path.join(self._dir, "server.log"), "wb")
            self.child = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", self.sql,
                 "--port", "0", "--port-file", port_file,
                 "--state-dir", os.path.join(self._dir, "state")],
                env=env, stdout=self._log, stderr=subprocess.STDOUT,
            )
            try:
                os.sched_setaffinity(self.child.pid, {CHILD_CPU})
            except ProcessLookupError:
                pass  # died at once; _await_port reports why
            host, port = self._await_port(port_file)
            self.client = ServeClient(host, port)
        self._ckpt_bytes = 0

    def _await_port(self, port_file: str) -> tuple[str, int]:
        deadline = time.monotonic() + _CHILD_START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.child.poll() is not None:
                with open(self._log.name, "rb") as log:
                    output = log.read().decode("utf-8", "replace")
                raise RuntimeError(
                    f"repro serve exited with {self.child.returncode} "
                    f"during start-up:\n{output}"
                )
            try:
                with open(port_file) as handle:
                    host, port = handle.read().split()
                return host, int(port)
            except (FileNotFoundError, ValueError):
                time.sleep(0.002)
        raise RuntimeError("repro serve did not write its port file in time")

    def insert(self, index: int) -> None:
        with self.recorder.span(self.insert_span, seq=index):
            self.client.insert(self.inputs.row_batches[index])

    def flush(self) -> None:
        with self.recorder.span("serve.client.flush"):
            self.client.flush()

    def query(self) -> list:
        with self.recorder.span("serve.client.query"):
            return self.client.query()

    def checkpoint(self) -> None:
        with self.recorder.span("serve.client.checkpoint"):
            self._ckpt_bytes = int(self.client.checkpoint()["bytes"])

    def state_bytes(self) -> int:
        return self._ckpt_bytes

    def child_cpu_s(self) -> float:
        with open(f"/proc/{self.child.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def child_peak_rss_kib(self) -> int:
        return peak_rss_kib(self.child.pid)

    def stop(self) -> None:
        if self.client is not None:
            self.client.close()  # never raises: dead transports close quietly
            self.client = None
        if self.child is not None:
            self.child.terminate()
            try:
                self.child.wait(timeout=_CHILD_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.child.kill()
                self.child.wait()
            self.child = None
        if self._log is not None:
            self._log.close()
            self._log = None
        _remove(self._dir)


class ClusterTopology(Topology):
    """``Coordinator.local``: three ``LocalNode``s in this process — three
    node *processes* on two cores would measure the scheduler."""

    name = "cluster"
    insert_span = "cluster.coordinator.insert_cols"

    coordinator: Coordinator | None = None

    def start(self) -> None:
        self._dir = os.path.join(self.workdir, "cluster")
        self.coordinator = Coordinator.local(
            self.sql, PACKET_SCHEMA, self._dir, node_count=3
        )

    def insert(self, index: int) -> None:
        with self.recorder.span(self.insert_span, seq=index):
            self.coordinator.insert_cols(self.inputs.col_batches[index])

    def flush(self) -> None:
        with self.recorder.span("cluster.coordinator.flush"):
            self.coordinator.flush()

    def query(self) -> list:
        with self.recorder.span("cluster.coordinator.query"):
            return self.coordinator.query()

    def checkpoint(self) -> None:
        with self.recorder.span("cluster.coordinator.checkpoint"):
            self.coordinator.checkpoint()

    def state_bytes(self) -> int:
        """What a fan-out query ships: every node's PARTIALS blobs."""
        with self.recorder.span("cluster.coordinator.partial_blobs"):
            return sum(map(len, self.coordinator.partial_blobs()))

    def stop(self) -> None:
        if self.coordinator is not None:
            self.coordinator.close()
            self.coordinator = None
        _remove(self._dir)


TOPOLOGIES = {
    cls.name: cls
    for cls in (InprocTopology, ServedTopology, StoreTopology, ClusterTopology)
}
