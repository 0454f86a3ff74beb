"""A disabled registry is the one off-switch, and it costs no imports.

A server built without a registry holds a disabled one and records into
it unconditionally; the no-op metric it hands out is the whole switch.
Such a server — every ``LocalNode`` of a cluster — must not load the
metric classes or the summaries and weight engine behind them, which is
checked in a fresh interpreter because this test process has long since
imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.obs.registry import NULL_METRIC, NULL_TIMER
from repro.serve import StreamServer, build_backend, protocol
from repro.workloads.netflow import PACKET_SCHEMA

SRC = Path(__file__).resolve().parents[2] / "src"

SQL = (
    "select tb, destIP, count(*) as c, sum(len) as s from TCP "
    "group by time/60 as tb, destIP"
)

#: What only an enabled registry needs: the metric classes, the GK
#: sketch of a latency metric, the weight engine of a decayed counter.
METRIC_MODULES = ("repro.obs.metrics", "repro.sketches.gk", "repro.core.weights")

REGISTRY_LESS_SERVER = r"""
import json, sys
from repro.serve import StreamServer, build_backend
from repro.workloads.netflow import PACKET_SCHEMA
server = StreamServer(build_backend(sys.argv[1], PACKET_SCHEMA))
assert "metrics" not in server.stats()
print(json.dumps(sorted(name for name in sys.argv[2:] if name in sys.modules)))
"""


def test_a_server_without_a_registry_holds_a_disabled_one():
    server = StreamServer(build_backend(SQL, PACKET_SCHEMA))
    assert server.metrics.enabled is False
    assert server.metrics.counter("serve.frames") is NULL_METRIC
    assert "metrics" not in server.stats()


def test_frame_timers_are_named_once_and_null_without_a_registry():
    server = StreamServer(build_backend(SQL, PACKET_SCHEMA))
    assert StreamServer._TIMERS[protocol.INSERT_COLS] == "serve.frame.INSERT_COLS.us"
    assert set(StreamServer._TIMERS) == set(StreamServer._HANDLERS)
    assert all(
        server.metrics.timer(name) is NULL_TIMER
        for name in StreamServer._TIMERS.values()
    )
    assert len(server.metrics) == 0


def test_a_server_without_a_registry_loads_no_metric_class():
    child = subprocess.run(
        [sys.executable, "-c", REGISTRY_LESS_SERVER, SQL, *METRIC_MODULES],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == []
