"""The serving and engine paths never import numpy.

ROADMAP item 2 (3) asked whether ``compile_cols`` / ``update_cols`` should
reach the numpy ``update_many`` kernels four ``core/`` modules import
lazily.  Measured on the benchmark host: ``import numpy`` costs +16.1 MiB
RSS and +242 ms per process — on ``countsum_served`` alone +14 %
``peak_rss_mb`` (bound 0.10) and +40 % ``setup_s`` (bound 0.25).  So the
engine path does not reach them, and this keeps it so.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import repro.serve.server, repro.cli
assert "numpy" not in sys.modules, "importing the server or the CLI loads numpy"
from repro.core.cols import rows_to_cols
from repro.dsms.engine import QueryEngine
from repro.dsms.parser import parse_query
from repro.dsms.udaf import default_registry
from repro.workloads.netflow import (
    PACKET_SCHEMA, PacketTraceConfig, PacketTraceGenerator,
)
sql = (
    "select tb, destPort, fwd_hh(destIP, exp((time % 60) * 0.1)) as hh, "
    "fwd_quantiles(len, exp((time % 60) * 0.1)) as q, "
    "prisamp(srcIP, exp((time % 60) * 0.1)) as samp, "
    "unary_hh(destIP) as u, sum(exp((time % 60) * 0.1)) as w "
    "from TCP group by time/60 as tb, destPort"
)
engine = QueryEngine(parse_query(sql, default_registry()), PACKET_SCHEMA)
rows = PacketTraceGenerator(
    PacketTraceConfig(rate_per_sec=50.0, duration_sec=90.0, seed=3)
).materialize()
engine.insert_cols(rows_to_cols(rows))
blob = engine.partial_state_bytes()
assert len(engine.flush()) > 1 and len(blob) > 1000
assert "numpy" not in sys.modules, "a sketch query's insert_cols loads numpy"
"""


def test_numpy_is_not_imported_by_the_server_the_cli_or_a_sketch_ingest():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
