"""The library's signatures hold only options with a caller.

An option that only tests set is a module constant instead (the engine's
``LOW_TABLE_SIZE``; ``low_table`` in ``tests/conftest.py`` patches it) or
is gone.  ``two_level`` stays on ``QueryEngine`` and ``time_query``
alone: the Fig. 2(a) / 2(b) runners set it, and no other caller runs a
two-level engine (``run_query`` and ``repro query`` are one-level) —
time buckets are ``run_query``'s alone, so the engine, its blob and the
store carry none — and ``metrics`` on ``time_query`` alone (the
instrumented pass of ``repro bench``, which attaches the instrumentation
itself; the engine takes no registry).  So a grep alone cannot keep them
off the engine, the plan, the backends, the router, the store and the
sharded engine: these signatures are pinned name for name, and the
methods a retired capability needed stay deleted.  Every metric of a kind
has one shape (``repro.obs.metrics``' ``HALF_LIFE_S``,
``LATENCY_EPSILON``, ``HOT_KEY_CAPACITY``), so the registry takes a name
and nothing else.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

SIGNATURES = {
    "repro.dsms.engine.QueryEngine": ("query", "schema", "two_level", "store"),
    "repro.dsms.engine.run_query": ("query", "schema", "rows"),
    "repro.parallel.worker.ShardPlan": (
        "sql", "schema", "registry_params", "store_dir", "store_hot_groups",
    ),
    "repro.serve.backend.build_backend": (
        "sql", "schema", "shards", "processes", "registry_params",
        "store_dir", "store_hot_groups",
    ),
    "repro.parallel.sharded.ShardedEngine": (
        "sql", "schema", "shards", "processes", "store_dir", "store_hot_groups",
    ),
    "repro.parallel.router.Router": (
        "plan", "placement", "make_owner", "frame_rows", "checkpoint_reads",
    ),
    "repro.store.tiered.TieredStore": ("directory", "hot_groups"),
    "repro.store.tiered.TieredStore.take_cold": ("self",),
    "repro.serve.client._ClientCore": (
        "host", "port", "schema_names", "retries", "backoff_s",
    ),
    "repro.cluster.ring.HashRing": ("nodes",),
    "repro.sketches.kmv.check_seed": ("seed",),
    "repro.dsms.udaf.default_registry": (
        "hh_epsilon", "hh_phi", "eh_epsilon", "sample_size",
    ),
    "repro.bench.harness.time_query": (
        "name", "sql", "schema", "registry", "trace", "two_level", "metrics",
    ),
    "repro.bench.harness.time_consumer": (
        "name", "consumer", "trace", "state_bytes",
    ),
    "repro.cluster.nodes.LocalNode": ("name", "sql", "schema", "state_dir"),
    "repro.cluster.nodes.ProcessNode": ("name", "sql", "state_dir"),
    "repro.testing.chaos.ServerProcess": (
        "sql", "state_dir", "checkpoint_interval_s", "port", "log_path",
    ),
    "repro.obs.registry.MetricsRegistry.counter": ("self", "name"),
    "repro.obs.registry.MetricsRegistry.rate": ("self", "name"),
    "repro.obs.registry.MetricsRegistry.latency": ("self", "name"),
    "repro.obs.registry.MetricsRegistry.hotkeys": ("self", "name"),
    "repro.obs.registry.MetricsRegistry.timer": ("self", "name"),
    "repro.obs.metrics.DecayedCounter": ("clock",),
    "repro.obs.metrics.DecayedRateGauge": ("clock",),
    "repro.obs.metrics.LatencyQuantiles": (),
    "repro.obs.metrics.HotKeyTracker": (),
}


@pytest.mark.parametrize("path", sorted(SIGNATURES))
def test_parameter_names_are_pinned(path):
    target = pkgutil.resolve_name(path)
    assert tuple(inspect.signature(target).parameters) == SIGNATURES[path]


@pytest.mark.parametrize(
    "path, method",
    [
        ("repro.parallel.sharded.ShardedEngine", "drain"),
        ("repro.serve.backend.SingleEngineBackend", "drain"),
        ("repro.parallel.pipe.PipeOwner", "drain"),
        # The served punctuation chain: forward decay needs no marker to
        # move event time, and no engine a plan builds acted on one.
        ("repro.serve.protocol", "HEARTBEAT"),
        ("repro.serve.server.StreamServer", "_handle_heartbeat"),
        ("repro.serve.client._ClientCore", "heartbeat"),
        ("repro.cluster.coordinator.NodeOwner", "heartbeat"),
        ("repro.parallel.router.Router", "heartbeat"),
        ("repro.parallel.router.Router", "heartbeat_all"),
        ("repro.parallel.router.Router", "_heartbeat"),
        ("repro.parallel.routing.GroupKeyRouter", "owner"),
        # Round-robin dealing of un-keyed rows: the one key () is placed.
        ("repro.parallel.routing.GroupKeyRouter", "keyed"),
        ("repro.parallel.pipe.PipeOwner", "heartbeat"),
        ("repro.serve.backend.SingleEngineBackend", "heartbeat"),
        ("repro.parallel.sharded.ShardedBackend", "heartbeat"),
        # The row buffers under the API edge.
        ("repro.parallel.router.Router", "process"),
        ("repro.parallel.router.Router", "_flush_edge"),
        ("repro.serve.client._ClientCore", "append"),
        ("repro.serve.client._ClientCore", "_ship_buffer"),
        # The second and third timing loops, the recorded batched-ingest
        # ablation and the caller-less table and instrumentation helpers.
        ("repro.bench.runners", "run_batched_vs_tuple"),
        ("repro.dsms.runtime", "measure_per_tuple_cost"),
        ("repro.bench.tables", "print_table"),
        ("repro.obs.instrument", "instrument_engine"),
        # Bucket-close emission, now run_query's alone.
        ("repro.dsms.engine.QueryEngine", "heartbeat"),
        ("repro.dsms.engine.QueryEngine", "drain"),
        ("repro.store.tiered.TieredStore", "load_bucket"),
        # Functions no system caller reached: a registered summary only an
        # ablation used, a second summary codec, second ingest paths and
        # merges nothing folds.
        ("repro.sketches", "CountMinSketch"),
        ("repro.sketches", "countmin"),
        ("repro.core", "dump_summary"),
        ("repro.core", "load_summary"),
        ("repro.core.serde", "dump_summary"),
        ("repro.core.serde", "load_summary"),
        ("repro.core.serde", "dump_decay"),
        ("repro.core.serde", "load_decay"),
        ("repro.dsms.engine.QueryEngine", "_evaluate_against_key"),
        ("repro.dsms.schema.Schema", "validate"),
        ("repro.sampling.reservoir.ReservoirSampler", "extend"),
        ("repro.obs.metrics.DecayedCounter", "merge"),
        ("repro.obs.metrics.DecayedRateGauge", "merge"),
        ("repro.obs.metrics.LatencyQuantiles", "merge"),
        ("repro.obs.metrics.HotKeyTracker", "merge"),
        ("repro.obs.metrics.LastValueGauge", "merge"),
        ("repro.obs.metrics", "_merge_factor"),
        ("repro.obs.registry.NullMetric", "merge"),
        ("repro.obs.registry.MetricsRegistry", "merge"),
        ("repro.obs.registry", "_empty_clone"),
        # Engine hooks no instrumented pass fires (it runs process and
        # flush only), and metric readings no system caller takes.
        ("repro.obs.instrument", "TimedUdaf"),
        ("repro.obs.instrument.EngineInstrumentation", "_insert_cols"),
        ("repro.obs.instrument.EngineInstrumentation", "_select_and_eval"),
        ("repro.obs.instrument.EngineInstrumentation", "partial_encoded"),
        ("repro.obs.instrument.EngineInstrumentation", "partial_decoded"),
        ("repro.obs.metrics.DecayedCounter", "landmark"),
        ("repro.obs.metrics.DecayedCounter", "static_numerator"),
        ("repro.obs.metrics.HotKeyTracker", "total_weight"),
        # A group's location is group_hash of its key alone: no ring
        # diagnostic only tests read, no second store key hash.
        ("repro.cluster.ring.HashRing", "spread"),
        ("repro.store.tiered", "_hash_of"),
    ],
)
def test_stranded_methods_stay_deleted(path, method):
    module, _, name = path.rpartition(".")
    assert not hasattr(getattr(importlib.import_module(module), name), method)


@pytest.mark.parametrize(
    "path, method",
    [
        # The base class's update loop is the one batch path.
        ("repro.sketches.gk.GKSummary", "update_many"),
    ],
)
def test_stranded_overrides_stay_deleted(path, method):
    assert method not in vars(pkgutil.resolve_name(path))
