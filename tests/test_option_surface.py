"""The engine, plan and node signatures hold only options with a caller.

An option that only tests set is a module constant instead (the engine's
``LOW_TABLE_SIZE``; ``low_table`` in ``tests/conftest.py`` patches it) or
is gone.  ``two_level`` and ``emit_on_bucket_change`` stay on
``QueryEngine`` (Fig. 2(b), ``repro query --single-level``, ``run_query``),
so a grep alone cannot keep them off the plan, the backends and the
sharded engine: these signatures are pinned name for name.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

SIGNATURES = {
    "repro.dsms.engine.QueryEngine": (
        "query", "schema", "two_level", "emit_on_bucket_change", "metrics",
        "metrics_name", "store",
    ),
    "repro.dsms.engine.run_query": ("query", "schema", "rows", "two_level"),
    "repro.parallel.worker.ShardPlan": (
        "sql", "schema", "registry_params", "store_dir", "store_hot_groups",
    ),
    "repro.serve.backend.build_backend": (
        "sql", "schema", "shards", "processes", "registry_params",
        "store_dir", "store_hot_groups",
    ),
    "repro.parallel.sharded.ShardedEngine": (
        "sql", "schema", "shards", "processes", "batch_size", "router",
        "metrics", "store_dir", "store_hot_groups",
    ),
    "repro.bench.harness.time_query": (
        "name", "sql", "schema", "registry", "trace", "two_level",
        "warmup_fraction", "batch_size", "metrics", "metrics_name",
    ),
    "repro.cluster.nodes.LocalNode": ("name", "sql", "schema", "state_dir"),
    "repro.cluster.nodes.ProcessNode": ("name", "sql", "state_dir"),
    "repro.testing.chaos.ServerProcess": (
        "sql", "state_dir", "checkpoint_interval_s", "port", "log_path",
    ),
}


@pytest.mark.parametrize("path", sorted(SIGNATURES))
def test_parameter_names_are_pinned(path):
    module, _, name = path.rpartition(".")
    target = getattr(importlib.import_module(module), name)
    assert tuple(inspect.signature(target).parameters) == SIGNATURES[path]


@pytest.mark.parametrize(
    "path, method",
    [
        ("repro.parallel.sharded.ShardedEngine", "drain"),
        ("repro.serve.backend.SingleEngineBackend", "drain"),
        ("repro.parallel.pipe.PipeOwner", "drain"),
    ],
)
def test_stranded_methods_stay_deleted(path, method):
    module, _, name = path.rpartition(".")
    assert not hasattr(getattr(importlib.import_module(module), name), method)
