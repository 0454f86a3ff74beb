"""Pin the command line: every subcommand's options, as a user types them.

The table maps each subcommand to ``{dest: (option strings, default, type
name, required)}`` for every argument but ``--help``.  Refactoring how the
parser is built (shared parent parsers, helpers) must leave it unchanged.
"""

import argparse

from repro.cli import build_parser

_CLIENT = {
    "backoff": (("--backoff",), 0.05, "float", False),
    "host": (("--host",), "127.0.0.1", None, False),
    "port": (("--port",), None, "int", True),
    "retries": (("--retries",), 0, "int", False),
}
_ACCURACY = {
    "epsilon": (("--epsilon",), 0.01, "float", False),
    "sample_size": (("--sample-size",), 100, "int", False),
}
_JSON = {"json": (("--json",), False, None, False)}

EXPECTED = {
    "bench": {
        "no_stats": (("--no-stats",), False, None, False),
        "out_dir": (("--out-dir",), ".", None, False),
        "repeats": (("--repeats",), 3, "int", False),
        "scale": (("--scale",), 1.0, "float", False),
        "stats_out": (("--stats-out",), ".repro_stats.json", None, False),
        "suite": ((), None, None, True),
    },
    "checkpoint": {},
    "checkpoint inspect": {"path": ((), None, None, True), **_JSON},
    "client": {},
    "client checkpoint": _CLIENT,
    "client query": _CLIENT,
    "client replay": {
        **_CLIENT,
        "batch": (("--batch",), 512, "int", False),
        "query": (("--query",), False, None, False),
        "trace": (("--trace",), None, None, True),
    },
    "client stats": _CLIENT,
    "client subscribe": {
        **_CLIENT,
        "count": (("--count",), 5, "int", False),
        "interval": (("--interval",), 1.0, "float", False),
    },
    "cluster": {
        "batch": (("--batch",), 512, "int", False),
        "duration": (("--duration",), 30, "int", False),
        "nodes": (("--nodes",), 3, "int", False),
        "process": (("--process",), False, None, False),
        "rate": (("--rate",), 200, "int", False),
        "seed": (("--seed",), 42, "int", False),
        "sql": ((), None, None, True),
        "state_dir": (("--state-dir",), None, None, False),
        "trace": (("--trace",), None, None, False),
        "verify": (("--verify",), False, None, False),
    },
    "figure": {
        "duration": (("--duration",), 4.0, "float", False),
        "figure": ((), None, "_figure_id", True),
        "rate": (("--rate",), 5000.0, "float", False),
        "trace": (("--trace",), None, None, False),
    },
    "query": {
        **_ACCURACY,
        "limit": (("--limit",), 0, "int", False),
        "sql": ((), None, None, True),
        "trace": (("--trace",), None, None, True),
    },
    "serve": {
        **_ACCURACY,
        "checkpoint_interval": (("--checkpoint-interval",), None, "float", False),
        "credit_window": (("--credit-window",), 8, "int", False),
        "host": (("--host",), "127.0.0.1", None, False),
        "idle_timeout": (("--idle-timeout",), None, "float", False),
        "max_frame_bytes": (("--max-frame-bytes",), 8388608, "int", False),
        "multiprocess": (("--multiprocess",), False, None, False),
        "no_metrics": (("--no-metrics",), False, None, False),
        "port": (("--port",), 0, "int", False),
        "port_file": (("--port-file",), None, None, False),
        "run_seconds": (("--run-seconds",), None, "float", False),
        "shards": (("--shards",), 0, "int", False),
        "sql": ((), None, None, True),
        "state_dir": (("--state-dir",), None, None, False),
        "store_dir": (("--store-dir",), None, None, False),
        "store_hot_groups": (("--store-hot-groups",), 4096, "int", False),
    },
    "stats": {"path": (("--in",), ".repro_stats.json", None, False), **_JSON},
    "store": {},
    "store inspect": {"directory": ((), None, None, True), **_JSON},
    "summaries": {},
    "summaries list": {
        "kind": (("--kind",), None, None, False),
        "verbose": (("--verbose", "-v"), False, None, False),
    },
    "trace": {
        "dest_ips": (("--dest-ips",), 5000, "int", False),
        "duration": (("--duration",), 10.0, "float", False),
        "jitter": (("--jitter",), 0.0, "float", False),
        "out": (("--out",), None, None, True),
        "proto": (("--proto",), "mixed", None, False),
        "rate": (("--rate",), 5000.0, "float", False),
        "seed": (("--seed",), 42, "int", False),
    },
}


def subcommand_options(parser, path=()):
    """``{"sub command": {dest: (options, default, type, required)}}``."""
    table, options = {}, {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table.update(subcommand_options(sub, (*path, name)))
        elif not isinstance(action, argparse._HelpAction):
            options[action.dest] = (
                tuple(action.option_strings),
                action.default,
                getattr(action.type, "__name__", None),
                action.required,
            )
    if path:
        table[" ".join(path)] = options
    return table


def test_every_subcommand_keeps_its_options():
    assert subcommand_options(build_parser()) == EXPECTED
