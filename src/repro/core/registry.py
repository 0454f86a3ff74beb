"""Registry of every concrete :class:`~repro.core.protocol.StreamSummary`.

Each summary class in the library registers itself under a **stable name**
(a snake_case identifier that survives refactors — it is what
``to_bytes``/``from_bytes`` embed in serialized buffers) together with the
metadata generic drivers need:

* ``kind`` — which family the summary belongs to (``aggregate`` for the
  core constant-space and holistic decayed aggregates, ``sketch``,
  ``sampler``);
* ``input_kind`` — the meaning/arity of ``update``'s positional arguments,
  so registry-driven code (map-reduce, conformance tests, benchmarks) can
  build argument columns without per-class special cases;
* ``mergeable`` / ``exact_merge`` — whether ``merge`` is supported at all,
  and whether merging disjoint substreams reproduces the whole-stream
  summary exactly (within float arithmetic) or only approximately (e.g.
  GK's lossy merge);
* ``ordered`` — whether ``update`` requires non-decreasing timestamps
  (the backward-decay baselines: exponential histograms, sliding-window
  heavy hitters);
* ``factory`` — a zero-argument constructor producing a ready-to-use
  instance with representative default parameters, used by the CLI, the
  conformance tests, and generic benchmarks;
* ``signature`` — the constructor signature, recorded for documentation
  and the ``repro summaries list`` CLI.

Registration happens at class-definition time via the
:func:`register_summary` decorator in each defining module.  A lookup by
name (:func:`get_summary`, :func:`create_summary`, ``from_bytes``) imports
only the module that defines that name; :func:`load_all` imports every
summary module so enumeration is complete.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from typing import Callable

from repro.core.errors import ParameterError
from repro.core.protocol import StreamSummary

__all__ = [
    "SummaryInfo",
    "register_summary",
    "get_summary",
    "summary_name_of",
    "summary_names",
    "iter_summaries",
    "create_summary",
    "load_all",
    "INPUT_KINDS",
]

#: ``input_kind`` → human description of ``update``'s positional arguments.
INPUT_KINDS: dict[str, str] = {
    "time_value": "update(timestamp, value=1.0)",
    "item_time": "update(item, timestamp)",
    "value_time": "update(value, timestamp)",
    "item_weight": "update(item, weight=1.0)",
    "value_weight": "update(value, weight=1.0)",
    "item": "update(item)",
    "time": "update(timestamp), non-decreasing timestamps",
    "time_value_ordered": "update(timestamp, value), non-decreasing timestamps",
    "item_logweight": "update(item, log_weight)",
}

#: Every summary module of the library and the stable names it registers.
#: A lookup by name imports the one module that defines it; only
#: enumeration imports them all.
_SUMMARY_MODULES: dict[str, tuple[str, ...]] = {
    "repro.core.aggregates": (
        "decayed_count", "decayed_sum", "decayed_average", "decayed_variance",
        "decayed_min", "decayed_max", "decayed_algebraic",
    ),
    "repro.core.heavy_hitters": ("decayed_heavy_hitters",),
    "repro.core.quantiles": ("decayed_quantiles",),
    "repro.core.distinct": ("exact_decayed_distinct", "decayed_distinct_count"),
    "repro.sketches.spacesaving": ("weighted_spacesaving", "unary_spacesaving"),
    "repro.sketches.qdigest": ("qdigest",),
    "repro.sketches.gk": ("gk_summary",),
    "repro.sketches.kmv": ("kmv",),
    "repro.sketches.dominance": ("dominance_norm",),
    "repro.sketches.exponential_histogram": ("eh_count", "eh_sum"),
    "repro.sketches.swhh": ("sliding_window_heavy_hitters",),
    "repro.sampling.reservoir": ("reservoir",),
    "repro.sampling.with_replacement": ("decayed_with_replacement",),
    "repro.sampling.weighted_reservoir": ("weighted_reservoir",),
    "repro.sampling.priority": ("priority_sampler",),
    "repro.sampling.aggarwal": ("aggarwal_reservoir",),
}
_MODULE_OF: dict[str, str] = {
    name: module for module, names in _SUMMARY_MODULES.items() for name in names
}


@dataclass(frozen=True)
class SummaryInfo:
    """Registry entry describing one concrete summary class."""

    name: str
    cls: type[StreamSummary]
    kind: str
    input_kind: str
    factory: Callable[[], StreamSummary]
    mergeable: bool = True
    exact_merge: bool = True
    ordered: bool = False
    signature: str = field(default="", compare=False)


_REGISTRY: dict[str, SummaryInfo] = {}
_BY_CLASS: dict[type, str] = {}
_LOADED = False


def register_summary(
    name: str,
    *,
    kind: str,
    input_kind: str,
    factory: Callable[[], StreamSummary],
    mergeable: bool = True,
    exact_merge: bool = True,
    ordered: bool = False,
):
    """Class decorator registering a summary under a stable ``name``."""
    if kind not in ("aggregate", "sketch", "sampler"):
        raise ParameterError(f"unknown summary kind {kind!r}")
    if input_kind not in INPUT_KINDS:
        raise ParameterError(f"unknown input_kind {input_kind!r}")

    def _decorate(cls: type) -> type:
        if not issubclass(cls, StreamSummary):
            raise ParameterError(
                f"{cls.__name__} must subclass StreamSummary to register"
            )
        existing = _REGISTRY.get(name)
        if existing is not None and existing.cls is not cls:
            raise ParameterError(f"summary name {name!r} already registered")
        try:
            signature = f"{cls.__name__}{inspect.signature(cls)}"
        except (TypeError, ValueError):  # pragma: no cover - builtins only
            signature = cls.__name__
        _REGISTRY[name] = SummaryInfo(
            name=name,
            cls=cls,
            kind=kind,
            input_kind=input_kind,
            factory=factory,
            mergeable=mergeable,
            exact_merge=exact_merge,
            ordered=ordered,
            signature=signature,
        )
        _BY_CLASS[cls] = name
        return cls

    return _decorate


def load_all() -> None:
    """Import every summary module so the registry is fully populated."""
    global _LOADED
    if _LOADED:
        return
    for module in _SUMMARY_MODULES:
        importlib.import_module(module)
    _LOADED = True


def get_summary(name: str) -> SummaryInfo:
    """Look up a registry entry by stable name (case-sensitive).

    Imports the one library module that registers ``name``.  A name the
    library's table does not hold — an out-of-tree :func:`register_summary`
    — is found if its module was imported; the miss loads every library
    module so the error can list them.
    """
    info = _REGISTRY.get(name)
    if info is None:
        module = _MODULE_OF.get(name)
        if module is not None:
            importlib.import_module(module)
        else:
            load_all()
        info = _REGISTRY.get(name)
    if info is None:
        raise ParameterError(
            f"unknown summary {name!r}; registered: {', '.join(summary_names())}"
        )
    return info


def summary_name_of(cls: type) -> str:
    """Return the stable registered name of a summary class."""
    name = _BY_CLASS.get(cls)
    if name is None:
        load_all()
        name = _BY_CLASS.get(cls)
    if name is None:
        raise ParameterError(f"{cls.__name__} is not a registered summary")
    return name


def summary_names() -> list[str]:
    """All registered stable names, sorted."""
    load_all()
    return sorted(_REGISTRY)


def iter_summaries() -> list[SummaryInfo]:
    """All registry entries, sorted by (kind, name)."""
    load_all()
    return sorted(_REGISTRY.values(), key=lambda info: (info.kind, info.name))


def create_summary(name: str, **kwargs) -> StreamSummary:
    """Instantiate a registered summary by name.

    With no ``kwargs`` the entry's default factory is used; otherwise the
    class constructor is called with the given keyword arguments.
    """
    info = get_summary(name)
    if not kwargs:
        return info.factory()
    return info.cls(**kwargs)
