"""Package exports that resolve on first use (PEP 562).

A package ``__init__`` imports nothing: it hands :func:`lazy_exports` one
table, ``submodule -> exported names``, and gets back the module-level
``__getattr__`` / ``__dir__`` / ``__all__`` that make ``from pkg import
Name``, ``pkg.Name``, ``from pkg import *`` and ``pkg.submodule`` load
the defining submodule then, and only then.  A process therefore pays
for the modules its query runs, not for the library's whole import graph.
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps a module (``".submodule"``, relative to ``package``,
    or an absolute name) to the names the package exports from it.  A
    resolved name is stored on the package, so each is looked up once and
    ``pkg.Name is pkg.submodule.Name``; any other public attribute is
    tried as a submodule (``import pkg; pkg.submodule``) before
    ``AttributeError``.
    """
    origin = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        module = origin.get(name)
        if module is not None:
            value = getattr(import_module(module, package), name)
            setattr(sys.modules[package], name, value)
            return value
        if not name.startswith("_"):
            try:
                return import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *origin})

    return __getattr__, __dir__, list(origin)
