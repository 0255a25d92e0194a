"""Package re-exports that resolve on first access (PEP 562).

A package ``__init__`` hands :func:`lazy_exports` one name table — each
submodule mapped to the names it defines — and binds the returned
``__getattr__``, ``__dir__`` and ``__all__``.  Importing the package
then loads none of its submodules; ``from package import Name``,
``from package import *`` and ``dir(package)`` behave as eager
re-exports would, and classes keep the module path they pickle under.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for ``package`` re-exporting
    ``table``: relative submodule name -> the names it defines."""
    origin = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        # Cache on the package: the next access is a plain attribute.
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__, sorted(origin)
