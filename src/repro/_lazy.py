"""Package exports loaded on first use (PEP 562).

A package ``__init__`` imports eagerly only what a plain run calls and
lists the rest of its ``__all__`` here, grouped by submodule::

    __getattr__, __dir__ = lazy_exports(__name__, globals(), {
        ".tracer": ("Tracer",),
    })

``from package import Tracer`` and ``package.Tracer`` then import
``package.tracer`` the first time the name is asked for and bind it in
the package namespace, so later lookups are plain attribute reads.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, namespace: Dict[str, object], exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps a relative submodule name to the names it provides.
    """
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__
