"""Package exports that import their defining module on first access.

A package's ``__init__`` names each public name's submodule instead of
importing it, so a process loads only the modules it uses: ``cli
serve`` never imports the figure harness, the fleet or GSP.  The names
behave as if imported eagerly (PEP 562): ``from repro import X``,
``repro.X``, ``dir(repro)`` and ``from repro import *`` all see them.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(package: str, exports: Dict[str, Sequence[str]]
                 ) -> Tuple[List[str], Callable, Callable]:
    """``(__all__, __getattr__, __dir__)`` for ``package``, whose public
    names live in the submodules that ``exports`` maps to them.

    A name is imported on its first access and then bound in the
    package's namespace, so later reads never reach ``__getattr__``.
    """
    source = {name: module for module, names in exports.items()
              for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        module = source.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | source.keys())

    return list(source), __getattr__, __dir__
