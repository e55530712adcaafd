"""Package exports resolved on first use (PEP 562).

A package ``__init__`` that re-exports its submodules' public names
would import every one of them, and whatever they import, as soon as
anything under the package is imported: a server process would load
the simulator, the scenarios and every protocol.  Instead each package
lists where its names live and resolves one when it is first read::

    __getattr__, __dir__, __all__ = exports(__name__, {"ServerCore": ".core"})

``from repro.net import ServerCore`` then imports ``repro.net.core``
alone, and ``repro.net.ServerCore`` is the same object afterwards.
"""

from __future__ import annotations

import importlib
import sys


def exports(package: str, names: dict[str, str]):
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``names`` maps each public name to the module that defines it,
    relative to the package (``".core"``), or to ``"module:attribute"``
    when the package exports it under another name.
    """

    def __getattr__(name: str):
        target = names.get(name)
        if target is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module, _, attribute = target.partition(":")
        value = getattr(importlib.import_module(module, package),
                        attribute or name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(names))

    return __getattr__, __dir__, list(names)
