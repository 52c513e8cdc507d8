"""ndslab: exact verification toolkit for non-autonomous map sequences on
symbolic, finite, and rotational phase spaces."""

__version__ = "0.1.0"

from . import checkers, hitting, maps, ndsl, spaces  # noqa: F401

# `ndslab check` uses none of these, so they load on first access (PEP 562)
_ON_FIRST_USE = ("chaos", "convergence", "corpus")


def __getattr__(name):
    if name in _ON_FIRST_USE:
        from importlib import import_module

        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
