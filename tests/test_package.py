"""Package-level guards."""

import importlib
import pkgutil

import superdraw


def test_every_public_name_resolves():
    # Per-layer tracing wraps each module's `__all__` by name, so a name
    # left behind by a deletion would break every traced run.
    for info in pkgutil.iter_modules(superdraw.__path__):
        mod = importlib.import_module(f"superdraw.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"superdraw.{info.name}.{name}"
