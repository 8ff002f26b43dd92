"""Package-level guards."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import superdraw

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _bench_spans(monkeypatch):
    """The benchmark's tracer module, imported from its file without
    writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_public_name_resolves(monkeypatch):
    # Per-layer tracing wraps each module's `__all__` by name, so a name
    # left behind by a deletion would break every traced run.
    for info in pkgutil.iter_modules(superdraw.__path__):
        mod = importlib.import_module(f"superdraw.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"superdraw.{info.name}.{name}"
    # It also wraps a few functions outside `__all__` and a few methods,
    # each looked up in its own class's `__dict__`: a method moved to a
    # subclass or deleted raises KeyError in every traced run.
    spans = _bench_spans(monkeypatch)
    mods = {m: importlib.import_module(f"superdraw.{m}")
            for m in spans.MODULES}
    for short, names in spans.EXTRA_FUNCTIONS.items():
        for name in names:
            assert callable(getattr(mods[short], name, None)), \
                f"superdraw.{short}.{name}"
    for short, cls_name, meth, _ in spans.METHODS:
        cls = getattr(mods[short], cls_name, None)
        assert cls is not None, f"superdraw.{short}.{cls_name}"
        assert meth in cls.__dict__, f"superdraw.{short}.{cls_name}.{meth}"
