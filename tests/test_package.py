"""Package-level guards."""

import ast
import importlib
import importlib.util
import pkgutil
import sys
import tokenize
from collections import Counter
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


def _name_uses(path: Path) -> Counter:
    """NAME tokens of one source file, minus the name a `def`/`class`
    statement or a module-level assignment defines. Strings, comments
    and docstrings (so `__all__` entries) do not count."""
    uses = Counter()
    with open(path, "rb") as fh:
        toks = [t for t in tokenize.tokenize(fh.readline)
                if t.type not in (tokenize.NL, tokenize.COMMENT)]
    for prev, tok, nxt in zip([None] + toks, toks, toks[1:] + [None]):
        if tok.type != tokenize.NAME:
            continue
        if prev is not None and prev.string in ("def", "class"):
            continue
        if tok.start[1] == 0 and nxt is not None and nxt.string == "=":
            continue
        uses[tok.string] += 1
    return uses


def test_every_public_name_has_a_caller():
    # A public name that only tests reach is a second copy of a formula
    # (or a helper) the program never runs; it belongs in tests/.
    root = Path(superdraw.__file__).resolve().parent
    uses = Counter()
    for path in [*root.glob("*.py"), *SPANS.parent.glob("*.py")]:
        uses += _name_uses(path)
    unused = []
    for info in pkgutil.iter_modules(superdraw.__path__):
        mod = importlib.import_module(f"superdraw.{info.name}")
        for name in getattr(mod, "__all__", ()):
            if not uses[name]:
                unused.append(f"superdraw.{info.name}.{name}")
    assert unused == []


def test_only_csvblock_imports_csv():
    # One CSV reader and one CSV writer: every other module goes through
    # `_csvblock`.
    def imports_csv(node):
        if isinstance(node, ast.Import):
            return any(a.name == "csv" for a in node.names)
        return isinstance(node, ast.ImportFrom) and node.module == "csv"

    root = Path(superdraw.__file__).resolve().parent
    importers = [path.stem for path in sorted(root.glob("*.py"))
                 if any(map(imports_csv, ast.walk(ast.parse(
                     path.read_text()))))]
    assert importers == ["_csvblock"]
