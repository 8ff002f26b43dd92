"""Package-level guards."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

import superdraw
from conftest import BENCH, load_bench


def test_every_public_name_resolves():
    # Per-layer tracing wraps each module's `__all__` by name, so a name
    # left behind by a deletion would break every traced run.
    for info in pkgutil.iter_modules(superdraw.__path__):
        mod = importlib.import_module(f"superdraw.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"superdraw.{info.name}.{name}"
    # It also wraps a few functions outside `__all__` and a few methods,
    # each looked up in its own class's `__dict__`: a method moved to a
    # subclass or deleted raises KeyError in every traced run.
    spans = load_bench("spans")
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
    for path in [*root.glob("*.py"), *BENCH.glob("*.py")]:
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


def _superdraw_imports(path: Path) -> list:
    """Every `superdraw` module or name an import statement of `path`
    names, at any depth, function bodies included."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names += [f"{node.module}.{a.name}" for a in node.names]
    return sorted(n for n in names if n.split(".")[0] == "superdraw")


def test_references_share_no_formula_code_with_the_package():
    # A check that calls the code it checks moves with it: with a wrong
    # exponent in `utility._crra` on both sides, the two agree. The
    # benchmark's reference imports nothing from the package, and the test
    # oracles only its error types and the ESG state they return.
    root = BENCH.parent
    assert _superdraw_imports(BENCH / "reference.py") == []
    allowed = ("superdraw.errors", "superdraw.esg.EconState")
    assert [n for n in _superdraw_imports(root / "tests" / "oracles.py")
            if not any(n == a or n.startswith(a + ".") for a in allowed)] \
        == []


def test_benchmark_selftest_passes():
    # The benchmark's checks read the outputs as text; its self-test shows
    # that each accepts the package's real output and rejects a corruption.
    bench = Path(__file__).resolve().parents[1] / "bench"
    done = subprocess.run([sys.executable, str(bench / "selftest.py")],
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "13/13 checks" in done.stdout
