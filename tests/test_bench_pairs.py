"""The claim marks of `tools/bench_pairs.py` on hand-made pairs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools"
    / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRIC = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def marks(parent, change):
    """The three marks over pairs of the given values, in order."""
    pairs = [{side: {"exit_code": 0, "correct": True,
                     "metrics": {"peak_rss_mb": {"value": v}}}
              for side, v in (("parent", p), ("change", c))}
             for p, c in zip(parent, change)]
    m = bench_pairs.summarise(pairs, METRIC)["peak_rss_mb"]
    return m["gain_claimable"], m["worse_than_bound"], m["unresolved"]


@pytest.mark.parametrize("parent, change, want", [
    # 9 of 10 wins, and a 10 MB gain against a parent IQR of about 0.2 MB.
    ([100.0 + 0.1 * i for i in range(10)], [90.0] * 9 + [101.0],
     (True, False, False)),
    # 12% worse than a 10% bound.
    ([100.0] * 10, [112.0] * 10, (False, True, False)),
    # The parent's IQR (30 MB around 100) is wider than the 10 MB bound.
    ([60.0, 80.0, 90.0, 100.0, 100.0, 100.0, 110.0, 120.0, 130.0, 140.0],
     [100.0] * 10, (False, False, True)),
    # As wide, but every change run reads better than every parent run.
    ([60.0, 80.0, 90.0, 100.0, 100.0, 100.0, 110.0, 120.0, 130.0, 140.0],
     [50.0] * 10, (True, False, False)),
])
def test_marks(parent, change, want):
    assert marks(parent, change) == want
