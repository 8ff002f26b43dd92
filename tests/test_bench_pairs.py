"""The claim marks of `tools/bench_pairs.py` on hand-made pairs, and its
argument checks."""

import importlib.util
import json
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


ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def runs(monkeypatch):
    """The (path, workload) of each benchmark run, none of them started."""
    calls = []

    def fake_run(path, workload, seed, seconds, trace=0):
        calls.append((path, workload))
        return {"exit_code": 0, "correct": True,
                "metrics": {"command_s": {"value": 1.0}}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    return calls


def pairs_main(*args):
    return bench_pairs.main(["--parent", str(ROOT), "--change", str(ROOT),
                             "--pairs", "2", *map(str, args)])


@pytest.mark.parametrize("workload, out, message", [
    ("desk-training", None, "--workload 'desk-training' is not one of "
     "desk-train, held-out-eval, scenario-export"),
    ("held-out-eval", "missing", "is not an existing directory"),
    ("held-out-eval", "a-file", "is not an existing directory"),
])
def test_bad_arguments_exit_2_before_any_run(runs, capsys, tmp_path,
                                             workload, out, message):
    (tmp_path / "a-file").write_text("")
    out_args = [] if out is None else ["--out", tmp_path / out]
    with pytest.raises(SystemExit) as exc:
        pairs_main("--workload", workload, *out_args)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert runs == []


def test_pairs_write_their_summary_to_out(runs, tmp_path):
    assert pairs_main("--workload", "held-out-eval", "--out", tmp_path) == 0
    assert [w for _, w in runs] == ["held-out-eval"] * 6
    doc = json.loads((tmp_path / "BENCH_held-out-eval.json").read_text())
    assert doc["metrics"]["command_s"]["wins"] == 0
