"""End-to-end command tests through the argparse entry point."""

import csv
import dataclasses
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from superdraw import _csvblock, cli, evaluator
from superdraw.baselines import StrategyKind
from superdraw.cli import main
from superdraw.esg import DEFAULT_PARAMS, load_params
from superdraw.trainer import TrainConfig
from test_esg import _assert_no_helper_left, _count_forks


def run(argv):
    return main([str(a) for a in argv])


def write_config(path, text):
    path.write_text(text)
    return str(path)


def exit_code(argv):
    """`run`'s exit code, or argparse's when it rejects the command line."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


TINY_TRAIN = """
[train]
m_train = 64
iterations = 25
batch_size = 32
horizon = 8
seed = 5
log_every = 10
"""


# ---------------------------------------------------------------- calibrate


def test_calibrate_bundled_history(tmp_path, capsys):
    assert run(["calibrate", "--out", tmp_path]) == 0
    params = load_params(tmp_path / "params.ini")
    assert params.sigma_q > 0
    with open(tmp_path / "residual_correlations.csv") as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 8
    assert "calibrate" in (tmp_path / "config_used.ini").read_text()
    out = capsys.readouterr().out
    assert "25 coefficients" in out


def test_calibrate_config_used_names_no_checkout_path(tmp_path):
    # Two checkouts of one commit write the same config_used.ini: the
    # bundled history goes by its file name.
    import superdraw
    assert run(["calibrate", "--out", tmp_path]) == 0
    text = (tmp_path / "config_used.ini").read_text()
    assert str(Path(superdraw.__file__).resolve().parent) not in text
    assert "history = au_history_1992_2020.csv" in text.splitlines()


def test_calibrate_missing_column(tmp_path, capsys):
    bad = tmp_path / "hist.csv"
    bad.write_text("year,cpi,s,E,B,O,HPI\n"
                   + "\n".join(f"{1990 + i},{100 + i},0.01,"
                               f"{100 + i},{100 + i},{100 + i},{100 + i}"
                               for i in range(15)))
    code = run(["calibrate", "--history", bad, "--out", tmp_path])
    assert code == 3
    err = capsys.readouterr().err
    assert "N" in err


def test_calibrate_insufficient_rows(tmp_path, capsys):
    short = tmp_path / "hist.csv"
    short.write_text("year,cpi,s,E,N,B,O,HPI\n"
                     "1990,100,0.01,100,100,100,100,100\n")
    assert run(["calibrate", "--history", short, "--out", tmp_path]) == 3


def test_calibrate_missing_file_is_io_error(tmp_path):
    assert run(["calibrate", "--history", tmp_path / "nope.csv",
                "--out", tmp_path / "out"]) == 5
    assert not (tmp_path / "out").exists()


def test_calibrate_nan_in_history_is_data_error(tmp_path, capsys):
    from superdraw.esg import bundled_history_path
    lines = bundled_history_path().read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
    hist = tmp_path / "hist.csv"
    hist.write_text("\n".join(lines) + "\n")
    assert run(["calibrate", "--history", hist, "--out", tmp_path]) == 3
    assert f"{hist}:4: non-finite" in capsys.readouterr().err


# ----------------------------------------------------------------- simulate


def test_simulate_row_count_and_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert run(["simulate", "--m", 20, "--t", 5, "--seed", 9,
                    "--out", out]) == 0
    rows_a = (out_a / "panel.csv").read_text()
    assert rows_a == (out_b / "panel.csv").read_text()
    assert len(rows_a.strip().splitlines()) == 1 + 20 * 6
    # The panel's second half may be written by a helper process: none is
    # left running, and its temporary file is gone.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(p.name for p in out_a.iterdir()) == ["config_used.ini",
                                                      "panel.csv"]


def test_simulate_out_under_a_regular_file_is_io_error(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    assert run(["simulate", "--m", 4, "--t", 2,
                "--out", tmp_path / "file" / "sub"]) == 5
    assert "i/o error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_simulate_mean_inflation(tmp_path):
    assert run(["simulate", "--m", 300, "--t", 30, "--seed", 3,
                "--out", tmp_path]) == 0
    with open(tmp_path / "panel.csv") as fh:
        r = csv.DictReader(fh)
        qs = [float(row["q"]) for row in r if int(row["t"]) > 0]
    assert np.mean(qs) == pytest.approx(0.024, abs=0.003)


def test_simulate_config_used_reads_back(tmp_path):
    # config_used.ini records the calibrated coefficients, key case intact,
    # and reproduces the panel when passed back as --config.
    cal, first, second = tmp_path / "cal", tmp_path / "a", tmp_path / "b"
    assert run(["calibrate", "--out", cal]) == 0
    assert run(["simulate", "--params", cal / "params.ini", "--m", 30,
                "--t", 6, "--seed", 4, "--out", first]) == 0
    echoed = (first / "config_used.ini").read_text()
    fitted = load_params(cal / "params.ini")
    assert f"mu_S = {fitted.mu_S!r}" in echoed
    assert run(["simulate", "--config", first / "config_used.ini", "--m", 30,
                "--t", 6, "--out", second]) == 0
    assert (second / "panel.csv").read_bytes() == \
        (first / "panel.csv").read_bytes()


def test_simulate_params_file_takes_esg_keys_on_top(tmp_path):
    # --params is the flag form of [esg] params_file: the file gives the
    # base coefficients and the section's keys apply on top.
    from superdraw.cli import _read_ini, build_train_config
    cal = tmp_path / "cal"
    assert run(["calibrate", "--out", cal]) == 0
    params = cal / "params.ini"
    argv = ["simulate", "--m", 5, "--t", 3, "--seed", 4]
    keyed = write_config(tmp_path / "keyed.ini", "[esg]\nsigma_q = 0.5\n")
    in_file = write_config(tmp_path / "in_file.ini",
                           f"[esg]\nparams_file = {params}\nsigma_q = 0.5\n")
    outs = {name: tmp_path / name for name in ("plain", "flag", "key")}
    assert run([*argv, "--params", params, "--out", outs["plain"]]) == 0
    assert run([*argv, "--params", params, "--config", keyed,
                "--out", outs["flag"]]) == 0
    assert run([*argv, "--config", in_file, "--out", outs["key"]]) == 0
    echoed = (outs["flag"] / "config_used.ini").read_text()
    assert "sigma_q = 0.5" in echoed.splitlines()
    assert build_train_config(_read_ini(outs["flag"] / "config_used.ini")) \
        .esg == dataclasses.replace(load_params(params), sigma_q=0.5)
    panel = {name: (out / "panel.csv").read_bytes()
             for name, out in outs.items()}
    assert panel["flag"] != panel["plain"]
    assert panel["flag"] == panel["key"]


# -------------------------------------------------------------------- train


def test_train_zero_iterations_emits_initial_checkpoint(tmp_path):
    cfgp = write_config(tmp_path / "cfg.ini", """
[train]
m_train = 16
iterations = 0
batch_size = 8
horizon = 4
seed = 2
""")
    out = tmp_path / "run"
    assert run(["train", "--config", cfgp, "--out", out]) == 0
    assert (out / "checkpoints" / "checkpoint_000000.npz").exists()
    assert (out / "checkpoints" / "checkpoint_final.npz").exists()
    report = (out / "report.csv").read_text().strip().splitlines()
    assert report == ["iter,objective,wallclock_ms,forward_ms,backward_ms,"
                      "adam_ms,step_size,depleted"]


def test_train_smoke_reproducible(tmp_path, capsys):
    cfgp = write_config(tmp_path / "cfg.ini", TINY_TRAIN)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["train", "--config", cfgp, "--out", out_a]) == 0
    assert "iter" in capsys.readouterr().out
    assert run(["train", "--config", cfgp, "--out", out_b]) == 0
    ck_a = (out_a / "checkpoints" / "checkpoint_final.npz").read_bytes()
    ck_b = (out_b / "checkpoints" / "checkpoint_final.npz").read_bytes()
    assert ck_a == ck_b
    rep = list(csv.DictReader(open(out_a / "report.csv")))
    assert [r["iter"] for r in rep] == ["10", "20", "25"]
    assert (out_a / "config_used.ini").exists()


def test_train_abort_keeps_report_rows(tmp_path, monkeypatch, capsys):
    # Iteration 4 gets a NaN gradient while its objective stays finite.
    from superdraw import trainer
    from superdraw.policy import PARAM_FIELDS
    real = trainer._sweep
    calls = []

    def poisoned(*args):
        grads = real(*args)
        calls.append(1)
        if len(calls) == 4:
            grads[PARAM_FIELDS.index("w3")][:] = np.nan
        return grads

    monkeypatch.setattr(trainer, "_sweep", poisoned)
    cfgp = write_config(tmp_path / "cfg.ini", """
[train]
m_train = 16
iterations = 6
batch_size = 8
horizon = 4
seed = 2
log_every = 1
checkpoint_every = 1
""")
    out = tmp_path / "run"
    assert run(["train", "--config", cfgp, "--out", out]) == 4
    assert "at iteration 4" in capsys.readouterr().err
    assert (out / "checkpoints" / "checkpoint_abort.npz").exists()
    rep = list(csv.DictReader(open(out / "report.csv")))
    assert [r["iter"] for r in rep] == ["1", "2", "3"]
    assert all(np.isfinite(float(r["objective"])) for r in rep)


@pytest.mark.parametrize("w0, start", [
    ("500000", r"initial year-0 fraction 0\.\d{4} \(annuity factor "
               r"\d+\.\d\d, pension \$\d{1,2},\d{3}\)"),
    ("0", r"initial year-0 fraction 1 is not inside \(0, 1\); head bias "
          r"kept at 0")])
def test_train_prints_the_initial_year0_fraction_first(tmp_path, capsys, w0,
                                                       start):
    cfgp = write_config(tmp_path / "cfg.ini", TINY_TRAIN + f"w0 = {w0}\n")
    assert run(["train", "--config", cfgp, "--out", tmp_path / "run"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(start, lines[0])
    assert lines[1].startswith("iter ")
    # The benchmark times iterations by the lines that match this pattern
    # (bench/workloads.py); the start line is not one of them.
    assert not re.search(r"iter\s+(\d+)\s+objective", lines[0])


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_nonfinite_wealth_from_esg_coefficients(tmp_path, capsys):
    # A bond-return intercept of 800 makes the portfolio return about 210
    # a year, so wealth passes float range in year 3. (Under seed 5's
    # initial weights the policy spends the balances before they overflow.)
    from superdraw.policy import load_checkpoint
    cfgp = write_config(tmp_path / "cfg.ini", TINY_TRAIN + "[esg]\n"
                        "psi_b0 = 800\n")
    out = tmp_path / "run"
    assert run(["train", "--config", cfgp, "--seed", 1, "--out", out]) == 4
    assert "non-finite wealth after year t=3 at iteration 1" in \
        capsys.readouterr().err
    meta = load_checkpoint(out / "checkpoints" / "checkpoint_abort.npz")[2]
    assert meta["iteration"] == 0
    assert (out / "report.csv").read_text().splitlines() == [
        "iter,objective,wallclock_ms,forward_ms,backward_ms,adam_ms,"
        "step_size,depleted"]


def _run_at_mean_inflation(tmp_path, command, mu_q):
    """Exit code of `command` on 16 paths with `[esg] mu_q` set, writing to
    `tmp_path / "out"`; `evaluate` reads a run trained at the default ESG."""
    train = "[train]\nm_train = 16\niterations = 0\nbatch_size = 8\n" \
            "seed = 5\nlog_every = 1\n"
    argv = [command, "--out", tmp_path / "out", "--config", write_config(
        tmp_path / "cfg.ini", train + f"[esg]\nmu_q = {mu_q}\n")]
    if command == "evaluate":
        ckpt = tmp_path / "run"
        assert run(["train", "--config", write_config(
            tmp_path / "base.ini", train), "--out", ckpt]) == 0
        argv += ["--checkpoint", ckpt / "checkpoints", "--m-test", 40]
    return run(argv)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["simulate", "train", "evaluate"])
def test_overflowing_deflator_exits_4_before_any_output(tmp_path, capsys,
                                                        command):
    # Mean inflation of 30 a year passes the config checks, but over the
    # default 41-year horizon the deflator Q = exp(q_1 + ... + q_t) passes
    # float range in year 24; R stays finite.
    assert _run_at_mean_inflation(tmp_path, command, 30) == 4
    assert "numeric error: non-finite Q in simulated panel" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["simulate", "train", "evaluate"])
def test_underflowing_deflator_exits_4_before_any_output(tmp_path, capsys,
                                                         command):
    # At -30 a year Q falls below the smallest float in year 25: 0.0 is a
    # numeric error like its overflow, not a bad deflator in the data.
    assert _run_at_mean_inflation(tmp_path, command, -30) == 4
    err = capsys.readouterr().err
    assert "numeric error: deflator Q underflowed to 0 in simulated panel" \
        in err
    assert "RuntimeWarning" not in err
    _assert_no_helper_left(tmp_path / "out", None)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_non_finite_adam_moment_exits_4(tmp_path, capsys):
    # A wealth unit of 1e-300 puts the objective near 4.9e304, and the
    # square of its gradient passes float range in Adam's second moment.
    # Every update would then be 0: the weights would stay put and the run
    # would exit 0.
    from superdraw.policy import load_checkpoint
    cfgp = write_config(tmp_path / "cfg.ini", """
[train]
m_train = 64
batch_size = 16
iterations = 6
horizon = 1
w0 = 1e-300
learning_rate = 1.0
log_every = 1

[utility]
rho = 1e-9

[account]
investment_fee = 1.0
""")
    out = tmp_path / "run"
    assert run(["train", "--config", cfgp, "--out", out]) == 4
    err = capsys.readouterr().err
    assert "non-finite Adam moment at iteration 1" in err
    assert "RuntimeWarning" not in err
    meta = load_checkpoint(out / "checkpoints" / "checkpoint_abort.npz")[2]
    assert meta["iteration"] == 0
    assert (out / "report.csv").read_text().splitlines() == [
        "iter,objective,wallclock_ms,forward_ms,backward_ms,adam_ms,"
        "step_size,depleted"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_return_past_exp_range_exits_4_without_a_warning(tmp_path, capsys,
                                                         command):
    # An equity volatility of 1e300 leaves R finite but past the range of
    # e^R, so the wealth after year 0 is not finite.
    from superdraw.policy import load_checkpoint
    train = "[train]\nm_train = 16\niterations = 2\nbatch_size = 8\n" \
            "seed = 5\nlog_every = 1\n"
    cfgp = write_config(tmp_path / "cfg.ini",
                        train + "[esg]\nsigma_S = 1e300\n")
    out = tmp_path / "out"
    argv = [command, "--out", out, "--config", cfgp]
    if command == "evaluate":
        ckpt = tmp_path / "run"
        assert run(["train", "--config", write_config(
            tmp_path / "base.ini", train), "--out", ckpt]) == 0
        argv += ["--checkpoint", ckpt / "checkpoints", "--m-test", 40]
    assert run(argv) == 4
    err = capsys.readouterr().err
    assert "numeric error: non-finite wealth after year t=0" in err
    assert "RuntimeWarning" not in err
    if command == "train":
        assert "at iteration 1" in err
        meta = load_checkpoint(out / "checkpoints" /
                               "checkpoint_abort.npz")[2]
        assert meta["iteration"] == 0
        assert len((out / "report.csv").read_text().splitlines()) == 1
    else:
        # `--out` is made only before the first write.
        _assert_no_helper_left(out, None)


@pytest.mark.parametrize("rho, code", [(21, 2), (20, 2), (5, 0)])
def test_train_rejects_a_non_finite_utility_floor(tmp_path, capsys, rho,
                                                  code):
    # At the default wealth unit (w0 = 500,000), u at the floor is -inf at
    # rho = 21, and its slope is inf times 0 from rho ~ 19.6 on.
    cfgp = write_config(tmp_path / "cfg.ini",
                        TINY_TRAIN + f"[utility]\nrho = {rho}\n")
    out = tmp_path / "run"
    assert run(["train", "--config", cfgp, "--out", out]) == code
    if code == 2:
        assert "at floor_epsilon" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert (out / "checkpoints" / "checkpoint_final.npz").exists()


EDGE_TRAIN = {"m_train": 16, "iterations": 2, "batch_size": 8, "seed": 5,
              "horizon": 4, "log_every": 1}
# The only edge values a [train] run accepts; every other one exits 2.
EDGE_ACCEPTED = {("iterations", "0"), ("seed", "0"), ("w0", "0"),
                 ("checkpoint_every", "0")}


@pytest.mark.parametrize("value", ["0", "-1", "-2", "nan", "inf"])
@pytest.mark.parametrize("key", [
    "m_train", "iterations", "batch_size", "seed", "horizon",
    "retirement_age", "w0", "learning_rate", "log_every",
    "checkpoint_every"])
def test_train_edge_value_exits_0_or_2_before_any_output(tmp_path, key,
                                                         value):
    keys = {**EDGE_TRAIN, key: value}
    cfgp = write_config(tmp_path / "cfg.ini", "[train]\n" + "".join(
        f"{k} = {v}\n" for k, v in keys.items()))
    out = tmp_path / "run"
    code = run(["train", "--config", cfgp, "--out", out])
    if (key, value) in EDGE_ACCEPTED:
        assert code == 0
        assert (out / "checkpoints" / "checkpoint_final.npz").exists()
    else:
        assert code == 2
        assert not out.exists()


# Every key of the four parameter sections; all of them are numbers.
PARAM_SECTION_KEYS = [(name, f.name) for name in ("utility", "pension",
                                                  "account", "esg")
                      for f in dataclasses.fields(getattr(TrainConfig(),
                                                          name))]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", PARAM_SECTION_KEYS,
                         ids=[f"{s}.{k}" for s, k in PARAM_SECTION_KEYS])
def test_train_non_finite_section_value_exits_2_before_any_output(
        tmp_path, capsys, section, key, value):
    text = "[train]\n" + "".join(f"{k} = {v}\n" for k, v in EDGE_TRAIN.items())
    cfgp = write_config(tmp_path / "cfg.ini",
                        text + f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "run"
    assert run(["train", "--config", cfgp, "--out", out]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-26"])
def test_train_fortnights_below_one_exits_2_before_any_output(
        tmp_path, capsys, value):
    # With no fortnight in the year the asset test never binds: $2M of real
    # wealth would draw a part pension.
    text = "[train]\n" + "".join(f"{k} = {v}\n" for k, v in EDGE_TRAIN.items())
    cfgp = write_config(tmp_path / "cfg.ini", text + "[pension]\n"
                        f"fortnights_per_year = {value}\n")
    out = tmp_path / "run"
    assert run(["train", "--config", cfgp, "--out", out]) == 2
    assert "fortnights_per_year must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--seed", -1], "seed must be >= 0"),
    (["--m", 0], "M and T must be at least 1"),
    (["--t", 0], "M and T must be at least 1")])
def test_simulate_mistake_exits_2_before_any_output(tmp_path, capsys, flags,
                                                    message):
    argv = ["simulate", "--m", 3, "--t", 2, *flags, "--out", tmp_path / "out"]
    assert run(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_short_life_table_row_is_data_error(tmp_path, capsys):
    from superdraw.mortality import bundled_life_table_path
    lines = bundled_life_table_path().read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0]
    table = tmp_path / "table.csv"
    table.write_text("\n".join(lines) + "\n")
    cfgp = write_config(tmp_path / "cfg.ini",
                        TINY_TRAIN + f"life_table = {table}\n")
    assert run(["train", "--config", cfgp, "--out", tmp_path / "run"]) == 3
    assert f"{table}:6: expected 5 fields, got 4" in capsys.readouterr().err


# ----------------------------------------------------------------- evaluate


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_run")
    cfgp = write_config(root / "cfg.ini", TINY_TRAIN)
    out = root / "run"
    assert run(["train", "--config", cfgp, "--out", out]) == 0
    return cfgp, out


def test_evaluate_outputs(trained_run, tmp_path, capsys):
    cfgp, run_dir = trained_run
    out = tmp_path / "eval"
    assert run(["evaluate", "--config", cfgp,
                "--checkpoint", run_dir / "checkpoints",
                "--m-test", 40, "--out", out]) == 0
    for name in ("utilities.csv", "outperformance.csv", "config_used.ini",
                 "medians_policy.csv", "medians_luxury.csv",
                 "kde_minimum.csv", "kde_luxury.csv"):
        assert (out / name).exists(), name
    with open(out / "utilities.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7 * 40   # policy + six strategies
    printed = capsys.readouterr().out
    assert "mean realized utility" in printed
    with open(out / "outperformance.csv") as fh:
        orows = list(csv.DictReader(fh))
    # numbered checkpoints at 0 and at the last iteration, 25; the cadence
    # is 5 x log_every = 50
    iters = sorted({int(r["iter"]) for r in orows})
    assert iters[0] == 0 and len(orows) == len(iters) * 6
    assert iters[-1] == 25


def test_evaluate_single_file_checkpoint(trained_run, tmp_path):
    cfgp, run_dir = trained_run
    out = tmp_path / "eval1"
    assert run(["evaluate", "--config", cfgp,
                "--checkpoint", run_dir / "checkpoints" /
                "checkpoint_final.npz", "--m-test", 20, "--out", out]) == 0
    with open(out / "outperformance.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6


def test_evaluate_rejects_training_seed(trained_run, tmp_path):
    cfgp, run_dir = trained_run
    assert run(["evaluate", "--config", cfgp,
                "--checkpoint", run_dir / "checkpoints",
                "--m-test", 10, "--seed", 5, "--out", tmp_path]) == 2


def _recount_outperformance(cfgp, ckpt_dir, m_test, seed):
    """(iter, strategy, count) rows from a fresh `compare` per snapshot."""
    from superdraw.baselines import StrategyKind
    from superdraw.cli import _read_ini, build_train_config
    from superdraw.evaluator import compare
    from superdraw.policy import load_checkpoint
    cfg = build_train_config(_read_ini(cfgp))
    panel = cfg.panel(m_test, seed)
    curve = cfg.curve()
    rows = []
    for f in sorted(ckpt_dir.glob("checkpoint_0*.npz")):
        params, _, meta = load_checkpoint(f)
        report = compare(params, list(StrategyKind), panel, cfg, curve)
        rows += [(meta["iteration"], k.value, report.outperformance[k.value])
                 for k in StrategyKind]
    return rows


def _evaluate_counting_rollouts(tmp_path, monkeypatch, final_is_last, cpus):
    """Evaluate a five-snapshot directory with `cpus` usable CPUs; returns
    the path count of each rollout in this process and in a helper.

    Numbered checkpoints are 0, 10, 20, 30 and 40. Unless `final_is_last`,
    `checkpoint_final.npz` is replaced by weights equal to none of them.
    The written curve must match a fresh `compare` per snapshot.
    """
    from conftest import perturb
    from superdraw import trainer
    from superdraw.policy import load_checkpoint, save_checkpoint
    cfgp = write_config(tmp_path / "cfg.ini", TINY_TRAIN.replace(
        "iterations = 25", "iterations = 40\ncheckpoint_every = 10"))
    assert run(["train", "--config", cfgp, "--out", tmp_path / "run"]) == 0
    ckpts = tmp_path / "run" / "checkpoints"
    final = ckpts / "checkpoint_final.npz"
    assert final.read_bytes() == \
        (ckpts / "checkpoint_000040.npz").read_bytes()
    if not final_is_last:
        params, norm, meta = load_checkpoint(final)
        save_checkpoint(final, perturb(params, "b3", 0, 0, 1e-3), norm,
                        iteration=meta["iteration"])

    # Each rollout appends its process and path count to a file, so that
    # a helper's rollouts are counted as well.
    real, log = trainer._rollout_engine, tmp_path / "rolled.txt"

    def counted(consume, R, Q, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {len(R)}\n")
        return real(consume, R, Q, *args, **kwargs)

    monkeypatch.setattr(trainer, "_rollout_engine", counted)
    monkeypatch.setattr(_csvblock, "_usable_cpus", lambda: cpus)
    out = tmp_path / "eval"
    assert run(["evaluate", "--config", cfgp, "--checkpoint", ckpts,
                "--m-test", 30, "--seed", 99, "--out", out]) == 0
    monkeypatch.undo()
    with open(out / "outperformance.csv") as fh:
        rows = [(int(r["iter"]), r["strategy"], int(r["count"]))
                for r in csv.DictReader(fh)]
    assert [r[0] for r in rows[::6]] == [0, 10, 20, 30, 40]
    assert rows == _recount_outperformance(cfgp, ckpts, 30, 99)
    rolled = [line.split() for line in log.read_text().splitlines()]
    here = [int(n) for pid, n in rolled if int(pid) == os.getpid()]
    helpers = {pid for pid, _ in rolled if int(pid) != os.getpid()}
    assert len(helpers) <= 1
    return here, [int(n) for pid, n in rolled if pid in helpers]


def test_evaluate_directory_rolls_final_policy_once(tmp_path, monkeypatch):
    # `compare` rolls the final policy and the six baselines; the last
    # numbered snapshot equals the final policy and reuses its utilities.
    rolled, _ = _evaluate_counting_rollouts(tmp_path, monkeypatch, True, 1)
    assert rolled == [30] * 11


def test_evaluate_directory_rolls_every_snapshot_unlike_final(tmp_path,
                                                             monkeypatch):
    rolled, _ = _evaluate_counting_rollouts(tmp_path, monkeypatch, False, 1)
    assert rolled == [30] * 12


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the helper needs fork")
@pytest.mark.parametrize("final_is_last", [True, False])
def test_evaluate_helper_rolls_the_snapshots_unlike_final(
        tmp_path, monkeypatch, final_is_last):
    # With two usable CPUs this process rolls the final policy and the six
    # baselines, and one helper rolls the snapshots that differ from it.
    here, helper = _evaluate_counting_rollouts(tmp_path, monkeypatch,
                                               final_is_last, 2)
    assert here == [30] * 7
    assert helper == [30] * (4 if final_is_last else 5)


EVAL_FILES = ["utilities.csv", "outperformance.csv", "config_used.ini",
              "medians_policy.csv",
              *(f"medians_{k.value}.csv" for k in StrategyKind),
              *(f"kde_{k.value}.csv" for k in StrategyKind)]


def _evaluate_in_layout(trained_run, out, monkeypatch, capfd, cpus,
                        checkpoint=None, m_test=40):
    """(exit code, forks, captured output) of `evaluate` of the trained
    run's checkpoint directory, or of `checkpoint`, on `m_test` paths with
    `cpus` usable CPUs."""
    cfgp, run_dir = trained_run
    monkeypatch.setattr(_csvblock, "_usable_cpus", lambda: cpus)
    forks = _count_forks(monkeypatch)
    capfd.readouterr()
    code = run(["evaluate", "--config", cfgp, "--checkpoint",
                checkpoint or run_dir / "checkpoints", "--m-test", m_test,
                "--seed", 99, "--out", out])
    return code, len(forks), capfd.readouterr()


def _files(directory) -> dict:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize("target, m_test", [
    pytest.param("directory", 40, id="directory"),
    pytest.param("file", 40, id="file"),
    pytest.param("directory", 1, id="directory-1"),
    pytest.param("directory", 39, id="directory-39")])
def test_evaluate_outputs_do_not_depend_on_the_layout(
        trained_run, tmp_path, monkeypatch, capfd, target, m_test):
    # With two usable CPUs a helper simulates paths [M // 2, M) of the
    # panel, all of it for M = 1, and rolls the snapshots that differ from
    # the final policy; a single checkpoint file has none, so no helper.
    ckpt = trained_run[1] / "checkpoints"
    if target == "file":
        ckpt = ckpt / "checkpoint_000000.npz"
    got = {}
    for cpus in (1, 2):
        out = tmp_path / f"cpus{cpus}"
        code, forks, printed = _evaluate_in_layout(
            trained_run, out, monkeypatch, capfd, cpus, ckpt, m_test)
        assert code == 0
        assert forks == (cpus == 2 and target == "directory"
                         and hasattr(os, "fork"))
        _assert_no_helper_left(out, EVAL_FILES)
        got[cpus] = printed.out, _files(out)
    assert got[1] == got[2]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the helper needs fork")
def test_evaluate_helper_failure_rolls_its_snapshots_here(
        trained_run, tmp_path, monkeypatch, capfd):
    # A helper that fails is reaped and its snapshots are rolled in this
    # process: the same files and stdout as the one-CPU layout.
    code, _, want = _evaluate_in_layout(trained_run, tmp_path / "one",
                                        monkeypatch, capfd, 1)
    assert code == 0
    _assert_no_helper_left(tmp_path / "one", EVAL_FILES)
    parent, real = os.getpid(), evaluator.snapshot_utilities

    def failing(*args):
        if os.getpid() != parent:
            raise OSError(28, "No space left on device")
        return real(*args)

    monkeypatch.setattr(evaluator, "snapshot_utilities", failing)
    code, forks, got = _evaluate_in_layout(trained_run, tmp_path / "two",
                                           monkeypatch, capfd, 2)
    assert (code, forks) == (0, 1)
    assert "helper process: OSError(28" in got.err
    assert got.out == want.out
    _assert_no_helper_left(tmp_path / "two", EVAL_FILES)
    assert _files(tmp_path / "two") == _files(tmp_path / "one")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the helper needs fork")
def test_evaluate_helper_failure_in_its_half_fills_it_here(
        trained_run, tmp_path, monkeypatch, capfd):
    # A helper that fails before its half of the panel is filled sends no
    # byte; this process fills that half and rolls the snapshots itself:
    # the same files and stdout as the one-CPU layout.
    from superdraw import esg
    code, _, want = _evaluate_in_layout(trained_run, tmp_path / "one",
                                        monkeypatch, capfd, 1)
    assert code == 0
    parent, real = os.getpid(), esg.simulate

    def failing(*args, **kwargs):
        if os.getpid() != parent:
            raise MemoryError("no room for the helper's half")
        return real(*args, **kwargs)

    monkeypatch.setattr(esg, "simulate", failing)
    code, forks, got = _evaluate_in_layout(trained_run, tmp_path / "two",
                                           monkeypatch, capfd, 2)
    assert (code, forks) == (0, 1)
    assert "helper process: MemoryError(" in got.err
    assert got.out == want.out
    _assert_no_helper_left(tmp_path / "two", EVAL_FILES)
    assert _files(tmp_path / "two") == _files(tmp_path / "one")


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("seed, bad_path", [(106, 21), (99, 11)])
def test_evaluate_nonfinite_deflator_in_one_half_exits_4(
        trained_run, tmp_path, monkeypatch, capfd, cpus, seed, bad_path):
    # Inflation of 88.5 a year with shocks of 3 passes float range in Q
    # within the 8-year horizon on one path alone: path 21 of seed 106, in
    # the half [20, 40) that a helper simulates, or path 11 of seed 99, in
    # this process's half. The trained run's snapshots differ from its
    # final policy, so with two CPUs the helper is forked.
    from superdraw.cli import _read_ini, build_train_config
    from superdraw.errors import NumericError
    cfgp = write_config(tmp_path / "cfg.ini", TINY_TRAIN +
                        "[esg]\nmu_q = 88.5\nsigma_q = 3\n")
    cfg = build_train_config(_read_ini(cfgp))
    for m in range(40):
        if m == bad_path:
            with pytest.raises(NumericError):
                cfg.panel(1, seed, first=m)
        else:
            cfg.panel(1, seed, first=m)
    monkeypatch.setattr(_csvblock, "_usable_cpus", lambda: cpus)
    forks = _count_forks(monkeypatch)
    out = tmp_path / "eval"
    capfd.readouterr()
    assert run(["evaluate", "--config", cfgp, "--checkpoint",
                trained_run[1] / "checkpoints", "--m-test", 40,
                "--seed", seed, "--out", out]) == 4
    assert "numeric error: non-finite Q in simulated panel" in \
        capfd.readouterr().err
    assert len(forks) == (cpus == 2 and hasattr(os, "fork"))
    _assert_no_helper_left(out, None)


@pytest.mark.parametrize("cpus", [1, 2])
def test_evaluate_write_failure_kills_the_helper(trained_run, tmp_path,
                                                 monkeypatch, capfd, cpus):
    # A failed --out write in this process exits 5; a helper still busy
    # (here for a minute) is killed and reaped, not waited for.
    parent, real = os.getpid(), evaluator.snapshot_utilities

    def slow(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return real(*args)

    def full(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(evaluator, "snapshot_utilities", slow)
    monkeypatch.setattr(cli, "write_utilities_csv", full)
    out = tmp_path / "eval"
    start = time.monotonic()
    code, forks, printed = _evaluate_in_layout(trained_run, out,
                                               monkeypatch, capfd, cpus)
    assert time.monotonic() - start < 30
    assert code == 5 and "No space left on device" in printed.err
    assert forks == (cpus == 2 and hasattr(os, "fork"))
    _assert_no_helper_left(out, [])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cpus", [1, 2])
def test_evaluate_nonfinite_snapshot_wealth_exits_4(trained_run, tmp_path,
                                                    monkeypatch, capfd,
                                                    cpus):
    # Snapshot 0's first layer overflows, so its network spends NaN and
    # its wealth is not finite after year 0; the final policy and the
    # baselines stay finite. Either layout raises it in this process.
    from superdraw.policy import load_checkpoint, save_checkpoint
    ckpts = tmp_path / "checkpoints"
    shutil.copytree(trained_run[1] / "checkpoints", ckpts)
    first = ckpts / "checkpoint_000000.npz"
    params, norm, _ = load_checkpoint(first)
    params.w0[:] = 1e308
    save_checkpoint(first, params, norm, iteration=0)
    out = tmp_path / "eval"
    code, forks, printed = _evaluate_in_layout(trained_run, out, monkeypatch,
                                               capfd, cpus, ckpts)
    assert code == 4
    assert "numeric error: non-finite wealth after year t=0" in printed.err
    assert forks == (cpus == 2 and hasattr(os, "fork"))
    _assert_no_helper_left(out, [f for f in EVAL_FILES if f not in (
        "outperformance.csv", "config_used.ini")])


@pytest.mark.parametrize("command", ["evaluate", "demo-path"])
def test_evaluate_rejects_mismatched_normalization(trained_run, tmp_path,
                                                   command):
    _, run_dir = trained_run
    other = write_config(tmp_path / "othercfg.ini",
                         TINY_TRAIN.replace("horizon = 8", "horizon = 12"))
    out = tmp_path / "out"
    extra = ["--m-test", 10] if command == "evaluate" else []
    assert run([command, "--config", other,
                "--checkpoint", run_dir / "checkpoints",
                *extra, "--out", out]) == 2
    assert not (out / "demo_path.csv").exists()
    assert not list(out.glob("*.csv"))


def test_evaluate_rejects_numbered_checkpoints_of_another_run(tmp_path,
                                                             capfd):
    # Two runs into one --out: w0 = 500k (40 iterations, every 10), then
    # w0 = 300k (20, every 20). Checkpoints 10, 30 and 40 are left over
    # from the 500k run and must not be scored under the 300k config.
    first = write_config(tmp_path / "a.ini", TINY_TRAIN.replace(
        "iterations = 25", "iterations = 40\ncheckpoint_every = 10")
        + "w0 = 500000\n")
    second = write_config(tmp_path / "b.ini", TINY_TRAIN.replace(
        "iterations = 25", "iterations = 20\ncheckpoint_every = 20")
        + "w0 = 300000\n")
    out = tmp_path / "run"
    assert run(["train", "--config", first, "--out", out]) == 0
    assert run(["train", "--config", second, "--out", out]) == 0
    ckpts = out / "checkpoints"
    assert sorted(f.name for f in ckpts.glob("checkpoint_0*.npz")) == [
        f"checkpoint_{i:06d}.npz" for i in (0, 10, 20, 30, 40)]
    capfd.readouterr()
    ev = tmp_path / "eval"
    assert run(["evaluate", "--config", second, "--checkpoint", ckpts,
                "--m-test", 10, "--out", ev]) == 2
    assert "checkpoint_000010.npz" in capfd.readouterr().err
    assert not list(ev.glob("*.csv"))


@pytest.mark.parametrize("kind,code", [("truncated", 3), ("not_zip", 3),
                                       ("missing", 5)])
def test_evaluate_corrupt_checkpoint_exit_codes(trained_run, tmp_path, capfd,
                                                kind, code):
    # A checkpoint that cannot be read is a data error; a missing one is
    # an i/o error.
    cfgp, run_dir = trained_run
    good = (run_dir / "checkpoints" / "checkpoint_final.npz").read_bytes()
    bad = tmp_path / "bad.npz"
    if kind == "truncated":
        bad.write_bytes(good[:300])
    elif kind == "not_zip":
        bad.write_text("iter,objective\n1,0.5\n")
    assert run(["evaluate", "--config", cfgp, "--checkpoint", bad,
                "--m-test", 10, "--out", tmp_path / "eval"]) == code
    err = capfd.readouterr().err
    assert str(bad) in err
    if kind == "not_zip":
        assert f"{bad}: not a checkpoint archive" in err


def test_evaluate_checkpoint_missing_a_weight_array_is_data_error(
        trained_run, tmp_path, capfd):
    cfgp, run_dir = trained_run
    with np.load(run_dir / "checkpoints" / "checkpoint_final.npz") as data:
        arrays = {k: data[k] for k in data.files if k != "w2"}
    bad = tmp_path / "no_w2.npz"
    np.savez(bad, **arrays)
    assert run(["evaluate", "--config", cfgp, "--checkpoint", bad,
                "--m-test", 10, "--out", tmp_path / "eval"]) == 3
    assert f"{bad}: unreadable checkpoint" in capfd.readouterr().err
    assert not (tmp_path / "eval").exists()


# ---------------------------------------------------------------- demo-path


def test_demo_path_deterministic_and_bounded(trained_run, tmp_path):
    cfgp, run_dir = trained_run
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run(["demo-path", "--config", cfgp,
                    "--checkpoint", run_dir / "checkpoints",
                    "--seed", 123, "--out", out]) == 0
    text = (out_a / "demo_path.csv").read_text()
    assert text == (out_b / "demo_path.csv").read_text()
    rows = list(csv.DictReader(text.splitlines()))
    assert len(rows) == 9           # horizon 8 -> ages 67..75
    assert rows[0]["age"] == "67"
    for row in rows:
        c = float(row["consumption_real"])
        avail = float(row["wealth_real"]) + float(row["pension_real"])
        assert 0.0 < c <= avail + 1e-9


# ------------------------------------------------------------------- config


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfgp = write_config(tmp_path / "cfg.ini", "[train]\nm_trian = 10\n")
    assert run(["train", "--config", cfgp, "--out", tmp_path]) == 2
    # keys of removed training options
    for key in ("snapshot_every", "tail_average"):
        cfgp = write_config(tmp_path / "old.ini", f"[train]\n{key} = 10\n")
        assert run(["train", "--config", cfgp, "--out", tmp_path]) == 2
        assert f"unknown key '{key}' in section [train]" in \
            capsys.readouterr().err
    cfgp = write_config(tmp_path / "esg.ini", "[esg]\nfoo = 1\n")
    assert run(["train", "--config", cfgp, "--out", tmp_path]) == 2
    assert "unknown key 'foo' in section [esg]" in capsys.readouterr().err


# Trained with horizon 8 from age 67; from age 105 the horizon runs past
# the bundled table's terminal age 109.
LATE_RETIREMENT = TINY_TRAIN + "retirement_age = 105\n"


@pytest.mark.parametrize("command, text, message", [
    ("train", TINY_TRAIN + "gender = Male\n", "gender must be one of"),
    ("train", LATE_RETIREMENT, "does not fit the life table"),
    ("evaluate", LATE_RETIREMENT, "does not fit the life table"),
    ("demo-path", LATE_RETIREMENT, "does not fit the life table"),
])
def test_config_mistake_exits_2_before_any_output(trained_run, tmp_path,
                                                  capsys, command, text,
                                                  message):
    cfgp = write_config(tmp_path / "cfg.ini", text)
    argv = [command, "--config", cfgp, "--out", tmp_path / "out"]
    if command != "train":
        argv += ["--checkpoint", trained_run[1] / "checkpoints"]
    assert run(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_config_value_rejected(tmp_path, capsys):
    cfgp = write_config(tmp_path / "cfg.ini", "[train]\nhorizon = soon\n")
    assert run(["train", "--config", cfgp, "--out", tmp_path]) == 2
    cfgp = write_config(tmp_path / "esg.ini", "[esg]\nmu_q = abc\n")
    assert run(["train", "--config", cfgp, "--out", tmp_path]) == 2
    assert "bad value for esg.mu_q: 'abc'" in capsys.readouterr().err


def test_esg_override_via_config(tmp_path):
    cfgp = write_config(tmp_path / "cfg.ini", """
[train]
seed = 4
[esg]
mu_q = 0.05
""")
    assert run(["simulate", "--config", cfgp, "--m", 50, "--t", 20,
                "--out", tmp_path]) == 0
    with open(tmp_path / "panel.csv") as fh:
        qs = [float(r["q"]) for r in csv.DictReader(fh) if int(r["t"]) > 0]
    assert np.mean(qs) == pytest.approx(0.05, abs=0.01)
    echoed = (tmp_path / "config_used.ini").read_text()
    assert "mu_q = 0.05" in echoed


@pytest.mark.parametrize("argv,text,message", [
    (["train", "--config"], TINY_TRAIN + "[utilty]\nrho = 2\n",
     "unknown section [utilty]"),
    (["train", "--config"],
     TINY_TRAIN.replace("log_every = 10", "log_every = 0"), "log_every"),
    (["train", "--config"], TINY_TRAIN + "checkpoint_every = -1\n",
     "checkpoint_every"),
    (["simulate", "--config"], "[simulate]\nm = 5\n",
     "unknown section [simulate]"),
    (["calibrate", "--config"], TINY_TRAIN, "--config"),
    (["calibrate", "--seed", 3], None, "--seed"),
], ids=["misspelt_section", "log_every_0", "checkpoint_every_negative",
        "simulate_section", "calibrate_config", "calibrate_seed"])
def test_input_that_would_be_ignored_is_rejected(tmp_path, capsys, argv,
                                                 text, message):
    if text is not None:
        argv = [*argv, write_config(tmp_path / "x.ini", text)]
    assert exit_code([*argv, "--out", tmp_path / "out"]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


# A non-default value for every [train] key and every field of the four
# parameter sections; life_table is set in the test, to a copy of the
# bundled table whose name holds a `%`.
SECTION_OVERRIDES = {
    "train": {"m_train": 64, "iterations": 6, "batch_size": 32, "seed": 5,
              "horizon": 8, "retirement_age": 68, "gender": "female",
              "w0": 400_000.0, "learning_rate": 1e-3, "log_every": 2,
              "checkpoint_every": 3},
    "utility": {"rho": 3.5, "phi": 0.25, "floor_epsilon": 1e-9,
                "wealth_unit": 250_000.0},
    "pension": {"a_max": 25_000.5, "w_a": 270_000.0, "tau_a": 0.0031,
                "income_free": 4_600.0, "w_i": 52_000.0, "r1": 0.003,
                "r2": 0.021, "tau_i": 0.45, "fortnights_per_year": 27},
    "account": {"omega": 0.6, "admin_fee": 60.0,
                "indirect_cost_ratio": 0.007, "investment_fee": 0.004},
    "esg": {f.name: round(0.9 * getattr(DEFAULT_PARAMS, f.name), 6)
            for f in dataclasses.fields(DEFAULT_PARAMS)},
}


@pytest.mark.parametrize("argv", [["simulate", "--m", 3, "--t", 2],
                                  ["train"]])
def test_param_sections_reach_config_and_echo_back(tmp_path, monkeypatch,
                                                   argv):
    from superdraw import cli
    from superdraw.mortality import bundled_life_table_path
    table = tmp_path / "lt%1.csv"
    table.write_bytes(bundled_life_table_path().read_bytes())
    overrides = {**SECTION_OVERRIDES, "train": {
        **SECTION_OVERRIDES["train"], "life_table": str(table)}}
    text = ""
    for name, values in overrides.items():
        text += f"[{name}]\n" + "".join(
            f"{k} = {v if isinstance(v, str) else repr(v)}\n"
            for k, v in values.items())
    cfgp = write_config(tmp_path / "cfg.ini", text)
    built = []
    real = cli.build_train_config

    def keep(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_train_config", keep)
    out = tmp_path / "out"
    assert run([*argv, "--config", cfgp, "--out", out]) == 0
    cfg = built[0]
    echoed = real(cli._read_ini(out / "config_used.ini"))
    assert f"life_table = {table}" in \
        (out / "config_used.ini").read_text().splitlines()
    default = TrainConfig()
    for name, values in overrides.items():
        section, base, back = (cfg, default, echoed) if name == "train" else (
            getattr(x, name) for x in (cfg, default, echoed))
        fields = {f.name for f in dataclasses.fields(section)}
        if name == "train":
            fields = {k for k in fields
                      if not dataclasses.is_dataclass(getattr(cfg, k))}
        assert set(values) == fields, name
        for key, value in values.items():
            got = getattr(section, key)
            assert got == value and type(got) is type(value), (name, key)
            assert value != getattr(base, key), (name, key)
            assert getattr(back, key) == value, (name, key)


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "superdraw.cli",
                           "calibrate", "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "params.ini").exists()
