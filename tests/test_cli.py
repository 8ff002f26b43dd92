"""End-to-end command tests through the argparse entry point."""

import csv
import subprocess
import sys

import numpy as np
import pytest

from superdraw.cli import main
from superdraw.esg import load_params


def run(argv):
    return main([str(a) for a in argv])


def write_config(path, text):
    path.write_text(text)
    return str(path)


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
                "--out", tmp_path]) == 5


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
    assert (out_a / "config_used.ini").exists()


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
                      "adam_ms"]


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
    real = trainer.batch_objective
    calls = []

    def poisoned(params, panel, curve, cfg):
        obj, p = real(params, panel, curve, cfg)
        calls.append(1)
        if len(calls) == 4:
            p["w3"].grad = np.full_like(p["w3"].value, np.nan)
        return obj, p

    monkeypatch.setattr(trainer, "batch_objective", poisoned)
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


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "superdraw.cli",
                           "calibrate", "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "params.ini").exists()
