"""The three benchmark workloads, each driven through `superdraw.cli.main`.

A workload sets up `SETUP_REPEATS` times (the median is `setup_s`), then
repeats whole rounds of its measured command(s) until `seconds` have passed,
at least once. Outputs of the first round are checked against `reference`;
later rounds must write byte-identical files. The program's own inputs are
pinned to the paper's desk run (training seed 1, held-out seed 777, export
seed 2020), so the iteration at which the target is reached is a property
of the code; `--seed` chooses which paths and weights the checks sample.
"""

from __future__ import annotations

import configparser
import contextlib
import re
import resource
import shutil
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import reference as ref

TRAIN_SEED = 1
TEST_SEED = 777
EXPORT_SEED = 2020
M_TRAIN = 5_000
M_TEST = 10_000
DESK_ITERATIONS = 800       # the 99% target is first met at iteration 700
DESK_EVERY = 50
WARM_ITERATIONS = 20        # desk-train set-up: a short train
SHORT_ITERATIONS = 40       # checkpoints 0, 10, 20, 30, 40
SHORT_EVERY = 10
TARGET_SHARE = 0.99
EXPORT_M = 10_000
EXPORT_T = 41
WARM_M = 1_000              # paths in the export warm-up
SETUP_REPEATS = 5
SAMPLED_PATHS = 16          # paths the reference walker re-computes
GRADIENT_PATHS = 4
GRADIENT_ENTRIES = 6        # non-zero gradient entries tested per path

_ITER_LINE = re.compile(r"iter\s+(\d+)\s+objective")


class _StampedOut:
    """stdout stand-in that keeps every write with its arrival time."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append((perf_counter(), text))
        return len(text)

    def flush(self):
        pass


class Run:
    """State shared by a workload's set-up, rounds and checks."""

    def __init__(self, work: Path, seed: int, seconds: float, tracer):
        from superdraw import cli
        self.cli = cli
        self.work = work
        self.rng = np.random.default_rng(seed)
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.setup = []
        self.rounds = []
        self.peak_rss_mb = None

    def command(self, argv, measured: bool = False):
        """Run one CLI command; returns (start, end, stamped writes).

        A measured command that exits non-zero is counted in `failed` and
        ends the run with `CheckFailed`, so no failed round is timed.
        """
        out = _StampedOut()
        traced = self.tracer.active() if measured and self.tracer \
            else contextlib.nullcontext()
        if measured:
            self.attempted += 1
        with traced, contextlib.redirect_stdout(out):
            t0 = perf_counter()
            try:
                code = self.cli.main([str(a) for a in argv])
            except SystemExit as exc:
                code = exc.code
            t1 = perf_counter()
        if code != 0 and measured:
            self.failed += 1
            raise checks.CheckFailed(f"command exited {code}: {argv}")
        if code != 0:
            raise RuntimeError(f"set-up command failed ({code}): {argv}")
        return t0, t1, out.writes

    def fresh(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        return path

    def timed_setup(self, fn):
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            fn()
            self.setup.append(perf_counter() - t0)

    def repeat(self, round_fn):
        """Whole rounds until `seconds` have passed; at least one.

        Records the process's peak RSS at the end of the measured rounds,
        before any untimed command or check can raise it.
        """
        start = perf_counter()
        while not self.rounds or perf_counter() - start < self.seconds:
            self.rounds.append(round_fn(len(self.rounds)))
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def sample(self, n: int, size: int) -> list:
        return sorted(int(i) for i in self.rng.choice(size, n, replace=False))


def write_config(path: Path, iterations: int, every: int) -> Path:
    """The paper's desk configuration with the given training length."""
    cp = configparser.ConfigParser()
    cp["train"] = {"m_train": str(M_TRAIN), "iterations": str(iterations),
                   "batch_size": "512", "seed": str(TRAIN_SEED),
                   "horizon": "41", "gender": "male", "w0": "500000",
                   "log_every": str(every), "checkpoint_every": str(every)}
    cp["utility"] = {"rho": "5", "phi": "0.5"}
    cp["evaluate"] = {"m_test": str(M_TEST), "test_seed": str(TEST_SEED)}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        cp.write(fh)
    return path


def _evaluate_argv(config, checkpoints, out):
    return ["evaluate", "--config", config, "--checkpoint", checkpoints,
            "--m-test", M_TEST, "--seed", TEST_SEED, "--out", out]


def _check_evaluation(run: Run, eval_dir: Path, net_path: Path,
                      final_iteration: int) -> None:
    """All held-out evaluation checks on one `evaluate` output directory."""
    model = ref.Model.from_config_used(eval_dir / "config_used.ini")
    net = ref.load_mlp(net_path)
    paths = run.sample(SAMPLED_PATHS, M_TEST)
    utilities = eval_dir / "utilities.csv"
    checks.check_sampled_utilities(utilities, model, net, TEST_SEED, paths)
    checks.check_outperformance_recount(
        utilities, eval_dir / "outperformance.csv", final_iteration)
    checks.check_kde(eval_dir, utilities)
    walks = checks.reference_walks(model, net, TEST_SEED, paths[0])
    checks.check_first_year_median(
        eval_dir, {label: c[0] for label, (_, c) in walks.items()},
        model.retirement_age)


# ---------------------------------------------------------------- desk-train


def desk_train(run: Run) -> dict:
    config = write_config(run.work / "desk.ini", DESK_ITERATIONS, DESK_EVERY)
    warm = write_config(run.work / "warm.ini", WARM_ITERATIONS,
                        WARM_ITERATIONS)
    run.timed_setup(lambda: run.command(
        ["train", "--config", warm, "--out", run.fresh("warm")]))

    stamps, digests = [], []

    def one_round(k):
        out = run.fresh("train")
        t0, t1, writes = run.command(
            ["train", "--config", config, "--out", out], measured=True)
        at = {}
        for t, text in writes:
            hit = _ITER_LINE.search(text)
            if hit:
                at[int(hit.group(1))] = t - t0
        stamps.append(at)
        digests.append(checks.digest((out / "checkpoints").iterdir()))
        if k == 0:
            shutil.copytree(out, run.fresh("train_first"))
        return t1 - t0

    run.repeat(one_round)
    first = run.work / "train_first"
    if len(set(digests)) > 1:
        raise checks.CheckFailed("rounds wrote different checkpoints")

    score = run.fresh("score")
    run.command(_evaluate_argv(config, first / "checkpoints", score))
    target = checks.check_target(score / "outperformance.csv", M_TEST,
                                 TARGET_SHARE, DESK_ITERATIONS)
    checks.check_objective_rises(first / "report.csv")
    _check_gradients(run, config, first)
    _check_evaluation(run, score, first / "checkpoints" /
                      "checkpoint_final.npz", DESK_ITERATIONS)

    # Median over the 50-iteration intervals of every round, so that a
    # short burst of load on a shared machine moves the rate little.
    rates = []
    for at in stamps:
        its = sorted(at)
        rates += [(b - a) / (at[b] - at[a]) for a, b in zip(its, its[1:])]
    return {"time_to_target_s": statistics.median(at[target]
                                                  for at in stamps),
            "rate_per_s": statistics.median(rates),
            "iterations_to_target": target}


def gradient_setup(run: Run, config: Path, train_dir: Path):
    """(model, net, program_gradient, draw) at a run's final weights.

    `program_gradient(m)` is the program's BPTT objective and gradient for
    training path m (`trainer.rollout` + `policy.backward`); `draw()` picks
    a random weight entry.
    """
    from superdraw import policy, trainer
    cp = configparser.ConfigParser()
    cp.read(config)
    cfg = run.cli.build_train_config(cp)
    panel, curve = cfg.training_panel(), cfg.curve()
    final = train_dir / "checkpoints" / "checkpoint_final.npz"
    params = policy.load_checkpoint(final)[0]
    net = ref.load_mlp(final)

    def program_gradient(m):
        value, tape = trainer.rollout(params, panel, m, cfg, curve=curve)
        grads = policy.backward(tape)
        return value, {n: getattr(grads, n) for n in ref.MLP_FIELDS}

    def draw():
        name = ref.MLP_FIELDS[run.rng.integers(len(ref.MLP_FIELDS))]
        rows, cols = net[name].shape
        return name, int(run.rng.integers(rows)), int(run.rng.integers(cols))

    model = ref.Model.from_config_used(train_dir / "config_used.ini")
    return model, net, program_gradient, draw


def _check_gradients(run: Run, config: Path, train_dir: Path) -> None:
    """BPTT at the final weights vs finite differences of the walker."""
    model, net, program_gradient, draw = gradient_setup(run, config,
                                                        train_dir)
    checks.check_gradients(model, net, TRAIN_SEED,
                           run.sample(GRADIENT_PATHS, M_TRAIN), draw,
                           program_gradient, per_path=GRADIENT_ENTRIES)


# ------------------------------------------------------------- held-out-eval


def held_out_eval(run: Run) -> dict:
    config = write_config(run.work / "short.ini", SHORT_ITERATIONS,
                          SHORT_EVERY)
    short = run.work / "short"
    run.timed_setup(lambda: run.command(
        ["train", "--config", config, "--out", run.fresh("short")]))
    digests = []

    def one_round(k):
        out = run.fresh("eval")
        t0, t1, _ = run.command(
            _evaluate_argv(config, short / "checkpoints", out), measured=True)
        digests.append(checks.digest(out.glob("*.csv")))
        if k == 0:
            shutil.copytree(out, run.fresh("eval_first"))
        return t1 - t0

    run.repeat(one_round)
    if len(set(digests)) > 1:
        raise checks.CheckFailed("rounds wrote different evaluation outputs")
    _check_evaluation(run, run.work / "eval_first",
                      short / "checkpoints" / "checkpoint_final.npz",
                      SHORT_ITERATIONS)
    evaluate_s = statistics.median(run.rounds)
    return {"time_to_target_s": evaluate_s, "rate_per_s": M_TEST / evaluate_s,
            "iterations_to_target": 0}


# ----------------------------------------------------------- scenario-export


def _export_argv(params, m, out):
    return ["simulate", "--params", params, "--m", m, "--t", EXPORT_T,
            "--seed", EXPORT_SEED, "--out", out]


def scenario_export(run: Run) -> dict:
    def setup():
        warm = run.fresh("warm")
        run.command(["calibrate", "--out", warm])
        run.command(_export_argv(warm / "params.ini", WARM_M, warm))

    run.timed_setup(setup)
    cal, sim = run.work / "cal", run.work / "sim"
    digests = []

    def one_round(k):
        run.fresh("cal"), run.fresh("sim")
        t0, _, _ = run.command(["calibrate", "--out", cal], measured=True)
        _, t1, _ = run.command(
            _export_argv(cal / "params.ini", EXPORT_M, sim), measured=True)
        digests.append(checks.digest([cal / "params.ini", sim / "panel.csv"]))
        return t1 - t0

    run.repeat(one_round)
    if len(set(digests)) > 1:
        raise checks.CheckFailed("rounds wrote different panels")

    one = run.fresh("one")
    run.command(_export_argv(cal / "params.ini", 1, one))
    params = ref.read_params_file(cal / "params.ini")
    omega = ref.read_ini(sim / "config_used.ini")["account"]["omega"]
    checks.check_ols(cal / "params.ini")
    cols = checks.load_panel(sim / "panel.csv", EXPORT_M, EXPORT_T)
    checks.check_panel_identities(cols, omega)
    checks.check_first_block(sim / "panel.csv", one / "panel.csv", EXPORT_T)
    checks.check_q_mean(cols, params["mu_q"])
    checks.check_reference_paths(cols, params, EXPORT_SEED, omega,
                                 run.sample(SAMPLED_PATHS, EXPORT_M))
    export_s = statistics.median(run.rounds)
    return {"time_to_target_s": export_s,
            "rate_per_s": EXPORT_M * (EXPORT_T + 1) / export_s,
            "iterations_to_target": 0}


WORKLOADS = {"desk-train": desk_train, "held-out-eval": held_out_eval,
             "scenario-export": scenario_export}
