"""Command-line entry point.

Five subcommands cover the pipeline: `calibrate` fits the scenario
generator to a historical CSV, `simulate` writes scenario panels,
`train` runs the policy optimization, `evaluate` compares a checkpoint
against the deterministic strategies, and `demo-path` exports one
simulated retirement for plotting.

All knobs live in one INI-style config file; command-line flags override
file values. Every command writes the fully resolved configuration next to
its outputs, so a result directory is self-describing.

Exit codes: 0 success, 2 configuration, 3 data, 4 numeric, 5 I/O.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import esg as esg_mod
from .account import AccountParams, PensionParams
from .baselines import StrategyKind
from .errors import ConfigError, DataError, NumericError
from .esg import EsgParams
from .evaluator import (POLICY_LABEL, compare, evaluate_policy,
                        median_paths, outperformance_curve,
                        utility_diff_density, write_kde_csv,
                        write_medians_csv, write_outperformance_csv,
                        write_utilities_csv)
from .policy import load_checkpoint
from .trainer import TrainConfig, TrainingAborted, train

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_IO = 5

_TRAIN_KEYS = {
    "m_train": int, "iterations": int, "batch_size": int, "seed": int,
    "horizon": int, "retirement_age": int, "gender": str, "w0": float,
    "learning_rate": float, "log_every": int, "checkpoint_every": int,
    "life_table": str,
}
_UTILITY_KEYS = {"rho": float, "phi": float, "floor_epsilon": float,
                 "wealth_unit": float}
_PENSION_KEYS = {"a_max": float, "w_a": float, "tau_a": float,
                 "income_free": float, "w_i": float, "r1": float, "r2": float,
                 "tau_i": float, "fortnights_per_year": int}
_ACCOUNT_KEYS = {"omega": float, "admin_fee": float,
                 "indirect_cost_ratio": float, "investment_fee": float}
_EVALUATE_KEYS = {"m_test": int, "test_seed": int}
_SIMULATE_KEYS = {"m": int, "t": int}
_ESG_KEYS = {"params_file": str,
             **{f.name: float for f in dataclasses.fields(EsgParams)}}


def _new_ini() -> configparser.ConfigParser:
    """A parser that keeps key case, so `mu_S` reads back as `mu_S`."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    return cp


def _read_ini(path) -> configparser.ConfigParser:
    cp = _new_ini()
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return cp


def _section(cp, name: str, allowed: dict) -> dict:
    """Typed key-value view of one section; unknown keys are config errors."""
    if cp is None or not cp.has_section(name):
        return {}
    out = {}
    for key, raw in cp.items(name):
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in section [{name}]")
        cast = allowed[key]
        try:
            out[key] = cast(raw)
        except ValueError:
            raise ConfigError(
                f"bad value for {name}.{key}: {raw!r}") from None
    return out


def _esg_params(cp) -> EsgParams:
    changes = _section(cp, "esg", _ESG_KEYS)
    params_file = changes.pop("params_file", None)
    base = esg_mod.DEFAULT_PARAMS if params_file is None \
        else esg_mod.load_params(params_file)
    return dataclasses.replace(base, **changes)


def build_train_config(cp, seed_override: int | None = None) -> TrainConfig:
    """TrainConfig from a parsed INI file; flags win over file values."""
    t = _section(cp, "train", _TRAIN_KEYS)
    life_table = t.pop("life_table", None)
    u = _section(cp, "utility", _UTILITY_KEYS)
    p = _section(cp, "pension", _PENSION_KEYS)
    a = _section(cp, "account", _ACCOUNT_KEYS)
    if seed_override is not None:
        t["seed"] = seed_override
    from .utility import UtilityParams
    return TrainConfig(utility=UtilityParams(**u), pension=PensionParams(**p),
                       account=AccountParams(**a), esg=_esg_params(cp),
                       life_table_path=life_table, **t)


def _echo_config(cfg: TrainConfig, out_dir: Path, extra: dict | None = None):
    """Resolved settings, written next to the outputs."""
    cp = _new_ini()
    train_values = {k: getattr(cfg, k) for k in _TRAIN_KEYS
                    if k != "life_table"}
    cp["train"] = {k: v if isinstance(v, str) else repr(v)
                   for k, v in train_values.items()}
    if cfg.life_table_path:
        cp["train"]["life_table"] = str(cfg.life_table_path)
    cp["utility"] = {k: repr(getattr(cfg.utility, k)) for k in _UTILITY_KEYS}
    cp["pension"] = {k: repr(getattr(cfg.pension, k)) for k in _PENSION_KEYS}
    cp["account"] = {k: repr(getattr(cfg.account, k)) for k in _ACCOUNT_KEYS}
    cp["esg"] = {f.name: repr(getattr(cfg.esg, f.name))
                 for f in dataclasses.fields(EsgParams)}
    if extra:
        cp["run"] = {k: str(v) for k, v in extra.items()}
    with open(out_dir / "config_used.ini", "w") as fh:
        cp.write(fh)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ----------------------------------------------------------------- commands


def cmd_calibrate(args) -> int:
    out = _out_dir(args)
    history_path = args.history or esg_mod.bundled_history_path()
    history = esg_mod.load_history(history_path)
    params = esg_mod.calibrate(history)
    esg_mod.save_params(params, out / "params.ini")
    corr, _ = esg_mod.residual_diagnostics(history, params)
    names = ["q", "S", "e", "n", "b", "o", "h"]
    with open(out / "residual_correlations.csv", "w", newline="") as fh:
        fh.write("," + ",".join(names) + "\n")
        for i, row_name in enumerate(names):
            fh.write(row_name + "," +
                     ",".join(f"{corr[i, j]:.6f}" for j in range(7)) + "\n")
    off_diag = np.max(np.abs(corr - np.diag(np.diag(corr))))
    echo = configparser.ConfigParser()
    echo["run"] = {"command": "calibrate", "history": str(history_path)}
    with open(out / "config_used.ini", "w") as fh:
        echo.write(fh)
    print(f"calibrated 25 coefficients from {history_path}")
    print(f"wrote {out / 'params.ini'}; max |residual corr| = {off_diag:.4f}")
    return 0


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    cp = _read_ini(args.config) if args.config else None
    cfg = build_train_config(cp, seed_override=args.seed)
    sim = _section(cp, "simulate", _SIMULATE_KEYS)
    m = args.m if args.m is not None else sim.get("m", 1_000)
    T = args.t if args.t is not None else sim.get("t", cfg.horizon)
    if args.params:
        cfg = dataclasses.replace(cfg, esg=esg_mod.load_params(args.params))
    panel = esg_mod.simulate(cfg.esg, cfg.initial_econ_state(), m, T,
                             seed=cfg.seed, omega=cfg.account.omega)
    esg_mod.panel_to_csv(panel, out / "panel.csv")
    _echo_config(cfg, out, {"command": "simulate", "m": m, "t": T})
    print(f"wrote {out / 'panel.csv'}: {m} paths x {T + 1} years, "
          f"seed {cfg.seed}")
    return 0


def cmd_train(args) -> int:
    out = _out_dir(args)
    cp = _read_ini(args.config) if args.config else None
    cfg = build_train_config(cp, seed_override=args.seed)
    if cfg.checkpoint_dir is None:
        cfg = dataclasses.replace(cfg, checkpoint_dir=str(out / "checkpoints"))
    if cfg.checkpoint_every == 0:
        cfg = dataclasses.replace(
            cfg, checkpoint_every=max(cfg.log_every, 1) * 5)
    _echo_config(cfg, out, {"command": "train"})

    def progress(it, obj):
        print(f"iter {it:6d}  objective {obj:.2f}", flush=True)

    try:
        params, report = train(cfg, progress=progress)
    except TrainingAborted as exc:
        exc.report.to_csv(out / "report.csv")
        raise
    report.to_csv(out / "report.csv")
    print(f"trained {cfg.iterations} iterations; "
          f"final checkpoint in {cfg.checkpoint_dir}")
    return 0


def _load_policy(path, cfg: TrainConfig):
    """Checkpoint file, or the final checkpoint inside a directory.

    The checkpoint's input normalization must match the config's horizon
    and wealth scale; otherwise the network would read rescaled inputs.
    """
    p = Path(path)
    if p.is_dir():
        final = p / "checkpoint_final.npz"
        if not final.exists():
            raise DataError(f"no checkpoint_final.npz under {p}")
        p = final
    params, norm, meta = load_checkpoint(p)
    if norm.horizon != float(cfg.horizon) or \
            abs(norm.wealth_scale - cfg.norm().wealth_scale) > 1e-6:
        raise ConfigError(
            "checkpoint normalization does not match the config "
            f"(horizon {norm.horizon} vs {cfg.horizon}, wealth scale "
            f"{norm.wealth_scale} vs {cfg.norm().wealth_scale})")
    return params, meta


def _checkpoint_sequence(path):
    """(iteration, params) for every numbered checkpoint in a directory."""
    seq = []
    for f in sorted(Path(path).glob("checkpoint_*.npz")):
        stem = f.stem.rsplit("_", 1)[1]
        if not stem.isdigit():
            continue
        params, _, meta = load_checkpoint(f)
        seq.append((meta["iteration"], params))
    return sorted(seq, key=lambda x: x[0])


def cmd_evaluate(args) -> int:
    out = _out_dir(args)
    cp = _read_ini(args.config) if args.config else None
    cfg = build_train_config(cp)
    ev = _section(cp, "evaluate", _EVALUATE_KEYS)
    m_test = args.m_test if args.m_test is not None else ev.get("m_test", 1_000)
    test_seed = args.seed if args.seed is not None else \
        ev.get("test_seed", cfg.seed + 1_000)
    if test_seed == cfg.seed:
        raise ConfigError("test seed must differ from the training seed")
    params, meta = _load_policy(args.checkpoint, cfg)
    panel = esg_mod.simulate(cfg.esg, cfg.initial_econ_state(), m_test,
                             cfg.horizon, seed=test_seed,
                             omega=cfg.account.omega)
    curve = cfg.curve()
    strategies = list(StrategyKind)
    report = compare(params, strategies, panel, cfg, curve=curve, record=True)
    write_utilities_csv(report, out / "utilities.csv")
    # The (paths, years) records are the largest arrays of the command;
    # release them before the checkpoint rollouts allocate theirs.
    for label in list(report.records):
        mp = median_paths(report.records.pop(label), cfg.retirement_age)
        write_medians_csv(mp, out / f"medians_{label}.csv")

    ckpt_path = Path(args.checkpoint)
    if ckpt_path.is_dir():
        seq = _checkpoint_sequence(ckpt_path)
        rows = outperformance_curve(seq, strategies, panel, cfg, curve=curve,
                                    base_utilities=report.utilities)
    else:
        rows = [(meta["iteration"], k.value, report.outperformance[k.value])
                for k in strategies]
    write_outperformance_csv(rows, out / "outperformance.csv")

    for kind in strategies:
        dd = utility_diff_density(report.diffs[kind.value])
        write_kde_csv(dd, out / f"kde_{kind.value}.csv")
    _echo_config(cfg, out, {"command": "evaluate", "m_test": m_test,
                            "test_seed": test_seed,
                            "checkpoint": args.checkpoint})

    means = report.mean_utilities()
    order = sorted(means, key=means.get, reverse=True)
    print("mean realized utility, best to worst:")
    for label in order:
        extra = ""
        if label != POLICY_LABEL:
            frac = report.outperformance[label] / report.m_test
            extra = f"   beaten on {frac:.1%} of paths"
        print(f"  {label:>14}: {means[label]:12.1f}{extra}")
    return 0


def cmd_demo_path(args) -> int:
    out = _out_dir(args)
    cp = _read_ini(args.config) if args.config else None
    cfg = build_train_config(cp)
    seed = args.seed if args.seed is not None else cfg.seed + 2_000
    params, _ = _load_policy(args.checkpoint, cfg)
    panel = esg_mod.simulate(cfg.esg, cfg.initial_econ_state(), 1,
                             cfg.horizon, seed=seed, omega=cfg.account.omega)
    totals, rec = evaluate_policy(params, panel, cfg.curve(), cfg,
                                  record=True)
    with open(out / "demo_path.csv", "w", newline="") as fh:
        fh.write("age,q,R,consumption_real,wealth_real,pension_real\n")
        for t in range(cfg.horizon + 1):
            fh.write(f"{cfg.retirement_age + t},{panel.q[0, t]:.10g},"
                     f"{panel.R[0, t]:.10g},{rec.consumption[0, t]:.10g},"
                     f"{rec.wealth[0, t]:.10g},{rec.pension[0, t]:.10g}\n")
    _echo_config(cfg, out, {"command": "demo-path", "seed": seed,
                            "checkpoint": args.checkpoint})
    print(f"wrote {out / 'demo_path.csv'}; first-year consumption "
          f"{rec.consumption[0, 0]:.0f}, realized utility {totals[0]:.1f}")
    return 0


# ------------------------------------------------------------------ plumbing


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="superdraw",
        description="Neural retirement drawdown policies with a simulated "
                    "Australian economy, means-tested pension, and mortality-"
                    "weighted utility.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--seed", type=int, help="override the seed")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("calibrate", help="fit scenario-generator parameters")
    common(p)
    p.add_argument("--history", help="historical CSV (default: bundled)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("simulate", help="write a scenario panel CSV")
    common(p)
    p.add_argument("--params", help="parameter file from `calibrate`")
    p.add_argument("--m", type=int, help="number of paths")
    p.add_argument("--t", type=int, help="horizon in years")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train the consumption policy")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="compare a checkpoint to baselines")
    common(p)
    p.add_argument("--checkpoint", required=True,
                   help="checkpoint file or training checkpoint directory")
    p.add_argument("--m-test", type=int, help="held-out paths")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("demo-path", help="export one simulated retirement")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_demo_path)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
