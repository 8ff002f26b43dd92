"""Command-line entry point.

Five subcommands cover the pipeline: `calibrate` fits the scenario
generator to a historical CSV, `simulate` writes scenario panels,
`train` runs the policy optimization, `evaluate` compares a checkpoint
against the deterministic strategies, and `demo-path` exports one
simulated retirement for plotting.

All knobs live in one INI file, keyed by the fields of `TrainConfig`;
command-line flags override file values. Every command writes the resolved
configuration next to its outputs, so a result directory is self-describing.

Exit codes: 0 success, 2 configuration, 3 data, 4 numeric, 5 I/O.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import esg as esg_mod
from ._csvblock import write_csv
from .baselines import StrategyKind
from .errors import ConfigError, DataError, NumericError
from .evaluator import (POLICY_LABEL, compare, evaluate_policy,
                        outperformance_curve, snapshots_in_helper,
                        write_kde_csv, write_medians_csv,
                        write_outperformance_csv, write_utilities_csv)
from .policy import load_checkpoint
from .trainer import TrainConfig, TrainingAborted, train

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_IO = 5

_DEFAULT = TrainConfig()


def _schema() -> dict:
    """{section: {key: type}}: TrainConfig's scalar fields are [train], each
    parameter-class field is a section, and three keys are not fields."""
    table = {"train": {}}
    for f in dataclasses.fields(TrainConfig):
        value = getattr(_DEFAULT, f.name)
        if dataclasses.is_dataclass(value):
            table[f.name] = {k.name: type(getattr(value, k.name))
                             for k in dataclasses.fields(value)}
        else:
            table["train"][f.name] = str if value is None else type(value)
    table["esg"]["params_file"] = str
    table["evaluate"] = {"m_test": int, "test_seed": int}
    return table


_KEYS = _schema()


def _new_ini() -> configparser.ConfigParser:
    """A parser that keeps key case, so `mu_S` reads back as `mu_S`, and
    takes values literally, so a `%` reads back as written."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    return cp


def _read_ini(path) -> configparser.ConfigParser:
    cp = _new_ini()
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    # [run] says how a config_used.ini was made; reading it back skips it.
    for name in cp.sections():
        if name not in _KEYS and name != "run":
            raise ConfigError(f"{path}: unknown section [{name}]")
    return cp


def _section(cp, name: str) -> dict:
    """Typed key-value view of one section; unknown keys and numbers that
    are not finite are config errors."""
    if cp is None or not cp.has_section(name):
        return {}
    allowed, out = _KEYS[name], {}
    for key, raw in cp.items(name):
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in section [{name}]")
        try:
            out[key] = allowed[key](raw)
        except ValueError:
            raise ConfigError(
                f"bad value for {name}.{key}: {raw!r}") from None
        if allowed[key] is float and not np.isfinite(out[key]):
            raise ConfigError(f"{name}.{key} must be finite, got {raw!r}")
    return out


def build_train_config(cp, seed_override: int | None = None,
                       params_file: str | None = None) -> TrainConfig:
    """TrainConfig from a parsed INI file; flags win over file values.
    `params_file` (`[esg] params_file`) gives the base ESG coefficients."""
    values = _section(cp, "train")
    if seed_override is not None:
        values["seed"] = seed_override
    for name in _KEYS:
        base = getattr(_DEFAULT, name, None)
        if not dataclasses.is_dataclass(base):
            continue            # [train], [evaluate]
        changes = _section(cp, name)
        if name == "esg":
            in_file = changes.pop("params_file", None)
            path = in_file if params_file is None else params_file
            if path is not None:
                base = esg_mod.load_params(path)
        values[name] = dataclasses.replace(base, **changes)
    return TrainConfig(**values)


def _echo_config(cfg: TrainConfig, out_dir: Path, extra: dict | None = None):
    """Resolved settings, written next to the outputs."""
    cp = _new_ini()
    for name, keys in _KEYS.items():
        owner = cfg if name == "train" else getattr(cfg, name, None)
        if owner is None:
            continue
        values = {k: getattr(owner, k, None) for k in keys}
        cp[name] = {k: v if isinstance(v, str) else repr(v)
                    for k, v in values.items() if v is not None}
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
    history_path = args.history or esg_mod.bundled_history_path()
    history = esg_mod.load_history(history_path)
    params = esg_mod.calibrate(history)
    out = _out_dir(args)
    esg_mod.save_params(params, out / "params.ini")
    corr, residuals = esg_mod.residual_diagnostics(history, params)
    write_csv(out / "residual_correlations.csv",
              "," + ",".join(residuals) + "\n",
              ((name + ",%.6f" * 7 + "\n", [corr[i:i + 1]])
               for i, name in enumerate(residuals)))
    off_diag = np.max(np.abs(corr - np.diag(np.diag(corr))))
    echo = _new_ini()
    # The bundled default goes by its file name, so that every checkout
    # writes the same file.
    echo["run"] = {"command": "calibrate", "history": str(
        args.history or esg_mod.bundled_history_path().name)}
    with open(out / "config_used.ini", "w") as fh:
        echo.write(fh)
    print(f"calibrated 25 coefficients from {history_path}")
    print(f"wrote {out / 'params.ini'}; max |residual corr| = {off_diag:.4f}")
    return 0


def cmd_simulate(args) -> int:
    cp = _read_ini(args.config) if args.config else None
    cfg = build_train_config(cp, seed_override=args.seed,
                             params_file=args.params)
    m = 1_000 if args.m is None else args.m
    T = cfg.horizon if args.t is None else args.t
    # A helper simulates paths [m // 2, m) and formats their rows while this
    # process does the first half; the panel is checked before any write.
    with esg_mod.panel_for_csv(functools.partial(cfg.panel, seed=cfg.seed,
                                                 T=T), m, T) as (panel, tail):
        out = _out_dir(args)
        esg_mod.panel_to_csv(panel, out / "panel.csv", tail)
    _echo_config(cfg, out, {"command": "simulate", "m": m, "t": T})
    print(f"wrote {out / 'panel.csv'}: {m} paths x {T + 1} years, "
          f"seed {cfg.seed}")
    return 0


def cmd_train(args) -> int:
    cp = _read_ini(args.config) if args.config else None
    cfg = build_train_config(cp, seed_override=args.seed)
    curve, panel = cfg.curve(), cfg.training_panel()  # checked before writes
    out = _out_dir(args)
    checkpoint_dir = out / "checkpoints"
    _echo_config(cfg, out, {"command": "train"})

    def progress(it, obj):
        print(f"iter {it:6d}  objective {obj:.2f}", flush=True)

    try:
        params, report = train(cfg, panel, progress=progress,
                               checkpoint_dir=checkpoint_dir, curve=curve,
                               log=lambda line: print(line, flush=True))
    except TrainingAborted as exc:
        exc.report.to_csv(out / "report.csv")
        raise
    report.to_csv(out / "report.csv")
    print(f"trained {cfg.iterations} iterations; "
          f"final checkpoint in {checkpoint_dir}")
    return 0


def _load_matching(path, cfg: TrainConfig):
    """(params, meta) of one checkpoint file trained under `cfg`.

    The checkpoint's input normalization must match the config's horizon
    and wealth scale; otherwise the network would read rescaled inputs.
    """
    params, norm, meta = load_checkpoint(path)
    if norm.horizon != float(cfg.horizon) or \
            abs(norm.wealth_scale - cfg.norm().wealth_scale) > 1e-6:
        raise ConfigError(
            f"{path}: checkpoint normalization does not match the config "
            f"(horizon {norm.horizon} vs {cfg.horizon}, wealth scale "
            f"{norm.wealth_scale} vs {cfg.norm().wealth_scale})")
    return params, meta


def _load_policy(path, cfg: TrainConfig):
    """Checkpoint file, or the final checkpoint inside a directory."""
    p = Path(path)
    if p.is_dir():
        final = p / "checkpoint_final.npz"
        if not final.exists():
            raise DataError(f"no checkpoint_final.npz under {p}")
        p = final
    return _load_matching(p, cfg)


def _checkpoint_sequence(path, cfg: TrainConfig):
    """(iteration, params) for every numbered checkpoint in a directory,
    each checked against `cfg` like the final one."""
    seq = []
    for f in sorted(Path(path).glob("checkpoint_*.npz")):
        stem = f.stem.rsplit("_", 1)[1]
        if not stem.isdigit():
            continue
        params, meta = _load_matching(f, cfg)
        seq.append((meta["iteration"], params))
    return sorted(seq, key=lambda x: x[0])


def cmd_evaluate(args) -> int:
    cp = _read_ini(args.config) if args.config else None
    cfg = build_train_config(cp)
    ev = _section(cp, "evaluate")
    m_test = args.m_test if args.m_test is not None else ev.get("m_test", 1_000)
    test_seed = args.seed if args.seed is not None else \
        ev.get("test_seed", cfg.seed + 1_000)
    if test_seed == cfg.seed:
        raise ConfigError("test seed must differ from the training seed")
    params, meta = _load_policy(args.checkpoint, cfg)
    # Every checkpoint is checked before any output is written.
    seq = _checkpoint_sequence(args.checkpoint, cfg) \
        if Path(args.checkpoint).is_dir() else [(meta["iteration"], params)]
    curve = cfg.curve()
    strategies = list(StrategyKind)
    # A helper simulates half of the panel, then rolls the other snapshots
    # while this process runs `compare`.
    with snapshots_in_helper(seq, cfg, m_test, test_seed, curve,
                             params) as (panel, rolled):
        report = compare(params, strategies, panel, cfg, curve=curve)
        out = _out_dir(args)
        write_utilities_csv(report, out / "utilities.csv")
        for label, mp in report.medians.items():
            write_medians_csv(mp, out / f"medians_{label}.csv")
        for label, dd in report.densities.items():
            write_kde_csv(dd, out / f"kde_{label}.csv")
        rows = outperformance_curve(seq, strategies, panel, cfg, curve=curve,
                                    base_utilities=report.utilities,
                                    policy=params, rolled=rolled())
    write_outperformance_csv(rows, out / "outperformance.csv")
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
    cp = _read_ini(args.config) if args.config else None
    cfg = build_train_config(cp)
    seed = args.seed if args.seed is not None else cfg.seed + 2_000
    params, _ = _load_policy(args.checkpoint, cfg)
    panel = cfg.panel(1, seed, factors=True)
    totals, rec = evaluate_policy(params, panel, cfg.curve(), cfg,
                                  record=True)
    out = _out_dir(args)
    write_csv(out / "demo_path.csv",
              "age,q,R,consumption_real,wealth_real,pension_real\n",
              [("%d" + ",%.10g" * 5 + "\n", [np.column_stack([
                  cfg.retirement_age + np.arange(cfg.horizon + 1),
                  panel.q[0], panel.R[0], rec.consumption[0], rec.wealth[0],
                  rec.pension[0]])])])
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

    def common(p, seed_help):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--seed", type=int, help=seed_help)
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("calibrate", help="fit scenario-generator parameters")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--history", help="historical CSV (default: bundled)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("simulate", help="write a scenario panel CSV")
    common(p, "override [train] seed, the seed of the panel")
    p.add_argument("--params", help="[esg] params_file: a `calibrate` output")
    p.add_argument("--m", type=int, help="number of paths (default: 1000)")
    p.add_argument("--t", type=int,
                   help="horizon in years (default: [train] horizon)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train the consumption policy")
    common(p, "override [train] seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="compare a checkpoint to baselines")
    common(p, "seed of the held-out panel (default: [evaluate] test_seed, "
              "else [train] seed + 1000)")
    p.add_argument("--checkpoint", required=True,
                   help="checkpoint file or training checkpoint directory")
    p.add_argument("--m-test", type=int, help="held-out paths")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("demo-path", help="export one simulated retirement")
    common(p, "seed of the demo path (default: [train] seed + 2000)")
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
