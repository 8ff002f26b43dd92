"""Out-of-sample comparison of the trained policy against the fixed rules.

Everything here is evaluated on one shared scenario panel so that utility
differences reflect the strategies, not the draws. Outputs are plain data:
per-path utility vectors, outperformance counts, kernel density estimates
of the utility gaps (on a log10 axis), and per-age medians of the real
consumption and wealth paths.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from ._csvblock import BLOCK_ROWS, quote_field, write_blocks
from .baselines import rollout_strategy
from .errors import ConfigError
from .esg import ScenarioPanel
from .mortality import SurvivalCurve
from .policy import PARAM_FIELDS, MlpParams
from .trainer import (PathRecords, TrainConfig, policy_consumer,
                      rollout_consume)

__all__ = [
    "POLICY_LABEL",
    "EvalReport",
    "DiffDensity",
    "MedianPaths",
    "evaluate_policy",
    "compare",
    "outperformance_curve",
    "silverman_bandwidth",
    "kde",
    "utility_diff_density",
    "median_paths",
    "write_utilities_csv",
    "write_outperformance_csv",
    "write_kde_csv",
    "write_medians_csv",
]

POLICY_LABEL = "policy"


@dataclass
class EvalReport:
    utilities: dict          # label -> (M,) realized utilities
    outperformance: dict     # strategy label -> count of strict wins
    diffs: dict              # strategy label -> U_policy - U_strategy
    config: TrainConfig
    records: dict = field(default_factory=dict)  # label -> PathRecords

    @property
    def m_test(self) -> int:
        return len(self.utilities[POLICY_LABEL])

    def mean_utilities(self) -> dict:
        return {k: float(np.mean(v)) for k, v in self.utilities.items()}


@dataclass
class DiffDensity:
    grid: np.ndarray        # log10 of positive utility differences
    density: np.ndarray
    n_nonpositive: int
    empty: bool


@dataclass
class MedianPaths:
    age: np.ndarray
    consumption: np.ndarray
    wealth: np.ndarray
    consumption_rate: np.ndarray


def _plain(params: MlpParams) -> dict:
    return {n: getattr(params, n) for n in PARAM_FIELDS}


def evaluate_policy(params: MlpParams, panel: ScenarioPanel,
                    curve: SurvivalCurve, cfg: TrainConfig,
                    record: bool = False):
    """Per-path utilities of the network policy on a panel, numpy mode."""
    return rollout_consume(policy_consumer(_plain(params), cfg.norm()),
                           panel, curve, cfg, record=record)


def compare(params: MlpParams, strategies, panel: ScenarioPanel,
            cfg: TrainConfig, curve: SurvivalCurve | None = None,
            record: bool = False,
            policy_consume=None) -> EvalReport:
    """Evaluate the policy and each strategy on the same panel.

    `policy_consume` substitutes an arbitrary rule for the network (used by
    tests and by self-comparisons); it must follow the engine's
    consume(t, W, A, R, Q) protocol.
    """
    if curve is None:
        curve = cfg.curve()
    if curve.horizon != panel.T:
        raise ConfigError("panel horizon does not match survival curve")
    if policy_consume is None:
        policy_consume = policy_consumer(_plain(params), cfg.norm())
    utilities, outperf, diffs, records = {}, {}, {}, {}
    u_pol, rec = rollout_consume(policy_consume, panel, curve, cfg,
                                 record=record)
    utilities[POLICY_LABEL] = u_pol
    if record:
        records[POLICY_LABEL] = rec
    for kind in strategies:
        u_s, rec_s = rollout_strategy(kind, panel, curve, cfg, record=record)
        utilities[kind.value] = u_s
        diffs[kind.value] = u_pol - u_s
        outperf[kind.value] = int(np.sum(u_pol > u_s))
        if record:
            records[kind.value] = rec_s
    return EvalReport(utilities=utilities, outperformance=outperf,
                      diffs=diffs, config=cfg, records=records)


def outperformance_curve(snapshots, strategies, panel: ScenarioPanel,
                         cfg: TrainConfig, curve: SurvivalCurve,
                         base_utilities: dict):
    """Win counts per training snapshot; rows of (iteration, label, count).

    `snapshots` is a sequence of (iteration, MlpParams) in ascending order.
    `base_utilities` maps each strategy label to its per-path utilities on
    this panel, such as `compare(...).utilities`.
    """
    iters = [it for it, _ in snapshots]
    if iters != sorted(iters):
        raise ConfigError("snapshots must be in ascending iteration order")
    rows = []
    for it, params in snapshots:
        u_pol, _ = evaluate_policy(params, panel, curve, cfg)
        for kind in strategies:
            count = int(np.sum(u_pol > base_utilities[kind.value]))
            rows.append((it, kind.value, count))
    return rows


# ----------------------------------------------------------------- densities


def silverman_bandwidth(x: np.ndarray) -> float:
    """0.9 min(sd, IQR/1.34) n^(-1/5); degenerate spreads fall through to 0."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    sd = float(np.std(x, ddof=1)) if n > 1 else 0.0
    q75, q25 = np.percentile(x, [75.0, 25.0])
    iqr = float(q75 - q25)
    spreads = [s for s in (sd, iqr / 1.34) if s > 0.0]
    if not spreads:
        return 0.0
    return 0.9 * min(spreads) * n ** (-0.2)


def kde(samples: np.ndarray, grid: np.ndarray | None = None,
        n_grid: int = 256):
    """Gaussian kernel density estimate; returns (grid, density).

    A degenerate sample (all values identical) gets a hair-width bandwidth
    so the result is a unit-mass spike at the shared value.
    """
    x = np.asarray(samples, dtype=float)
    if len(x) < 2:
        raise ConfigError("kde needs at least two samples")
    bw = silverman_bandwidth(x)
    if bw <= 0.0:
        bw = max(abs(float(x[0])), 1.0) * 1e-9
    if grid is None:
        grid = np.linspace(x.min() - 3.0 * bw, x.max() + 3.0 * bw, n_grid)
    z = (grid[:, None] - x[None, :]) / bw
    density = np.exp(-0.5 * z * z).sum(axis=1) / (len(x) * bw *
                                                  np.sqrt(2.0 * np.pi))
    return grid, density


def utility_diff_density(diffs: np.ndarray, n_grid: int = 256) -> DiffDensity:
    """KDE of log10 of the positive utility gaps.

    Non-positive gaps cannot appear on a log axis; they are counted and
    reported alongside. Fewer than two positive samples marks the density
    empty.
    """
    diffs = np.asarray(diffs, dtype=float)
    positive = diffs[diffs > 0.0]
    n_nonpos = int(len(diffs) - len(positive))
    if len(positive) < 2:
        return DiffDensity(grid=np.empty(0), density=np.empty(0),
                           n_nonpositive=n_nonpos, empty=True)
    grid, density = kde(np.log10(positive), n_grid=n_grid)
    return DiffDensity(grid=grid, density=density, n_nonpositive=n_nonpos,
                       empty=False)


# -------------------------------------------------------------------- medians


def median_paths(records: PathRecords, retirement_age: int) -> MedianPaths:
    """Per-age medians of real consumption and wealth across paths.

    The consumption rate is the ratio of the medians; entries where the
    median wealth is zero come out as NaN.
    """
    if records.consumption.size == 0:
        raise ConfigError("empty rollout set")
    med_c = np.median(records.consumption, axis=0)
    med_w = np.median(records.wealth, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(med_w > 0.0, med_c / med_w, np.nan)
    ages = retirement_age + np.arange(records.consumption.shape[1])
    return MedianPaths(age=ages, consumption=med_c, wealth=med_w,
                       consumption_rate=rate)


# ------------------------------------------------------------------- exports


def write_utilities_csv(report: EvalReport, path) -> None:
    """Write the per-path utilities as CSV text, one row per label and path.

    The header is `path,strategy,utility`; labels follow the order of
    `report.utilities` and paths run in order within each label. `path` is
    an integer, `utility` is formatted as `%.10g` and the label is quoted as
    `csv.writer` would; lines end in CRLF.
    """
    with open(path, "w", newline="") as fh:
        fh.write("path,strategy,utility\r\n")
        for label, values in report.utilities.items():
            row = "%d," + quote_field(label).replace("%", "%%") + ",%.10g\r\n"
            paths = np.arange(len(values))
            write_blocks(fh, row, (
                np.column_stack([paths[i:i + BLOCK_ROWS],
                                 values[i:i + BLOCK_ROWS]])
                for i in range(0, len(values), BLOCK_ROWS)))


def write_outperformance_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iter", "strategy", "count"])
        for it, label, count in rows:
            w.writerow([it, label, count])


def write_kde_csv(dd: DiffDensity, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "density"])
        for x, d in zip(dd.grid, dd.density):
            w.writerow([f"{x:.10g}", f"{d:.10g}"])


def write_medians_csv(mp: MedianPaths, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["age", "consumption", "wealth", "consumption_rate"])
        for a, c, wl, r in zip(mp.age, mp.consumption, mp.wealth,
                               mp.consumption_rate):
            w.writerow([a, f"{c:.10g}", f"{wl:.10g}",
                        "" if not np.isfinite(r) else f"{r:.10g}"])
