"""Out-of-sample comparison of the trained policy against the fixed rules.

Everything here is evaluated on one shared scenario panel so that utility
differences reflect the strategies, not the draws. Outputs are plain data:
per-path utility vectors, outperformance counts, kernel density estimates
of the utility gaps (on a log10 axis), and per-age medians of the real
consumption and wealth paths.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass

import numpy as np

from . import _csvblock
from ._csvblock import BLOCK_ROWS, literal, write_csv
from .baselines import rollout_strategy
from .errors import ConfigError
from .esg import ScenarioPanel, panel_halves
from .mortality import SurvivalCurve
from .policy import MlpParams
from .trainer import (PathRecords, TrainConfig, network_consumer,
                      rollout_consume)

__all__ = [
    "POLICY_LABEL",
    "EvalReport",
    "DiffDensity",
    "MedianPaths",
    "evaluate_policy",
    "compare",
    "snapshot_utilities",
    "snapshots_in_helper",
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
# Grid rows per kernel block in `kde`: a block's (rows, samples) kernel
# matrix stays cache-sized, and each row is still summed on its own.
KDE_BLOCK_ROWS = 16


@dataclass
class EvalReport:
    utilities: dict          # label -> (M,) realized utilities
    outperformance: dict     # strategy label -> count of strict wins
    medians: dict            # label -> MedianPaths
    densities: dict          # strategy label -> DiffDensity of U_pol - U_s

    @property
    def m_test(self) -> int:
        return len(self.utilities[POLICY_LABEL])

    def mean_utilities(self) -> dict:
        return {k: float(np.mean(v)) for k, v in self.utilities.items()}


@dataclass
class DiffDensity:
    grid: np.ndarray        # log10 of positive utility differences
    density: np.ndarray


@dataclass
class MedianPaths:
    age: np.ndarray
    consumption: np.ndarray
    wealth: np.ndarray
    consumption_rate: np.ndarray


def evaluate_policy(params: MlpParams, panel: ScenarioPanel,
                    curve: SurvivalCurve, cfg: TrainConfig,
                    record: bool = False):
    """Per-path utilities of the network policy on a panel, numpy mode."""
    return rollout_consume(network_consumer(params, cfg.norm()),
                           panel, curve, cfg, record=record)


def compare(params: MlpParams, strategies, panel: ScenarioPanel,
            cfg: TrainConfig, curve: SurvivalCurve) -> EvalReport:
    """Evaluate the policy and each strategy on the same panel. Each
    rollout is reduced as it ends, to its medians and, for a strategy, its
    win count and gap density; its per-year records are not kept."""
    report = EvalReport(utilities={}, outperformance={}, medians={},
                        densities={})

    def reduce(label, rolled):
        # `records` is freed on return, before the next rollout fills its own.
        report.utilities[label], records = rolled
        report.medians[label] = median_paths(records, cfg.retirement_age)
        return rolled[0]

    u_pol = reduce(POLICY_LABEL, evaluate_policy(params, panel, curve, cfg,
                                                 record=True))
    for kind in strategies:
        u_s = reduce(kind.value, rollout_strategy(kind, panel, curve, cfg,
                                                  record=True))
        report.outperformance[kind.value] = int(np.sum(u_pol > u_s))
        report.densities[kind.value] = utility_diff_density(u_pol - u_s)
    return report


def _same(params: MlpParams, policy: MlpParams) -> bool:
    return params.allclose(policy, rtol=0, atol=0)


def snapshot_utilities(snapshots, panel: ScenarioPanel, cfg: TrainConfig,
                       curve: SurvivalCurve, policy: MlpParams) -> list:
    """Per-path utilities of each (iteration, MlpParams) snapshot whose
    weights differ from `policy`, in order: the rollouts that
    `outperformance_curve` needs besides `compare`'s."""
    return [evaluate_policy(params, panel, curve, cfg)[0]
            for _, params in snapshots if not _same(params, policy)]


@contextlib.contextmanager
def snapshots_in_helper(snapshots, cfg: TrainConfig, M: int, seed: int,
                        curve: SurvivalCurve, policy: MlpParams):
    """The held-out panel `cfg.panel(M, seed)`, simulated in two halves by
    `esg.panel_halves`, whose helper then runs `snapshot_utilities` into
    the shared mapping while the block runs.

    Yields (panel, rolled); `rolled()` waits for the helper and returns
    the snapshots' utilities as a list. No helper is forked where there is
    no `os.fork`, fewer than two usable CPUs, or no snapshot to roll, and
    `rolled()` returns None then. It also returns None when the helper
    failed. The snapshots are then rolled in this process by
    `outperformance_curve`, so a failure is raised there as it would be
    without a helper.
    """
    rolls = sum(not _same(params, policy) for _, params in snapshots)
    if not _csvblock.second_cpu():
        rolls = 0

    def roll(panel, utilities):
        utilities[:] = snapshot_utilities(snapshots, panel, cfg, curve,
                                          policy)

    with panel_halves(functools.partial(cfg.panel, seed=seed), M,
                      cfg.horizon, job=roll if rolls else None,
                      shape=(rolls, M)) as (panel, utilities, finish):

        def rolled():
            if finish is None:
                return None
            try:
                finish()
            except OSError:
                return None
            return list(utilities.copy())

        yield panel, rolled


def outperformance_curve(snapshots, strategies, panel: ScenarioPanel,
                         cfg: TrainConfig, curve: SurvivalCurve,
                         base_utilities: dict, policy: MlpParams,
                         rolled: list | None = None):
    """Win counts per training snapshot; rows of (iteration, label, count).

    `snapshots` is a sequence of (iteration, MlpParams) in ascending order.
    `base_utilities` maps each strategy label to its per-path utilities on
    this panel, and `POLICY_LABEL` to those of the weights `policy`, as
    `compare(policy, ...).utilities` does. A snapshot whose weights equal
    `policy` reuses those utilities instead of being rolled out again. The
    others' utilities are `rolled`, as `snapshot_utilities` returns them,
    or are rolled out here when `rolled` is None.
    """
    iters = [it for it, _ in snapshots]
    if iters != sorted(iters):
        raise ConfigError("snapshots must be in ascending iteration order")
    if rolled is None:
        rolled = snapshot_utilities(snapshots, panel, cfg, curve, policy)
    rolled = iter(rolled)
    rows = []
    for it, params in snapshots:
        u_pol = base_utilities[POLICY_LABEL] if _same(params, policy) \
            else next(rolled)
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


def kde(samples: np.ndarray):
    """Gaussian kernel density estimate; returns (grid, density).

    The grid is 256 points over the samples plus three bandwidths on
    either side. A degenerate sample (all values identical) gets a
    hair-width bandwidth so the result is a unit-mass spike at the shared
    value.
    """
    x = np.asarray(samples, dtype=float)
    if len(x) < 2:
        raise ConfigError("kde needs at least two samples")
    bw = silverman_bandwidth(x)
    if bw <= 0.0:
        bw = max(abs(float(x[0])), 1.0) * 1e-9
    grid = np.linspace(x.min() - 3.0 * bw, x.max() + 3.0 * bw, 256)
    sums = np.empty(len(grid))
    for i in range(0, len(grid), KDE_BLOCK_ROWS):
        # exp(-0.5 z z) in place: the same operations in the same order.
        z = grid[i:i + KDE_BLOCK_ROWS, None] - x[None, :]
        z /= bw
        e = z * -0.5
        e *= z
        sums[i:i + KDE_BLOCK_ROWS] = np.exp(e, out=e).sum(axis=1)
    density = sums / (len(x) * bw * np.sqrt(2.0 * np.pi))
    return grid, density


def utility_diff_density(diffs: np.ndarray) -> DiffDensity:
    """KDE of log10 of the positive utility gaps.

    Non-positive gaps cannot appear on a log axis and are left out; the
    positive ones are the policy's wins. Fewer than two positive samples
    give an empty grid and density.
    """
    diffs = np.asarray(diffs, dtype=float)
    positive = diffs[diffs > 0.0]
    if len(positive) < 2:
        return DiffDensity(grid=np.empty(0), density=np.empty(0))
    grid, density = kde(np.log10(positive))
    return DiffDensity(grid=grid, density=density)


# -------------------------------------------------------------------- medians


def _row_medians(a: np.ndarray) -> np.ndarray:
    """`np.median(a, axis=1)` of a finite array, with one partition.

    `np.median` partitions at the middle index h = n // 2, at h - 1 for an
    even n, and at the last index to look for NaN. One partition at h
    places the upper middle value; for an even n the lower one is the
    largest value below it. The two are combined as `np.median` combines
    them, by `np.mean`, so the result is `np.median`'s to the bit for
    finite values. The engine's records are finite: it raises on wealth
    that is not.
    """
    h = a.shape[1] // 2
    part = np.partition(a, h, axis=1)
    if a.shape[1] % 2:
        return part[:, h].copy()
    return np.mean([part[:, :h].max(axis=1), part[:, h]], axis=0)


def median_paths(records: PathRecords, retirement_age: int) -> MedianPaths:
    """Per-age medians of real consumption and wealth across paths.

    The consumption rate is the ratio of the medians; entries where the
    median wealth is zero come out as NaN. The medians run along the rows
    of the records' transposes, which are contiguous for the engine's
    year-major records; records must be finite (`_row_medians`).
    """
    if records.consumption.size == 0:
        raise ConfigError("empty rollout set")
    med_c = _row_medians(records.consumption.T)
    med_w = _row_medians(records.wealth.T)
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
    def blocks(values):
        paths = np.arange(len(values))
        return (np.column_stack([paths[i:i + BLOCK_ROWS],
                                 values[i:i + BLOCK_ROWS]])
                for i in range(0, len(values), BLOCK_ROWS))

    write_csv(path, "path,strategy,utility\r\n",
              (("%d," + literal(label) + ",%.10g\r\n", blocks(values))
               for label, values in report.utilities.items()))


def write_outperformance_csv(rows, path) -> None:
    """Rows of (iteration, label, count) as `iter,strategy,count` CSV."""
    write_csv(path, "iter,strategy,count\r\n",
              (("%d," + literal(label) + ",%d\r\n", [[(it, count)]])
               for it, label, count in rows))


def write_kde_csv(dd: DiffDensity, path) -> None:
    write_csv(path, "x,density\r\n",
              [("%.10g,%.10g\r\n", [np.column_stack([dd.grid, dd.density])])])


def write_medians_csv(mp: MedianPaths, path) -> None:
    """One row per age; a consumption rate that is not finite is left
    empty."""
    rows = np.column_stack([mp.age, mp.consumption, mp.wealth,
                            mp.consumption_rate])
    write_csv(path, "age,consumption,wealth,consumption_rate\r\n",
              (("%d,%.10g,%.10g,%.10g\r\n", [[row]]) if np.isfinite(row[3])
               else ("%d,%.10g,%.10g,\r\n", [[row[:3]]]) for row in rows))
