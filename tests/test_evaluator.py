"""Comparison harness, density estimation, and median-path summaries."""

import csv

import numpy as np
import pytest

from superdraw import evaluator
from superdraw.baselines import StrategyKind, strategy_consumer
from superdraw.errors import ConfigError
from superdraw.evaluator import (POLICY_LABEL, EvalReport, compare, kde,
                                 median_paths, outperformance_curve,
                                 silverman_bandwidth, utility_diff_density,
                                 write_kde_csv, write_medians_csv,
                                 write_outperformance_csv, write_utilities_csv)
from superdraw.policy import he_init
from superdraw.trainer import PathRecords

from test_trainer import small_config, synthetic_panel


def test_self_comparison_is_exactly_zero():
    cfg = small_config(horizon=8)
    panel = synthetic_panel(20, cfg.horizon, seed=2)
    kind = StrategyKind.RULE_OF_THUMB
    report = compare(None, [kind], panel, cfg,
                     policy_consume=strategy_consumer(kind, cfg))
    assert report.outperformance[kind.value] == 0
    assert np.all(report.diffs[kind.value] == 0.0)
    assert report.m_test == 20


def test_compare_counts_and_shapes():
    cfg = small_config(horizon=8)
    panel = synthetic_panel(30, cfg.horizon, seed=4)
    params = he_init(seed=1)
    report = compare(params, list(StrategyKind), panel, cfg, record=True)
    assert set(report.utilities) == {POLICY_LABEL} | \
        {k.value for k in StrategyKind}
    for k in StrategyKind:
        assert 0 <= report.outperformance[k.value] <= 30
        assert report.diffs[k.value].shape == (30,)
        want = np.sum(report.diffs[k.value] > 0)
        assert report.outperformance[k.value] == want
    assert report.records[POLICY_LABEL].wealth.shape == (30, 9)


def test_compare_rejects_horizon_mismatch():
    cfg = small_config(horizon=8)
    panel = synthetic_panel(5, 6, seed=4)
    with pytest.raises(ConfigError):
        compare(he_init(seed=1), [StrategyKind.MODEST], panel, cfg)


def test_outperformance_curve_orders_and_counts():
    cfg = small_config(horizon=8)
    panel = synthetic_panel(40, cfg.horizon, seed=6)
    snaps = [(0, he_init(seed=3)), (10, he_init(seed=9))]
    kinds = [StrategyKind.LUXURY, StrategyKind.MODEST]
    curve = cfg.curve()
    base = compare(snaps[0][1], kinds, panel, cfg, curve=curve).utilities
    rows = outperformance_curve(snaps, kinds, panel, cfg, curve, base)
    assert [(r[0], r[1]) for r in rows] == [
        (0, "luxury"), (0, "modest"), (10, "luxury"), (10, "modest")]
    assert all(0 <= r[2] <= 40 for r in rows)
    # an untrained policy should not sweep every strategy on every path
    first = [r[2] for r in rows if r[0] == 0]
    assert min(first) < 40
    with pytest.raises(ConfigError):
        outperformance_curve(list(reversed(snaps)), [StrategyKind.MODEST],
                             panel, cfg, curve, base)


def test_outperformance_curve_reuses_baseline_utilities(monkeypatch):
    cfg = small_config(horizon=8)
    panel = synthetic_panel(40, cfg.horizon, seed=6)
    snaps = [(0, he_init(seed=3)), (10, he_init(seed=9))]
    kinds = [StrategyKind.LUXURY, StrategyKind.MODEST]
    curve = cfg.curve()
    # Each snapshot's counts as `compare` reports them for that policy.
    want = [(it, k.value, compare(params, kinds, panel, cfg, curve=curve)
             .outperformance[k.value]) for it, params in snaps for k in kinds]
    report = compare(snaps[-1][1], kinds, panel, cfg, curve=curve)
    rolled = []
    real = evaluator.rollout_strategy

    def counted(kind, *args, **kwargs):
        rolled.append(kind)
        return real(kind, *args, **kwargs)

    monkeypatch.setattr(evaluator, "rollout_strategy", counted)
    assert outperformance_curve(snaps, kinds, panel, cfg, curve,
                                report.utilities) == want
    assert rolled == []


# ---------------------------------------------------------------- densities


def test_kde_standard_normal_at_zero():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(100_000)
    _, density = kde(x, grid=np.array([0.0]))
    assert density[0] == pytest.approx(0.3989, abs=0.01)


def test_kde_integrates_to_one():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(5_000)
    grid, density = kde(x)
    assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=0.02)


def test_kde_degenerate_sample_is_spike_at_value():
    grid, density = kde(np.full(50, 3.25))
    assert grid[np.argmax(density)] == pytest.approx(3.25, abs=1e-6)
    assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=0.02)


def test_kde_requires_two_samples():
    with pytest.raises(ConfigError):
        kde(np.array([1.0]))


def test_silverman_uses_smaller_spread():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(1_000)
    bw = silverman_bandwidth(x)
    sd = np.std(x, ddof=1)
    iqr = np.subtract(*np.percentile(x, [75, 25])) / 1.34
    assert bw == pytest.approx(0.9 * min(sd, iqr) * 1_000 ** -0.2)


def test_utility_diff_density_splits_nonpositive():
    diffs = np.array([10.0, 100.0, 1_000.0, -5.0, 0.0, 2.0])
    dd = utility_diff_density(diffs)
    assert not dd.empty
    assert dd.n_nonpositive == 2
    # grid lives on the log10 axis of the positive part
    assert dd.grid.min() < np.log10(2.0) + 0.5
    assert dd.grid.max() > 3.0 - 0.5


def test_utility_diff_density_empty_flag():
    dd = utility_diff_density(np.array([-1.0, 0.0, -3.5]))
    assert dd.empty
    assert dd.n_nonpositive == 3
    assert dd.grid.size == 0


# ------------------------------------------------------------------- medians


def test_median_paths_elementwise():
    rec = PathRecords(
        consumption=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        wealth=np.array([[10.0, 0.0], [30.0, 0.0], [50.0, 0.0]]),
        pension=np.zeros((3, 2)))
    mp = median_paths(rec, retirement_age=67)
    assert np.array_equal(mp.age, [67, 68])
    assert np.array_equal(mp.consumption, [3.0, 4.0])
    assert np.array_equal(mp.wealth, [30.0, 0.0])
    assert mp.consumption_rate[0] == pytest.approx(0.1)
    assert np.isnan(mp.consumption_rate[1])


def test_median_paths_empty_rejected():
    rec = PathRecords(consumption=np.empty((0, 0)), wealth=np.empty((0, 0)),
                      pension=np.empty((0, 0)))
    with pytest.raises(ConfigError):
        median_paths(rec, retirement_age=67)


# ------------------------------------------------------------------- exports


def test_csv_exports_roundtrip(tmp_path):
    cfg = small_config(horizon=5)
    panel = synthetic_panel(8, cfg.horizon, seed=8)
    params = he_init(seed=5)
    report = compare(params, [StrategyKind.MODEST], panel, cfg, record=True)

    upath = tmp_path / "utilities.csv"
    write_utilities_csv(report, upath)
    with open(upath) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["path", "strategy", "utility"]
    assert len(rows) == 1 + 2 * 8

    opath = tmp_path / "outperformance.csv"
    write_outperformance_csv([(0, "modest", 3)], opath)
    with open(opath) as fh:
        rows = list(csv.reader(fh))
    assert rows == [["iter", "strategy", "count"], ["0", "modest", "3"]]

    dd = utility_diff_density(np.abs(report.diffs["modest"]) + 1.0)
    kpath = tmp_path / "kde_modest.csv"
    write_kde_csv(dd, kpath)
    with open(kpath) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "density"]
    assert len(rows) == 1 + dd.grid.size

    mp = median_paths(report.records["modest"], cfg.retirement_age)
    mpath = tmp_path / "medians_base.csv"
    write_medians_csv(mp, mpath)
    with open(mpath) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["age", "consumption", "wealth", "consumption_rate"]
    assert len(rows) == 1 + cfg.horizon + 1


def _utilities_csv_oracle(report, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path", "strategy", "utility"])
        for label, values in report.utilities.items():
            for m, u in enumerate(values):
                w.writerow([m, label, f"{u:.10g}"])


@pytest.mark.parametrize("m", [1, 3, 700])
def test_utilities_csv_matches_csv_writer_bytes(tmp_path, m):
    crafted = np.array([-0.0, 1e-05, 1.5e+17, 1.0, 123456789012.0, -2.5,
                        -1e-05, -1.5e+17, -123456789012.0, -0.3333])
    rng = np.random.default_rng(m)
    labels = [POLICY_LABEL, "modest", "four_percent", "odd, \"quoted\" 5%"]
    utilities = {}
    for k, label in enumerate(labels):
        vals = -rng.lognormal(size=m) * 10.0 ** (3 * k)
        idx = rng.permutation(m)[:crafted.size]
        vals[idx] = crafted[:idx.size]
        utilities[label] = vals
    report = EvalReport(utilities=utilities, outperformance={}, diffs={},
                        config=small_config())
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_utilities_csv(report, got)
    _utilities_csv_oracle(report, want)
    assert got.read_bytes() == want.read_bytes()
