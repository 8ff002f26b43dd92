"""Comparison harness, density estimation, and median-path summaries."""

import csv

import numpy as np
import pytest

from oracles import kde_oracle
from superdraw import evaluator
from superdraw.baselines import (StrategyKind, deterministic_consumption,
                                 rollout_strategy)
from superdraw.errors import ConfigError
from superdraw.evaluator import (POLICY_LABEL, EvalReport, compare, kde,
                                 median_paths, outperformance_curve,
                                 silverman_bandwidth, utility_diff_density,
                                 write_kde_csv, write_medians_csv,
                                 write_outperformance_csv, write_utilities_csv)
from superdraw.policy import he_init
from superdraw.trainer import PathRecords

from test_trainer import small_config, synthetic_panel


def test_self_comparison_is_exactly_zero(monkeypatch):
    cfg = small_config(horizon=8)
    panel = synthetic_panel(20, cfg.horizon, seed=2)
    kind = StrategyKind.RULE_OF_THUMB
    # The "policy" rolled out is the strategy itself.
    monkeypatch.setattr(
        evaluator, "network_consumer",
        lambda params, norm: lambda t, W, A, R, Q: deterministic_consumption(
            kind, cfg.retirement_age + t, W, A, Q, cfg.w0))
    report = compare(None, [kind], panel, cfg, cfg.curve())
    assert report.outperformance[kind.value] == 0
    assert np.all(report.utilities[POLICY_LABEL]
                  - report.utilities[kind.value] == 0.0)
    assert report.m_test == 20


def test_compare_counts_and_shapes():
    cfg = small_config(horizon=8)
    panel = synthetic_panel(30, cfg.horizon, seed=4)
    params = he_init(seed=1)
    report = compare(params, list(StrategyKind), panel, cfg, cfg.curve())
    assert set(report.utilities) == {POLICY_LABEL} | \
        {k.value for k in StrategyKind}
    assert set(report.medians) == set(report.utilities)
    assert set(report.densities) == {k.value for k in StrategyKind}
    for k in StrategyKind:
        diffs = report.utilities[POLICY_LABEL] - report.utilities[k.value]
        assert 0 <= report.outperformance[k.value] <= 30
        assert diffs.shape == (30,)
        want = np.sum(diffs > 0)
        assert report.outperformance[k.value] == want
        assert report.densities[k.value].grid.size == \
            (256 if want >= 2 else 0)
    assert report.medians[POLICY_LABEL].wealth.shape == (9,)


def test_compare_reduces_each_rollout_like_its_own_records():
    # Each label's medians and gap density are those of its own recorded
    # rollout, array for array.
    cfg = small_config(horizon=8)
    panel = synthetic_panel(50, cfg.horizon, seed=11)
    params = he_init(seed=2)
    curve = cfg.curve()
    report = compare(params, list(StrategyKind), panel, cfg, curve)
    u_pol, rec = evaluator.evaluate_policy(params, panel, curve, cfg,
                                           record=True)
    rolled = {POLICY_LABEL: (u_pol, rec)}
    for k in StrategyKind:
        rolled[k.value] = rollout_strategy(k, panel, curve, cfg, record=True)
    assert list(report.medians) == list(rolled)
    for label, (u, rec) in rolled.items():
        assert np.array_equal(report.utilities[label], u)
        want = median_paths(rec, cfg.retirement_age)
        got = report.medians[label]
        for name in ("age", "consumption", "wealth", "consumption_rate"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))
        if label == POLICY_LABEL:
            continue
        want = utility_diff_density(u_pol - u)
        got = report.densities[label]
        assert np.array_equal(got.grid, want.grid)
        assert np.array_equal(got.density, want.density)
    # the panel is drawn so that some gaps are positive and some are not
    assert any(d.grid.size for d in report.densities.values())
    assert any(wins < 50 for wins in report.outperformance.values())


def test_compare_rejects_horizon_mismatch():
    cfg = small_config(horizon=8)
    panel = synthetic_panel(5, 6, seed=4)
    with pytest.raises(ConfigError):
        compare(he_init(seed=1), [StrategyKind.MODEST], panel, cfg,
                cfg.curve())


def test_outperformance_curve_orders_and_counts():
    cfg = small_config(horizon=8)
    panel = synthetic_panel(40, cfg.horizon, seed=6)
    snaps = [(0, he_init(seed=3)), (10, he_init(seed=9))]
    kinds = [StrategyKind.LUXURY, StrategyKind.MODEST]
    curve = cfg.curve()
    base = compare(snaps[0][1], kinds, panel, cfg, curve=curve).utilities
    rows = outperformance_curve(snaps, kinds, panel, cfg, curve, base,
                                snaps[0][1])
    assert [(r[0], r[1]) for r in rows] == [
        (0, "luxury"), (0, "modest"), (10, "luxury"), (10, "modest")]
    assert all(0 <= r[2] <= 40 for r in rows)
    # an untrained policy should not sweep every strategy on every path
    first = [r[2] for r in rows if r[0] == 0]
    assert min(first) < 40
    with pytest.raises(ConfigError):
        outperformance_curve(list(reversed(snaps)), [StrategyKind.MODEST],
                             panel, cfg, curve, base, snaps[0][1])


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
                                report.utilities, snaps[-1][1]) == want
    assert rolled == []


# ---------------------------------------------------------------- densities


def test_kde_standard_normal_at_zero():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(100_000)
    grid, density = kde(x)
    assert np.interp(0.0, grid, density) == pytest.approx(0.3989, abs=0.01)


def test_kde_integrates_to_one():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(5_000)
    grid, density = kde(x)
    assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=0.02)


def test_kde_degenerate_sample_is_spike_at_value():
    grid, density = kde(np.full(50, 3.25))
    assert grid[np.argmax(density)] == pytest.approx(3.25, abs=1e-6)
    assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("block_rows", [1, 15, 16, 17, 256])
def test_kde_blocks_equal_one_kernel_matrix(block_rows, monkeypatch):
    # Blocks of 1, 15, 16, 17 and 256 rows split the 256-point grid
    # evenly, with a short last block, or not at all.
    monkeypatch.setattr(evaluator, "KDE_BLOCK_ROWS", block_rows)
    x = np.random.default_rng(4).standard_normal(3_000) * 2.0 + 1.0
    grid, density = kde(x)
    bw = evaluator.silverman_bandwidth(x)
    want = np.linspace(x.min() - 3.0 * bw, x.max() + 3.0 * bw, 256)
    assert grid.tobytes() == want.tobytes()
    assert density.tobytes() == kde_oracle(x, want, bw).tobytes()


def test_kde_equals_the_direct_kernel_formula():
    # log10 gaps spread over decades, at the size of one held-out label's
    # wins; the blocks build exp(-0.5 z z) in place.
    x = np.log10(np.random.default_rng(6).lognormal(0.0, 8.0, 9_000))
    grid, density = kde(x)
    bw = evaluator.silverman_bandwidth(x)
    z = (grid[:, None] - x[None, :]) / bw
    want = np.exp(-0.5 * z * z).sum(axis=1) / (len(x) * bw
                                               * np.sqrt(2.0 * np.pi))
    assert np.array_equal(density, want)


def test_kde_blocks_equal_one_kernel_matrix_on_given_grid_and_spike():
    x = np.random.default_rng(5).standard_normal(500)
    grid, density = kde(x)
    want = kde_oracle(x, grid, evaluator.silverman_bandwidth(x))
    assert density.tobytes() == want.tobytes()
    spike = np.full(50, 3.25)
    grid, density = kde(spike)
    assert density.tobytes() == kde_oracle(spike, grid, 3.25 * 1e-9).tobytes()


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
    assert dd.grid.size == 256
    assert np.array_equal(dd.grid, kde(np.log10(diffs[diffs > 0]))[0])
    # grid lives on the log10 axis of the positive part
    assert dd.grid.min() < np.log10(2.0) + 0.5
    assert dd.grid.max() > 3.0 - 0.5


def test_utility_diff_density_empty_flag():
    dd = utility_diff_density(np.array([-1.0, 0.0, -3.5]))
    assert dd.grid.size == 0
    assert dd.density.size == 0


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


@pytest.mark.parametrize("paths", [1, 2, 40, 41])
def test_median_paths_equal_on_c_order_and_year_major_records(paths):
    # Even and odd path counts: the median averages two middle values or
    # takes one, along either layout, and is `np.median`'s to the bit.
    rng = np.random.default_rng(paths)
    fields = [rng.lognormal(10.0, 1.0, (paths, 9)) for _ in range(3)]
    fields[1][:, -2:] = 0.0                 # a zero median wealth -> NaN
    fields[1][: paths // 2 + 1, 3] = 0.0    # zero wealth up to the middle
    fields[0][:, 4:6] = np.round(fields[0][:, 4:6], -5)     # ties
    fields[0][:, 6] = fields[0][0, 6]       # all tied
    c_order = PathRecords(*fields)
    year_major = PathRecords(*(np.ascontiguousarray(a.T).T for a in fields))
    assert year_major.wealth.T.flags.c_contiguous
    want, got = (median_paths(r, retirement_age=67)
                 for r in (c_order, year_major))
    for name in ("age", "consumption", "wealth", "consumption_rate"):
        assert np.array_equal(getattr(want, name), getattr(got, name),
                              equal_nan=True)
    for name, field in (("consumption", 0), ("wealth", 1)):
        oracle = np.median(fields[field], axis=0)
        assert getattr(got, name).tobytes() == oracle.tobytes(), name


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
    report = compare(params, [StrategyKind.MODEST], panel, cfg, cfg.curve())

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

    diffs = report.utilities[POLICY_LABEL] - report.utilities["modest"]
    dd = utility_diff_density(np.abs(diffs) + 1.0)
    kpath = tmp_path / "kde_modest.csv"
    write_kde_csv(dd, kpath)
    with open(kpath) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "density"]
    assert len(rows) == 1 + dd.grid.size

    mp = report.medians["modest"]
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
    report = EvalReport(utilities=utilities, outperformance={}, medians={},
                        densities={})
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_utilities_csv(report, got)
    _utilities_csv_oracle(report, want)
    assert got.read_bytes() == want.read_bytes()
