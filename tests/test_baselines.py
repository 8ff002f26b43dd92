"""Deterministic strategy rules and their rollouts."""

import numpy as np
import pytest

from oracles import straight_line_objective
from superdraw.baselines import (REAL_TARGETS, StrategyKind,
                                 deterministic_consumption,
                                 minimum_drawdown_rate, rollout_strategy,
                                 rule_of_thumb_rate)
from superdraw.errors import ConfigError
from superdraw.esg import ScenarioPanel

from test_trainer import small_config, synthetic_panel


def flat_panel(M, T):
    """Zero returns, zero inflation."""
    cols = {n: np.zeros((M, T + 1))
            for n in ("q", "s", "e", "n", "b", "o", "h")}
    return ScenarioPanel(M=M, T=T, R=np.zeros((M, T + 1)),
                         Q=np.ones((M, T + 1)), factors=cols)

# ----------------------------------------------------------------- the rules


def test_minimum_rate_bands():
    expect = {64: 0.04, 65: 0.05, 74: 0.05, 75: 0.06, 79: 0.06, 80: 0.07,
              84: 0.07, 85: 0.09, 89: 0.09, 90: 0.11, 94: 0.11, 95: 0.14,
              107: 0.14}
    for age, rate in expect.items():
        assert minimum_drawdown_rate(age) == rate


def test_minimum_example_age_67():
    c = deterministic_consumption(StrategyKind.MINIMUM, 67, 400_000.0, 0.0,
                                  1.0, w0=500_000.0)
    assert c == 20_000.0


def test_rule_of_thumb_rates():
    assert rule_of_thumb_rate(72, 400_000.0) == pytest.approx(0.09)
    assert rule_of_thumb_rate(72, 600_000.0) == pytest.approx(0.07)
    assert rule_of_thumb_rate(72, 100_000.0) == pytest.approx(0.07)
    # band bounds are inclusive
    assert rule_of_thumb_rate(80, 250_000.0) == pytest.approx(0.10)
    assert rule_of_thumb_rate(80, 500_000.0) == pytest.approx(0.10)
    assert rule_of_thumb_rate(80, 500_000.01) == pytest.approx(0.08)
    # triple digits: first digit is 1
    assert rule_of_thumb_rate(101, 600_000.0) == pytest.approx(0.01)


def test_rule_of_thumb_band_uses_real_wealth():
    # Nominal 600k at deflator 2.0 is real 300k: inside the band.
    c = deterministic_consumption(StrategyKind.RULE_OF_THUMB, 72, 600_000.0,
                                  0.0, 2.0, w0=500_000.0)
    assert c == pytest.approx(0.09 * 600_000.0)


def test_four_percent_is_indexed_initial_fraction():
    c = deterministic_consumption(StrategyKind.FOUR_PERCENT, 70, 900_000.0,
                                  1_000.0, 1.5, w0=500_000.0)
    assert c == pytest.approx(0.04 * 500_000.0 * 1.5 + 1_000.0)


def test_target_kinds_include_pension_and_cap():
    q = 1.2
    c = deterministic_consumption(StrategyKind.COMFORTABLE, 70, 800_000.0,
                                  5_000.0, q, w0=500_000.0)
    assert c == pytest.approx(44_183.0 * q)
    # depletion: W + A below the target -> consume everything
    c = deterministic_consumption(StrategyKind.LUXURY, 70, 10_000.0, 8_000.0,
                                  1.0, w0=500_000.0)
    assert c == 18_000.0


def test_rate_kinds_capped_at_available():
    c = deterministic_consumption(StrategyKind.MINIMUM, 96, 1_000.0, 500.0,
                                  1.0, w0=500_000.0)
    assert c <= 1_500.0


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        deterministic_consumption("modest", 70, 1.0, 0.0, 1.0, w0=1.0)


def test_consumption_cap_fuzz():
    rng = np.random.default_rng(0)
    for _ in range(200):
        kind = list(StrategyKind)[rng.integers(6)]
        W = float(rng.uniform(0, 2e6))
        Q = float(np.exp(rng.uniform(-0.2, 1.0)))
        A = float(rng.uniform(0, 30_000))
        age = int(rng.integers(60, 109))
        c = deterministic_consumption(kind, age, W, A, Q, w0=500_000.0)
        assert 0.0 <= c <= W + A + 1e-9


# ------------------------------------------------------------------ rollouts


def test_rollout_matches_straight_line_oracle():
    cfg = small_config(horizon=12)
    curve = cfg.curve()
    panel = synthetic_panel(2, cfg.horizon, seed=13)
    def scalar_rule(kind, q_row):
        def rule(t, W, A):
            Q = float(np.exp(q_row[1:t + 1].sum()))
            return float(deterministic_consumption(
                kind, cfg.retirement_age + t, W, A, Q, cfg.w0))
        return rule

    for kind in (StrategyKind.MINIMUM, StrategyKind.FOUR_PERCENT,
                 StrategyKind.LUXURY):
        for m in range(panel.M):
            total, rec = rollout_strategy(kind, panel.take([m]), curve, cfg,
                                          record=True)
            want = straight_line_objective(
                scalar_rule(kind, panel.q[m]), cfg.w0, cfg.pension,
                cfg.account, cfg.effective_utility(), curve,
                panel.R[m], panel.q[m])
            assert total[0] == pytest.approx(want, rel=1e-12)
            assert rec.consumption[0].shape == (cfg.horizon + 1,)
            assert np.all(rec.wealth[0] >= 0.0)


def test_minimum_wealth_strictly_decreasing_flat_world():
    cfg = small_config(horizon=10)
    curve = cfg.curve()
    panel = flat_panel(1, cfg.horizon)
    _, rec = rollout_strategy(StrategyKind.MINIMUM, panel, curve, cfg,
                              record=True)
    assert np.all(np.diff(rec.wealth[0]) < 0.0)


def test_four_percent_real_component_constant():
    cfg = small_config(horizon=8)
    curve = cfg.curve()
    panel = synthetic_panel(1, cfg.horizon, seed=41, r_scale=0.0)
    _, rec = rollout_strategy(StrategyKind.FOUR_PERCENT, panel, curve, cfg,
                              record=True)
    c_real, w_real = rec.consumption[0], rec.wealth[0]
    pension_real = c_real - 0.04 * cfg.w0
    # wealth never depletes here, so the wealth-funded slice is exactly
    # a real 20k per year on a 500k balance
    assert np.all(w_real > 0.0)
    assert np.all(pension_real >= -1e-9)


def test_high_wealth_loses_pension():
    cfg = small_config(horizon=5)
    curve = cfg.curve()
    panel = flat_panel(1, cfg.horizon)
    panel.R[:, 1:] = 0.5  # strong growth pushes wealth past the cutoff
    cfg2 = small_config(horizon=5, w0=700_000.0)
    _, rec = rollout_strategy(StrategyKind.FOUR_PERCENT, panel, curve, cfg2,
                              record=True)
    assert np.all(rec.pension[0, 2:] == 0.0)


def test_luxury_depletes_then_runs_on_pension():
    cfg = small_config(horizon=15, w0=200_000.0)
    curve = cfg.curve()
    panel = flat_panel(1, cfg.horizon)
    _, rec = rollout_strategy(StrategyKind.LUXURY, panel, curve, cfg,
                              record=True)
    c_real, w_real = rec.consumption[0], rec.wealth[0]
    assert w_real[-1] == 0.0
    depleted = np.where(w_real == 0.0)[0]
    t0 = depleted[0]
    # after depletion, consumption equals the pension alone
    assert np.allclose(c_real[t0:], rec.pension[0][t0:])
    assert np.all(c_real[t0:] < REAL_TARGETS[StrategyKind.LUXURY])
