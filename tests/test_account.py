import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import asset_test_cutoff_oracle, pension_oracle
from superdraw import esg
from superdraw.account import (AccountParams, PensionParams, age_pension,
                               fees, transition_balance)
from superdraw.errors import ConfigError

P = PensionParams()
ACC = AccountParams()


# ------------------------------------------------------------------ deflator


def _deflated_panel(M, T, params=esg.DEFAULT_PARAMS, q0=0.02):
    # The deflator Q is simulated with the panel, from the panel's own q.
    init = esg.EconState(q=q0, S=0.01, e=0.05, n=0.05, b=0.03, o=0.02, h=0.04)
    return esg.simulate(params, init, M, T, seed=3)


def test_deflator_zero_inflation():
    # Inflation pinned at zero: sigma_q far below one ulp of 1.
    params = dataclasses.replace(esg.DEFAULT_PARAMS, mu_q=0.0, phi_q=0.0,
                                 sigma_q=1e-300)
    panel = _deflated_panel(2, 2, params, q0=0.0)
    assert np.all(panel.Q == 1.0)


def test_deflator_base_year_is_one():
    assert np.all(_deflated_panel(3, 2, q0=0.5).Q[:, 0] == 1.0)


def test_deflator_single_step():
    panel = _deflated_panel(3, 1)
    assert panel.Q[:, 1] == pytest.approx(np.exp(panel.q[:, 1]))


def test_deflator_telescopes():
    panel = _deflated_panel(2, 3)
    for t in range(1, 4):
        assert panel.Q[:, t] / panel.Q[:, t - 1] == \
            pytest.approx(np.exp(panel.q[:, t]))


def test_deflator_path_matches_scalar():
    panel = _deflated_panel(3, 5)
    q, Q = panel.q, panel.Q
    assert np.all(Q[:, 0] == 1.0)
    for m in range(3):
        for t in range(6):
            assert Q[m, t] == pytest.approx(np.exp(np.sum(q[m, 1:t + 1])))


# ------------------------------------------------------------------- pension


def test_full_pension_at_zero_wealth():
    assert age_pension(0.0, 1.0, P) == pytest.approx(24_619.0)


def test_pension_at_asset_free_area_limited_by_income_test():
    # At the asset free area the asset test still pays in full, but deeming
    # already bites: deemed = 129.50 + 4,757.625, reduction 175.5625.
    assert age_pension(263_250.0, 1.0, P) == pytest.approx(24_443.4375)


def test_pension_at_half_million_asset_tested():
    assert age_pension(500_000.0, 1.0, P) == pytest.approx(6_152.50)


def test_pension_cutoff_value():
    cut = asset_test_cutoff_oracle(P)
    assert cut == pytest.approx(578_878.205, abs=1e-3)
    assert age_pension(cut + 1.0, 1.0, P) == 0.0
    assert age_pension(cut - 1.0, 1.0, P) > 0.0


def test_pension_scales_with_deflator():
    assert age_pension(0.0, 1.5, P) == pytest.approx(1.5 * 24_619.0)
    cut = asset_test_cutoff_oracle(P)
    assert age_pension(2.0 * (cut + 1.0), 2.0, P) == 0.0


def test_pension_rejects_negative_wealth():
    with pytest.raises(ConfigError):
        age_pension(-1.0, 1.0, P)


def test_pension_vectorized_matches_scalar():
    W = np.array([0.0, 100_000.0, 300_000.0, 600_000.0])
    got = age_pension(W, 1.0, P)
    assert got.shape == W.shape
    for w, a in zip(W, got):
        assert a == age_pension(float(w), 1.0, P)


def test_pension_matches_branch_oracle_exactly():
    rng = np.random.default_rng(42)
    W = rng.uniform(0.0, 1_000_000.0, size=100_000)
    Q = rng.uniform(0.5, 3.0, size=100_000)
    got = age_pension(W, Q, P)
    want = np.array([pension_oracle(w, q, P) for w, q in zip(W, Q)])
    assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(st.floats(0, 2e6), st.floats(0, 2e6), st.floats(0.2, 5.0))
def test_pension_monotone_in_wealth(w1, w2, q):
    lo, hi = sorted((w1, w2))
    assert age_pension(hi, q, P) <= age_pension(lo, q, P) + 1e-9


@settings(max_examples=200, deadline=None)
@given(st.floats(0, 2e6), st.floats(0.1, 10.0))
def test_pension_inflation_homogeneity(w, lam):
    base = age_pension(w, 1.0, P)
    scaled = age_pension(lam * w, lam, P)
    assert scaled == pytest.approx(lam * base, rel=1e-12)


def test_pension_params_validation():
    with pytest.raises(ConfigError):
        PensionParams(r1=0.03, r2=0.02)
    for n in (0, -26):
        with pytest.raises(ConfigError, match="fortnights_per_year"):
            PensionParams(fortnights_per_year=n)


# --------------------------------------------------------------------- fees


def test_fees_half_million():
    assert fees(500_000.0, 1.0, ACC) == pytest.approx(5_550.0)


def test_fees_admin_only():
    assert fees(0.0, 1.0, ACC) == pytest.approx(50.0)


def test_fees_indexed_admin():
    assert fees(100_000.0, 2.0, ACC) == pytest.approx(1_200.0)


def test_account_params_validation():
    with pytest.raises(ConfigError):
        AccountParams(omega=1.5)


# ------------------------------------------------------------------- wealth


def test_wealth_step_plain():
    W = transition_balance(500_000.0, A=0.0, C=50_000.0, fee=0.0, R=0.0)
    assert W == pytest.approx(450_000.0)


def test_wealth_step_depletion_floor():
    Q = 1.3
    A = 24_619.0 * Q
    W = transition_balance(100.0, A=A, C=100.0 + A, fee=65.0, R=0.1)
    assert W == 0.0


def test_wealth_step_worked_example():
    W = transition_balance(500_000.0, A=6_152.50, C=51_917.0, fee=5_550.0,
                           R=0.0)
    assert W == pytest.approx(448_685.50)


def test_wealth_never_negative_random():
    rng = np.random.default_rng(1)
    for _ in range(500):
        W = rng.uniform(0, 1e6)
        A = rng.uniform(0, 3e4)
        C = rng.uniform(0, W + A)
        fee = rng.uniform(0, 2e4)
        R = rng.normal(0, 0.3)
        assert transition_balance(W, A, C, fee, R) >= 0.0


# ------------------------------------------------------------ differentiable


def test_pension_gradient_branches():
    def slope(w):
        return age_pension(np.array([w]), 1.0, P, slope=True)[1][0]

    # In the tapered asset-test region the derivative is -26 * tau_a.
    assert slope(500_000.0) == pytest.approx(-0.078)
    # In the asset free area with deeming binding, d/dW = -tau_i * r2.
    assert slope(255_000.0) == pytest.approx(-0.5 * 0.0225)
    # Past the cutoff the pension is flat at zero.
    assert slope(700_000.0) == 0.0


def test_transition_balance_gradient_through_floor():
    W = np.array([100.0, 10_000.0])
    out, s = transition_balance(W, 0.0, np.array([500.0, 500.0]), 0.0,
                                np.array([0.1, 0.1]), slope=True)
    assert out[0] == 0.0
    assert s[0] == 0.0                            # clamped branch
    assert s[1] == pytest.approx(np.exp(0.1))


def test_transition_balance_same_code_both_modes():
    args = (90_000.0, 10_000.0, 30_000.0, 900.0, 0.05)
    plain = transition_balance(*args)
    value, _ = transition_balance(*args, slope=True)
    assert value == plain


def _slope_and_fd(f, w, h=1.0):
    """Returned slope of elementwise f at w, and its central difference."""
    w = np.array(w, dtype=float)
    _, slope = f(w, slope=True)
    fd = (f(w + h) - f(w - h)) / (2.0 * h)
    return slope, fd


@pytest.mark.parametrize("q", [1.0, 1.3])
def test_pension_slope_matches_fd_in_every_regime(q):
    # Full (below and above w_i), income-tapered, asset-tapered, nil.
    w = q * np.array([20_000.0, 100_000.0, 255_000.0, 500_000.0, 700_000.0])
    got, fd = _slope_and_fd(lambda x, **kw: age_pension(x, q, P, **kw), w)
    assert np.allclose(got, [0.0, 0.0, -0.5 * 0.0225, -0.078, 0.0],
                       rtol=1e-12, atol=0.0)
    assert np.allclose(got, fd, rtol=1e-6, atol=1e-9)


def test_pension_slope_on_both_sides_of_deeming_threshold():
    # Without an income free area deeming bites from the first dollar: the
    # slope is -tau_i * r1 below w_i, -tau_i * r2 above, and 0 at the tie.
    p = PensionParams(income_free=0.0)
    q = 1.3
    w = q * p.w_i + np.array([-1_000.0, 1_000.0])
    got, fd = _slope_and_fd(lambda x, **kw: age_pension(x, q, p, **kw), w)
    assert np.allclose(got, [-0.5 * 0.0025, -0.5 * 0.0225], rtol=1e-12)
    assert np.allclose(got, fd, rtol=1e-6)
    _, tie = age_pension(np.array([q * p.w_i]), q, p, slope=True)
    assert tie[0] == 0.0


def test_fee_and_transition_slopes_match_fd():
    # W feeds the transition directly and through the fee, whose slope is
    # the constant fee rate; A, C and the fee enter with slope +-e^R above
    # the floor and 0 on it.
    R = np.array([0.1, -0.2, 0.05])
    Q = 1.2
    W0 = np.array([90_000.0, 10_000.0, 500.0])
    A0 = np.array([10_000.0, 0.0, 0.0])
    C0 = np.array([30_000.0, 2_000.0, 0.0])
    C0[2] = W0[2] - fees(W0[2], Q, ACC)   # exactly on the floor

    def step(W, A, C):
        return transition_balance(W, A, C, fees(W, Q, ACC), R)

    out, s = transition_balance(W0, A0, C0, fees(W0, Q, ACC), R, slope=True)
    assert out[2] == 0.0
    slopes = ((1.0 - ACC.fee_rate) * s, s, -s)    # d/dW, d/dA, d/dC
    grow = np.exp(R) * [1.0, 1.0, 0.0]
    assert np.allclose(slopes[0], (1.0 - ACC.fee_rate) * grow, rtol=1e-12)
    assert np.allclose(slopes[1], grow, rtol=1e-12)
    assert np.allclose(slopes[2], -grow, rtol=1e-12)
    h = 1.0
    for i, x0 in enumerate((W0, A0, C0)):
        args_up = [W0, A0, C0]
        args_dn = [W0, A0, C0]
        args_up[i], args_dn[i] = x0 + h, x0 - h
        fd = (step(*args_up) - step(*args_dn)) / (2.0 * h)
        got = slopes[i]
        assert np.allclose(got[:2], fd[:2], rtol=1e-6)
