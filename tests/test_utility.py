import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference, reference_dict
from superdraw.account import AccountParams, PensionParams
from superdraw.errors import ConfigError
from superdraw.utility import (UtilityParams, bequest_coefficient,
                               bequest_utility, consumption_utility)

P5 = UtilityParams(rho=5.0, phi=0.5)
P2 = UtilityParams(rho=2.0, phi=0.5)


def walk_schedule(c, tpx, params, w0=0.0, R=None):
    """Lifetime utility of the reference's walk (bench/reference.py) when
    it consumes c[t] each year with no pension, no fees and Q = 1, from
    wealth w0 with log-returns R (zero by default)."""
    tpx = [float(x) for x in tpx]
    dq = [0.0] + [a - b for a, b in zip(tpx, tpx[1:])]
    no_fees = AccountParams(admin_fee=0.0, indirect_cost_ratio=0.0,
                            investment_fee=0.0)
    model = reference.Model(
        esg={}, pension={**reference_dict(PensionParams()), "a_max": 0.0},
        account=reference_dict(no_fees),
        rho=params.rho, phi=params.phi, floor=params.floor_epsilon,
        unit=params.wealth_unit, w0=w0, horizon=len(tpx) - 1,
        retirement_age=67, gender="male")
    return reference.walk(lambda t, W, A, R, Q: (c[t], None),
                          [0.0] * len(tpx) if R is None else R,
                          [1.0] * len(tpx), (tpx, dq), model)[0]


def test_params_validation():
    for bad in (dict(phi=1.0), dict(phi=-0.1), dict(rho=1.0), dict(rho=-1.0),
                dict(floor_epsilon=0.0), dict(wealth_unit=0.0)):
        with pytest.raises(ConfigError):
            UtilityParams(**bad)


def test_consumption_utility_unit():
    assert consumption_utility(1.0, P5) == pytest.approx(-0.25)


def test_consumption_utility_fifty_thousand():
    # A bare approx would accept anything within 1e-12 of a value of 1e-20.
    assert consumption_utility(50_000.0, P5) == \
        pytest.approx(-4.0e-20, rel=1e-12, abs=0)


def test_consumption_utility_rho_two():
    assert consumption_utility(2.0, P2) == pytest.approx(-0.5)


def test_bequest_zero_phi():
    p = UtilityParams(rho=5.0, phi=0.0)
    assert bequest_coefficient(p) == 0.0
    assert np.all(bequest_utility(np.array([0.0, 1e6]), p) == 0.0)


def test_bequest_neutral_coefficient_at_half():
    assert bequest_coefficient(P5) == pytest.approx(1.0)
    assert bequest_utility(1.0, P5) == pytest.approx(-0.25)


def test_bequest_hundred_thousand():
    assert bequest_utility(100_000.0, P5) == \
        pytest.approx(-2.5e-21, rel=1e-12, abs=0)


def test_floor_keeps_depletion_finite():
    u = consumption_utility(0.0, P5)
    assert np.isfinite(u)
    # floor 1e-10 with rho 5: (1e-10)^(-4) / (-4) = -2.5e39
    assert u == pytest.approx(-2.5e39)


def test_floor_independence_above_floor():
    a = UtilityParams(rho=5.0, phi=0.5, floor_epsilon=1e-10)
    b = UtilityParams(rho=5.0, phi=0.5, floor_epsilon=1e-6)
    assert consumption_utility(123.0, a) == consumption_utility(123.0, b)


def test_wealth_unit_is_positive_rescaling():
    base = UtilityParams(rho=5.0, phi=0.5)
    unit = UtilityParams(rho=5.0, phi=0.5, wealth_unit=500_000.0)
    c = np.array([20_000.0, 50_000.0, 80_000.0])
    lo, hi = consumption_utility(c, base), consumption_utility(c, unit)
    # Same ordering, constant positive ratio.
    assert np.all(np.diff(lo) > 0) and np.all(np.diff(hi) > 0)
    ratio = hi / lo
    assert np.allclose(ratio, 500_000.0 ** 4)


def test_lifetime_pure_consumption_sum():
    p = UtilityParams(rho=5.0, phi=0.0)
    c = [10.0, 20.0, 30.0]
    assert walk_schedule(c, [1.0, 1.0, 1.0], p) == pytest.approx(
        sum(consumption_utility(x, p) for x in c))


def test_lifetime_geometric_survival_closed_form():
    p = UtilityParams(rho=5.0, phi=0.0)
    surv = 0.8
    T = 5
    tpx = surv ** np.arange(T + 1)
    want = consumption_utility(7.0, p) * tpx.sum()
    assert walk_schedule([7.0] * (T + 1), tpx, p) == pytest.approx(want)


def test_lifetime_bequest_weighting():
    # Wealth 3 at t = 0, less the 1 consumed, is 2 at t = 1.
    c = [1.0, 1.0]
    got = walk_schedule(c, [1.0, 0.6], P5, w0=3.0)
    want = (1.0 * consumption_utility(1.0, P5)
            + 0.6 * consumption_utility(1.0, P5)
            + 0.4 * bequest_utility(2.0, P5))
    assert got == pytest.approx(want)
    # dq[0] = 0: initial wealth never counts as a bequest.
    R = [0.0, np.log(2.0 / (1e9 - 1.0))]
    assert walk_schedule(c, [1.0, 0.6], P5, w0=1e9, R=R) == \
        pytest.approx(want)


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-6, 1e7), st.floats(min_value=1.1, max_value=8.0))
def test_utilities_negative_for_rho_above_one(c, rho):
    p = UtilityParams(rho=rho, phi=0.5)
    assert consumption_utility(c, p) < 0.0
    assert bequest_utility(c, p) < 0.0


@settings(max_examples=100, deadline=None)
@given(st.floats(1.0, 1e6), st.floats(1.0, 1e6))
def test_consumption_utility_monotone(c1, c2):
    lo, hi = sorted((c1, c2))
    assert consumption_utility(hi, P5) >= consumption_utility(lo, P5)


def test_tensor_mode_gradient():
    _, slope = consumption_utility(np.array([2.0]), P5, slope=True)
    # d/dc [c^-4 / -4] = c^-5
    assert slope[0] == pytest.approx(2.0 ** -5)


def test_crra_slope_matches_fd_above_and_below_floor():
    # Above the floor u'(c) = (c / unit) ** -rho / unit; below it the
    # clamp makes u flat; at the floor itself nothing passes.
    params = UtilityParams(rho=5.0, phi=0.5, wealth_unit=500_000.0,
                           floor_epsilon=1e-3)
    c0 = np.array([20_000.0, 300_000.0, 1e-4, 1e-3])
    for fn in (consumption_utility, bequest_utility):
        value, slope = fn(c0, params, slope=True)
        assert np.array_equal(value, fn(c0, params))
        h = c0[:2] * 1e-6
        fd = (fn(c0[:2] + h, params) - fn(c0[:2] - h, params)) / (2.0 * h)
        assert np.allclose(slope[:2], fd, rtol=1e-6)
        assert np.allclose(slope[:2], (c0[:2] / 500_000.0) ** -5.0
                           / 500_000.0, rtol=1e-12)
        assert np.all(slope[2:] == 0.0)
