import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdraw.account import (AccountParams, PensionParams, age_pension,
                               fees, transition_balance)
from superdraw.policy import (PARAM_FIELDS, fraction_backward, he_init,
                              policy_fraction)
from superdraw.utility import UtilityParams, consumption_utility


def numeric_grad(f, x, h=1e-6):
    """Central finite differences of scalar f at ndarray x."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = f(x)
        flat[i] = keep - h
        dn = f(x)
        flat[i] = keep
        gf[i] = (up - dn) / (2 * h)
    return g


def net_gradients(w, x, seed=None):
    """Weight and input gradients of sum(seed * fraction) at (w, x)."""
    frac, layers = policy_fraction(w, x)
    grads = {n: np.zeros_like(w[n]) for n in PARAM_FIELDS}
    g = np.ones_like(frac) if seed is None else seed
    x_grad = fraction_backward(w, layers, frac, g, grads)
    return frac, grads, x_grad


def test_pow_negative_exponent():
    # The CRRA slope carries the power: at rho = 5, -4 u(x) = x ** -4.
    x = np.array([0.5, 2.0])
    _, slope = consumption_utility(x, UtilityParams(rho=5.0), slope=True)
    assert np.allclose(-4.0 * slope, -4.0 * x ** -5.0)


def test_matmul_matches_fd():
    # Both sides of the network's first product: weights and input block.
    rng = np.random.default_rng(0)
    params = he_init(5, 4, 3, seed=0)
    plain = {n: getattr(params, n) for n in PARAM_FIELDS}
    x0 = rng.normal(size=(4, 6))

    def f_w0(w0):
        return float(policy_fraction({**plain, "w0": w0}, x0)[0].sum())

    def f_x(x):
        return float(policy_fraction(plain, x)[0].sum())

    _, grads, x_grad = net_gradients(plain, x0)
    assert np.allclose(grads["w0"], numeric_grad(f_w0, plain["w0"]),
                       atol=1e-6)
    assert np.allclose(x_grad, numeric_grad(f_x, x0), atol=1e-6)


def test_maximum_strict_winner_and_tie():
    # The CRRA floor max(x, eps): only x strictly above eps passes slope.
    params = UtilityParams(rho=2.0, floor_epsilon=1.0)
    x = np.array([1.0, 4.0, 0.5])
    _, slope = consumption_utility(x, params, slope=True)
    assert np.allclose(slope, [0.0, 1.0 / 16.0, 0.0])  # tie gets nothing


def test_minimum_strict_winner_and_tie():
    # The pension's min(asset test, income test). With these rates both
    # tests pay 1000 - 0.5 W at tau_a = 0.5; a smaller or larger asset taper
    # makes the income or the asset test the strict winner.
    def slope(tau_a):
        p = PensionParams(a_max=1_000.0, w_a=0.0, tau_a=tau_a,
                          fortnights_per_year=1, income_free=0.0, w_i=0.0,
                          r1=0.0, r2=1.0, tau_i=0.5)
        return age_pension(np.array([100.0]), 1.0, p, slope=True)[1][0]

    assert slope(0.25) == -0.5
    assert slope(1.0) == -1.0
    assert slope(0.5) == 0.0


def test_relu_zero_subgradient_at_kink():
    # First-layer pre-activations -1, 0, 2 in a 3-1-1-1 network.
    p = {"w0": np.zeros((3, 4)), "b0": np.array([[-1.0], [0.0], [2.0]]),
         "w1": np.ones((1, 3)), "b1": np.ones((1, 1)), "w2": np.ones((1, 1)),
         "b2": np.zeros((1, 1)), "w3": np.ones((1, 1)), "b3": np.zeros((1, 1))}
    frac, grads, _ = net_gradients(p, np.zeros((4, 1)))
    s = frac[0]
    assert np.allclose(grads["b0"].ravel(), [0.0, 0.0, s * (1.0 - s)])


def test_dispatch_on_plain_arrays_returns_arrays():
    x = np.array([-1.0, 2.0])
    w = np.array([0.0, 600_000.0])
    net = he_init(3, 3, 3)
    plain = {n: getattr(net, n) for n in PARAM_FIELDS}
    for out in (age_pension(w, 1.0), fees(w, 1.0),
                consumption_utility(w + 1.0),
                policy_fraction(plain, np.ones((4, 2)))[0]):
        assert isinstance(out, np.ndarray)
    # The transition with nothing added or taken is the ReLU of wealth.
    assert np.allclose(transition_balance(x, 0.0, 0.0, 0.0, 0.0), [0.0, 2.0])


def test_sigmoid_extreme_arguments_finite():
    p = {n: np.zeros(s) for n, s in (("w0", (1, 4)), ("b0", (1, 1)),
                                     ("w1", (1, 1)), ("b1", (1, 1)),
                                     ("w2", (1, 1)), ("b2", (1, 1)),
                                     ("w3", (1, 1)))}
    s = [policy_fraction({**p, "b3": np.array([[v]])},
                         np.zeros((4, 1)))[0][0] for v in (-800.0, 0.0, 800.0)]
    assert np.all(np.isfinite(s))
    assert s[0] == pytest.approx(0.0)
    assert s[1] == pytest.approx(0.5)
    assert s[2] == pytest.approx(1.0)
    _, grads, _ = net_gradients({**p, "b3": np.array([[800.0]])},
                                np.zeros((4, 1)))
    assert grads["b3"][0, 0] == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_composite_expression_matches_fd(seed):
    # One simulated year: pension, fee and transition, then CRRA of the
    # balance, its slope with respect to W chained from the block slopes.
    rng = np.random.default_rng(seed)
    w0 = rng.uniform(0.0, 800_000.0, size=5)
    Q = rng.uniform(0.8, 1.5, size=5)
    R = rng.normal(0.03, 0.1, size=5)
    params = UtilityParams(rho=5.0, wealth_unit=500_000.0)
    fee_rate = AccountParams().fee_rate

    def terms(w):
        A = age_pension(w, Q)
        nxt = transition_balance(w, A, 0.06 * (w + A), fees(w, Q), R)
        return consumption_utility(nxt + 1.0, params)

    def chained_slope(w):
        A, dA = age_pension(w, Q, slope=True)
        nxt, s = transition_balance(w, A, 0.06 * (w + A), fees(w, Q), R,
                                    slope=True)
        _, du = consumption_utility(nxt + 1.0, params, slope=True)
        return du * s * ((1.0 + dA) * (1.0 - 0.06) - fee_rate)

    def own_term_fd(h):
        # Paths are independent, so each path's slope is differenced on its
        # own term: in the sum, the rounding of a far larger term of another
        # path (ulp 1.5e-11 at -6.9e4) can swamp a slope of 5e-7.
        return np.array([numeric_grad(lambda x: terms(x)[i], w0, h)[i]
                         for i in range(len(w0))])

    got = chained_slope(w0)
    fd1, fd2 = own_term_fd(1.0), own_term_fd(0.5)
    smooth = np.abs(fd1 - fd2) <= 1e-6 * np.abs(fd2)   # no kink in reach
    assert np.allclose(got[smooth], fd2[smooth], rtol=1e-5, atol=1e-20)
