"""Independent reference implementations used only by the test suite.

These deliberately avoid the library's formula code: the pension oracle
enumerates every means-test branch with explicit conditionals, the
straight-line evaluator walks one path with plain floats, and the ESG-year
oracle and the stationary state write out the seven model equations
themselves.
"""

import numpy as np

from superdraw.errors import DataError
from superdraw.esg import EconState


def pension_oracle(W, Q, p):
    """Branch-enumerated annual Age Pension for scalar wealth/deflator."""
    full = p.a_max * Q

    # Asset test: free area, tapered band, exhausted.
    if W <= p.w_a * Q:
        a_asset = full
    else:
        a_asset = full - p.tau_a * p.fortnights_per_year * (W - p.w_a * Q)
        if a_asset < 0.0:
            a_asset = 0.0

    # Deemed income: single-tier below the threshold, two tiers above.
    if W <= p.w_i * Q:
        deemed = p.r1 * W
    else:
        deemed = p.r1 * (p.w_i * Q) + p.r2 * (W - p.w_i * Q)

    # Income test: free area, tapered, exhausted.
    if deemed <= p.income_free * Q:
        a_income = full
    else:
        a_income = full - p.tau_i * (deemed - p.income_free * Q)
        if a_income < 0.0:
            a_income = 0.0

    return a_asset if a_asset < a_income else a_income


def asset_test_cutoff_oracle(p):
    """Base-year wealth at which the asset test extinguishes the pension."""
    return p.w_a + p.a_max / (p.fortnights_per_year * p.tau_a)


def straight_line_objective(consumptions, W0, pension_params, account_params,
                            utility_params, curve, returns, inflations):
    """Objective of one path computed with plain floats and no vectors.

    `consumptions` maps (t, wealth, pension) -> nominal consumption;
    `returns[t]` and `inflations[t]` are the portfolio return and inflation
    realized over year t-1 -> t (entry 0 unused), so the step from t to t+1
    applies index t+1 of both.
    """
    from superdraw.utility import bequest_utility, consumption_utility

    T = len(curve.tpx) - 1
    W = float(W0)
    Q = 1.0
    total = 0.0
    for t in range(T + 1):
        A = pension_oracle(W, Q, pension_params)
        C = consumptions(t, W, A)
        assert 0.0 <= C <= W + A + 1e-9
        total += curve.tpx[t] * consumption_utility(C / Q, utility_params)
        if t >= 1 and utility_params.phi > 0.0:
            total += curve.dq[t] * bequest_utility(W / Q, utility_params)
        if t < T:
            fee = account_params.admin_fee * Q + account_params.fee_rate * W
            balance = W + A - C - fee
            if balance < 0.0:
                balance = 0.0
            W = balance * np.exp(returns[t + 1])
            Q = Q * np.exp(inflations[t + 1])
    return total


def lifetime_utility_oracle(c_path, w_path, curve, params):
    """Mortality-weighted total utility of one realized path (real dollars).

    Sums tpx[t] * u(c_t) + dq[t] * v(w_t) over t = 0..T; the death weight at
    t = 0 is zero by construction of the curve.
    """
    from superdraw.utility import bequest_utility, consumption_utility

    c = np.asarray(c_path, dtype=float)
    w = np.asarray(w_path, dtype=float)
    if c.shape != w.shape or len(c) != len(curve.tpx):
        raise DataError(f"path lengths {c.shape}/{w.shape} do not match "
                        f"curve horizon {curve.horizon}")
    total = float(np.sum(curve.tpx * consumption_utility(c, params)))
    if params.phi > 0.0:
        total += float(np.sum(curve.dq * bequest_utility(w, params)))
    return total


def esg_year_oracle(p, prev, eps, omega=0.7):
    """One year of the seven-factor model for scalar factors.

    `prev` maps q, S, e, n, b, o, h to last year's values and `eps` holds
    this year's scaled shocks in that order. Each equation is written out
    with the fresh same-year values it reads. Returns this year's factors
    plus the nominal short rate s = S + q and the portfolio return R.
    """
    eq, eS, ee, en, eb, eo, eh = eps
    q = (1.0 - p.phi_q) * p.mu_q + p.phi_q * prev["q"] + eq
    S = p.phi_S * prev["S"] + (1.0 - p.phi_S) * (p.mu_S - p.mu_q) + eS
    e = (1.0 - p.phi_e) * p.mu_e + p.phi_e * prev["e"] + ee
    n = p.psi_n0 + p.psi_n1 * prev["n"] + p.psi_n2 * e + en
    b = p.psi_b0 + p.psi_b1 * prev["b"] + p.psi_b2 * n + eb
    o = p.psi_o0 + p.psi_o1 * e + p.psi_o2 * n + eo
    h = p.psi_h0 + p.psi_h1 * q + p.psi_h2 * b + eh
    s = S + q
    growth = 0.5 * e + 0.3 * n + 0.2 * h
    defensive = 0.3 * s + 0.5 * b + 0.2 * o
    R = omega * growth + (1.0 - omega) * defensive
    return dict(q=q, S=S, e=e, n=n, b=b, o=o, h=h, s=s, R=R)


def stationary_state(p):
    """Zero-shock fixed point of the seven ESG equations."""
    q = p.mu_q
    S = p.mu_S - p.mu_q
    e = p.mu_e
    n = (p.psi_n0 + p.psi_n2 * e) / (1.0 - p.psi_n1)
    b = (p.psi_b0 + p.psi_b2 * n) / (1.0 - p.psi_b1)
    o = p.psi_o0 + p.psi_o1 * e + p.psi_o2 * n
    h = p.psi_h0 + p.psi_h1 * q + p.psi_h2 * b
    return EconState(q=q, S=S, e=e, n=n, b=b, o=o, h=h)


def path_shocks_oracle(params, seed, m, T):
    """Scaled (T, 7) shocks of path m from a fresh Philox keyed [seed, m]."""
    bits = np.random.Philox(key=np.array([seed & ((1 << 64) - 1), m],
                                         dtype=np.uint64))
    z = np.random.Generator(bits).standard_normal((T, 7))
    sig = np.array([params.sigma_q, params.sigma_S, params.sigma_e,
                    params.sigma_n, params.sigma_b, params.sigma_o,
                    params.sigma_h])
    return z * sig


def kde_oracle(x, grid, bw):
    """Gaussian KDE on the grid as one (grid, samples) kernel matrix."""
    z = (grid[:, None] - x[None, :]) / bw
    return np.exp(-0.5 * z * z).sum(axis=1) / (len(x) * bw *
                                               np.sqrt(2.0 * np.pi))


def sigmoid_oracle(v):
    """Two-sided logistic function, each side gathered through a mask."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out
