"""Independent reference implementations used only by the test suite.

These deliberately avoid the library's formula code: the pension oracle
enumerates every means-test branch with explicit conditionals, and the
straight-line evaluator walks one path with plain floats and no tape.
"""

import numpy as np


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


def straight_line_objective(consumptions, W0, pension_params, account_params,
                            utility_params, curve, returns, inflations):
    """Objective of one path computed with plain floats, no tape, no vectors.

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
