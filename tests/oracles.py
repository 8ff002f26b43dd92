"""Small independent oracles used only by the test suite.

The model itself (the pension, the ESG path and the path objective) is
checked against `bench/reference.py`, through the adapter in
`tests/conftest.py`. What is left here has no counterpart there: the
asset-test cutoff, the ESG stationary state, each path's scaled shocks,
the kernel density and the logistic function. They deliberately avoid the
library's formula code: from the package they may import only its error
types (`superdraw.errors`) and `superdraw.esg.EconState`, to return a
state (tests/test_package.py checks that).
"""

import numpy as np

from superdraw.esg import EconState


def asset_test_cutoff_oracle(p):
    """Base-year wealth at which the asset test extinguishes the pension."""
    return p.w_a + p.a_max / (p.fortnights_per_year * p.tau_a)


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
