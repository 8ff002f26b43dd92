import csv
import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from conftest import (history_from_factors, history_from_panel, reference,
                      reference_dict)
from oracles import path_shocks_oracle, stationary_state
from superdraw import _csvblock, esg
from superdraw.errors import ConfigError, DataError, NumericError
from superdraw.esg import DEFAULT_PARAMS, EconState, EsgParams
from superdraw.trainer import TrainConfig

FACTORS = ("q", "S", "e", "n", "b", "o", "h")
_PANEL_COLS = ("q", "s", "e", "n", "b", "o", "h", "R", "Q")


def quiet(params=DEFAULT_PARAMS, **sigmas):
    """`params` with every residual sigma at 1e-300 unless given."""
    return dataclasses.replace(params, **{
        f"sigma_{k}": sigmas.get(f"sigma_{k}", 1e-300) for k in FACTORS})


def one_year(params, prev, M=1, seed=1):
    """Year t = 1 of a simulated panel from `prev`, as an EconState of
    (M,) arrays, with S recovered as s - q."""
    panel = esg.simulate(params, prev, M=M, T=1, seed=seed)
    return EconState(q=panel.q[:, 1], S=panel.s[:, 1] - panel.q[:, 1],
                     e=panel.e[:, 1], n=panel.n[:, 1], b=panel.b[:, 1],
                     o=panel.o[:, 1], h=panel.h[:, 1])


def test_params_validation():
    with pytest.raises(ConfigError):
        dataclasses.replace(DEFAULT_PARAMS, sigma_q=0.0)
    with pytest.raises(ConfigError):
        dataclasses.replace(DEFAULT_PARAMS, phi_e=1.0)


def test_nominal_rate_is_sum():
    st = EconState(q=0.02, S=0.01, e=0, n=0, b=0, o=0, h=0)
    assert st.s == pytest.approx(0.03)


def test_step_ar1_fixed_points():
    prev = stationary_state(DEFAULT_PARAMS)
    assert prev.q == pytest.approx(0.024)
    assert prev.e == pytest.approx(0.085)
    nxt = one_year(quiet(), prev)
    assert nxt.q[0] == pytest.approx(prev.q)
    assert nxt.e[0] == pytest.approx(prev.e)
    assert nxt.S[0] == pytest.approx(prev.S)


def test_step_intl_equity_from_fresh_domestic():
    # n' is driven by the same-year e', here at its fixed point 0.085.
    prev = EconState(q=0.024, S=DEFAULT_PARAMS.mu_S - 0.024, e=0.085,
                     n=0.0, b=0.0, o=0.0, h=0.0)
    nxt = one_year(quiet(), prev)
    assert nxt.n[0] == pytest.approx(-0.018 + 0.911 * 0.085)
    assert nxt.n[0] == pytest.approx(0.059435)


def test_step_cascade_uses_fresh_values():
    # Only domestic equity is shocked: n' and o' must read the shocked e'.
    p = quiet(sigma_e=DEFAULT_PARAMS.sigma_e)
    prev = stationary_state(DEFAULT_PARAMS)
    shocked = one_year(p, prev, seed=5)
    eps_e = esg._path_shocks(p, 5, range(1), 1)[0, 0, 2]
    assert abs(eps_e) > 1e-3
    assert shocked.e[0] == pytest.approx(prev.e + eps_e)
    assert shocked.n[0] == pytest.approx(
        p.psi_n0 + p.psi_n1 * prev.n + p.psi_n2 * shocked.e[0])
    assert shocked.o[0] == pytest.approx(
        p.psi_o0 + p.psi_o1 * shocked.e[0] + p.psi_o2 * shocked.n[0])


def test_step_deterministic():
    prev = stationary_state(DEFAULT_PARAMS)
    a = one_year(DEFAULT_PARAMS, prev, M=3, seed=9)
    b = one_year(DEFAULT_PARAMS, prev, M=3, seed=9)
    for k in FACTORS:
        assert np.array_equal(getattr(a, k), getattr(b, k))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("factor", FACTORS)
def test_simulate_rejects_non_finite_initial_state(factor, bad):
    # o and h do not feed next year's values, so only a check on the
    # initial state itself catches them.
    prev = dataclasses.replace(stationary_state(DEFAULT_PARAMS),
                               **{factor: bad})
    with pytest.raises(NumericError):
        esg.simulate(DEFAULT_PARAMS, prev, M=2, T=3, seed=1)


# ------------------------------------------------------------- portfolio


def test_portfolio_convex_weights():
    st = EconState(q=0.02, S=0.03, e=0.05, n=0.05, b=0.05, o=0.05, h=0.05)
    assert st.s == pytest.approx(0.05)
    assert esg.portfolio_return(st, 0.7) == pytest.approx(0.05)


def test_portfolio_pure_growth():
    st = EconState(q=0.9, S=0.9, e=0.1, n=0.1, b=-0.3, o=0.7, h=0.1)
    assert esg.portfolio_return(st, 1.0) == pytest.approx(0.1)


def test_portfolio_mixed_example():
    st = EconState(q=0.0, S=0.03, e=0.085, n=0.059435, b=0.04, o=0.05, h=0.066)
    assert esg.portfolio_return(st, 0.7) == pytest.approx(0.06317, abs=5e-6)


def test_portfolio_rejects_bad_omega():
    st = stationary_state(DEFAULT_PARAMS)
    with pytest.raises(ConfigError):
        esg.portfolio_return(st, 1.2)


# ------------------------------------------------------------- simulation


def test_simulate_seeded_determinism():
    init = stationary_state(DEFAULT_PARAMS)
    a = esg.simulate(DEFAULT_PARAMS, init, M=4, T=6, seed=42)
    b = esg.simulate(DEFAULT_PARAMS, init, M=4, T=6, seed=42)
    for col in ("q", "s", "e", "n", "b", "o", "h", "R", "Q"):
        assert np.array_equal(getattr(a, col), getattr(b, col))
    c = esg.simulate(DEFAULT_PARAMS, init, M=4, T=6, seed=43)
    assert not np.array_equal(a.q, c.q)


def test_simulate_per_path_streams_are_order_independent():
    init = stationary_state(DEFAULT_PARAMS)
    small = esg.simulate(DEFAULT_PARAMS, init, M=3, T=5, seed=7)
    big = esg.simulate(DEFAULT_PARAMS, init, M=8, T=5, seed=7)
    assert np.array_equal(small.e, big.e[:3])


@pytest.mark.parametrize("seed", [0, 11, 2**64 - 1])
@pytest.mark.parametrize("T", [1, 41])
def test_simulate_shocks_match_per_path_philox(seed, T):
    # One rewound generator per draw gives what a fresh Philox keyed
    # [seed, m] draws for each path, bit for bit, at every panel size and
    # for a block of paths that does not start at path 0.
    panels = {M: esg._path_shocks(DEFAULT_PARAMS, seed, range(M), T)
              for M in (1, 7, 300, 1031)}
    for M, eps in panels.items():
        assert eps.shape == (M, T, 7)
        want = np.stack([path_shocks_oracle(DEFAULT_PARAMS, seed, m, T)
                         for m in range(M)])
        assert eps.tobytes() == want.tobytes()
    assert panels[1].tobytes() == panels[300][:1].tobytes()
    assert panels[7].tobytes() == panels[300][:7].tobytes()
    block = esg._path_shocks(DEFAULT_PARAMS, seed, range(1024, 1031), T)
    assert block.tobytes() == panels[1031][1024:].tobytes()


def test_simulate_matches_esg_year_oracle(monkeypatch):
    # Every factor, S, s, R and Q of the panel against the reference's
    # paths (bench/reference.py `esg_path`: the equations written out year
    # by year on its own draw of each path's shocks), from the bundled
    # history's last year, the one start the reference knows. 1,031 paths
    # are two whole blocks of 512 and a part block of 7; blocks of 3 paths
    # leave 2 in the last. A path is the same bits whatever the block size,
    # and path 0 the same as in a one-path panel.
    init = TrainConfig().initial_econ_state()
    T, seed = 6, 11
    one = esg.simulate(DEFAULT_PARAMS, init, M=1, T=T, seed=seed)
    paths = [reference.esg_path(reference_dict(DEFAULT_PARAMS), seed, m, T,
                                omega=0.7) for m in range(1031)]
    want = {k: np.array([path[k] for path in paths])
            for k in (*FACTORS, "s", "R", "Q")}
    want["s - q"] = want.pop("S")
    for M, block in ((5, esg.SIM_BLOCK), (1031, esg.SIM_BLOCK), (1031, 3)):
        with monkeypatch.context() as mp:
            mp.setattr(esg, "SIM_BLOCK", M)
            whole = esg.simulate(DEFAULT_PARAMS, init, M=M, T=T, seed=seed)
            mp.setattr(esg, "SIM_BLOCK", block)
            panel = esg.simulate(DEFAULT_PARAMS, init, M=M, T=T, seed=seed)
        for k in _PANEL_COLS:
            assert getattr(panel, k).tobytes() == getattr(whole, k).tobytes()
            assert getattr(panel, k)[:1].tobytes() == getattr(one, k).tobytes()
        got = {k: getattr(panel, k) for k in _PANEL_COLS}
        got["s - q"] = panel.s - panel.q
        for k, col in got.items():
            np.testing.assert_allclose(col, want[k][:M], rtol=0, atol=1e-14,
                                       err_msg=f"{M} {block} {k}")


@pytest.mark.parametrize("M", [1, 39, 40, 1031])
@pytest.mark.parametrize("factors", [True, False])
def test_rows_filled_in_two_calls_are_the_whole_panel(M, factors):
    # `first` and `out` fill paths [0, M // 2) and [M // 2, M) of one set
    # of columns, as `evaluate`'s two processes do; the rows are the bits
    # of one call for the whole panel, and each call's panel is its rows.
    init = stationary_state(DEFAULT_PARAMS)
    whole = esg.simulate(DEFAULT_PARAMS, init, M=M, T=6, seed=11,
                         factors=factors)
    kept = _PANEL_COLS if factors else ("R", "Q")
    cols = {k: np.full((M, 7), np.nan) for k in kept}
    for m0, m1 in ((0, M // 2), (M // 2, M)):
        if m0 < m1:
            part = esg.simulate(DEFAULT_PARAMS, init, M=m1 - m0, T=6, seed=11,
                                factors=factors, first=m0,
                                out={k: c[m0:m1] for k, c in cols.items()})
            assert part.M == m1 - m0
            assert part.R.base is cols["R"]
    for k in kept:
        assert cols[k].tobytes() == getattr(whole, k).tobytes(), k


def test_simulate_holds_the_panel_and_one_block():
    # Beside the columns it holds, a 10,000-path panel is built with one
    # block's shocks and rows, within a quarter of the nine-column panel's
    # bytes; the whole (M, T, 7) shock array alone would be 0.78 of that.
    # A training or evaluation panel holds R and Q only.
    init = stationary_state(DEFAULT_PARAMS)
    for make, held in [
            (lambda: esg.simulate(DEFAULT_PARAMS, init, M=10_000, T=41,
                                  seed=777), _PANEL_COLS),
            (lambda: TrainConfig().panel(10_000, 777), ("R", "Q"))]:
        tracemalloc.start()
        try:
            panel = make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert {k for k in _PANEL_COLS if hasattr(panel, k)} == set(held)
        assert peak < sum(getattr(panel, k).nbytes for k in held) \
            + 0.25 * 9 * panel.R.nbytes


@pytest.mark.parametrize("M", [1, 511, 512, 513, 10_000])
def test_simulate_without_factors_keeps_r_and_q_bit_for_bit(M):
    cfg = TrainConfig()
    full, lean = cfg.panel(M, 777, factors=True), cfg.panel(M, 777)
    assert lean.factors == {}
    assert set(full.factors) == set(_PANEL_COLS[:7])
    assert np.array_equal(lean.R, full.R)
    assert np.array_equal(lean.Q, full.Q)


def test_absent_factor_column_fails_loudly(tmp_path):
    panel = TrainConfig().panel(3, 777)
    for k in _PANEL_COLS[:7]:
        with pytest.raises(AttributeError, match=f"column {k} was not "
                           "simulated"):
            getattr(panel, k)
    with pytest.raises(AttributeError, match="no attribute 'x'"):
        panel.x
    out = tmp_path / "panel.csv"
    with pytest.raises(AttributeError, match="not simulated"):
        esg.panel_to_csv(panel, out)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_rejects_a_deflator_past_float_range():
    # With mean inflation 30 a year, Q = exp(q_1 + ... + q_t) overflows in
    # year 24 while every factor and R stay finite.
    p = dataclasses.replace(DEFAULT_PARAMS, mu_q=30.0)
    init = stationary_state(DEFAULT_PARAMS)
    assert np.isfinite(esg.simulate(p, init, M=3, T=23, seed=1).Q).all()
    with pytest.raises(NumericError, match="non-finite Q"):
        esg.simulate(p, init, M=3, T=24, seed=1)


def test_simulate_zero_shock_paths_are_constant():
    p = quiet()
    init = stationary_state(p)
    panel = esg.simulate(p, init, M=2, T=10, seed=1)
    assert np.allclose(panel.q, init.q, atol=1e-12)
    assert np.allclose(panel.h, init.h, atol=1e-12)


def test_simulate_panel_conventions():
    init = stationary_state(DEFAULT_PARAMS)
    panel = esg.simulate(DEFAULT_PARAMS, init, M=5, T=8, seed=3)
    assert np.all(panel.R[:, 0] == 0.0)
    assert np.all(panel.Q[:, 0] == 1.0)
    # Deflator telescopes one inflation step at a time.
    ratio = panel.Q[:, 1:] / panel.Q[:, :-1]
    assert np.allclose(ratio, np.exp(panel.q[:, 1:]))
    assert np.all(panel.s == pytest.approx(panel.q + (panel.s - panel.q)))


def test_simulate_long_run_mean_of_inflation():
    init = stationary_state(DEFAULT_PARAMS)
    M, T = 3000, 41
    panel = esg.simulate(DEFAULT_PARAMS, init, M=M, T=T, seed=123)
    sd_stat = DEFAULT_PARAMS.sigma_q / np.sqrt(1 - DEFAULT_PARAMS.phi_q ** 2)
    # AR(1) serial correlation inflates the standard error a touch.
    infl = np.sqrt((1 + DEFAULT_PARAMS.phi_q) / (1 - DEFAULT_PARAMS.phi_q))
    se = sd_stat * infl / np.sqrt(M * T)
    assert abs(panel.q[:, 1:].mean() - 0.024) < 3 * se


def test_simulate_guards():
    init = stationary_state(DEFAULT_PARAMS)
    with pytest.raises(ConfigError):
        esg.simulate(DEFAULT_PARAMS, init, M=0, T=5, seed=0)
    with pytest.raises(ConfigError):
        # Over the cell budget; the check runs before anything is drawn.
        esg.simulate(DEFAULT_PARAMS, init, M=10 ** 7, T=5, seed=0)
    # The largest panel within the budget at T = 5 is 3,703,703 paths.
    esg.check_panel_size(3_703_703, 5)
    for M, T in ((0, 5), (1, 0), (3_703_704, 5)):
        with pytest.raises(ConfigError):
            esg.check_panel_size(M, T)


def test_panel_take():
    init = stationary_state(DEFAULT_PARAMS)
    panel = esg.simulate(DEFAULT_PARAMS, init, M=6, T=4, seed=9)
    sub = panel.take([4, 1])
    assert sub.M == 2
    assert np.array_equal(sub.e[0], panel.e[4])
    assert np.array_equal(sub.Q[1], panel.Q[1])
    # A panel of R and Q only gives a sub-panel of R and Q only.
    lean = esg.simulate(DEFAULT_PARAMS, init, M=6, T=4, seed=9,
                        factors=False).take([4, 1])
    assert (lean.M, lean.factors) == (2, {})
    assert np.array_equal(lean.R, sub.R)
    assert np.array_equal(lean.Q, sub.Q)


def test_panel_checks_the_columns_present():
    M, T = 3, 4
    R, Q, col = np.zeros((M, T + 1)), np.ones((M, T + 1)), np.zeros((M, T))
    with pytest.raises(DataError, match="column e has shape"):
        esg.ScenarioPanel(M=M, T=T, R=R, Q=Q, factors={"e": col})
    with pytest.raises(DataError, match="column Q has shape"):
        esg.ScenarioPanel(M=M, T=T, R=R, Q=col)
    with pytest.raises(DataError, match="unknown panel column"):
        esg.ScenarioPanel(M=M, T=T, R=R, Q=Q, factors={"x": R})


# ------------------------------------------------------------- calibration


def test_load_history_bundled(bundled_history):
    assert len(bundled_history) == 29
    assert bundled_history.year[0] == 1992
    assert bundled_history.year[-1] == 2020
    assert bundled_history.s[-1] == pytest.approx(0.00102)


def test_load_history_errors(tmp_path):
    bad = tmp_path / "h.csv"
    bad.write_text("year,cpi,s\n1992,59.7,0.06\n")
    with pytest.raises(DataError, match="header"):
        esg.load_history(bad)
    bad.write_text("year,cpi,s,E,N,B,O,HPI\n1992,59.7,0.06,1,1,1,1,oops\n")
    with pytest.raises(DataError, match=":2"):
        esg.load_history(bad)


def test_calibrate_needs_data(bundled_history):
    short = esg.HistoricalSeries(**{
        f.name: getattr(bundled_history, f.name)[:5]
        for f in dataclasses.fields(bundled_history)})
    with pytest.raises(DataError, match="10"):
        esg.calibrate(short)


def test_calibrate_inflation_row_on_bundled_data(bundled_history):
    got = esg.calibrate(bundled_history)
    assert got.mu_q == pytest.approx(0.024, abs=2e-3)
    assert got.phi_q == pytest.approx(0.1346, abs=1e-3)
    assert got.sigma_q == pytest.approx(0.012, abs=2e-3)
    assert got.mu_e == pytest.approx(0.085, abs=2e-3)
    assert got.phi_e == pytest.approx(0.164, abs=2e-3)


def test_calibrate_zero_shock_history_has_tiny_sigmas():
    p = dataclasses.replace(
        DEFAULT_PARAMS, phi_q=0.8, phi_S=0.85, phi_e=0.9,
        psi_n1=0.7, psi_b1=0.6)
    sigmas = {k: 1e-300 for k in ("sigma_q", "sigma_S", "sigma_e", "sigma_n",
                                  "sigma_b", "sigma_o", "sigma_h")}
    pz = dataclasses.replace(p, **sigmas)
    start = EconState(q=0.1, S=0.1, e=0.4, n=0.3, b=0.2, o=0.2, h=0.3)
    panel = esg.simulate(pz, start, M=1, T=24, seed=0)
    hist = history_from_panel(panel)
    got = esg.calibrate(hist)
    for name in sigmas:
        assert getattr(got, name) < 1e-8


def test_calibrate_noiseless_round_trip():
    # Slow mean reversion keeps the regressors well conditioned without noise.
    p = dataclasses.replace(
        DEFAULT_PARAMS, phi_q=0.8, phi_S=0.85, phi_e=0.9,
        psi_n1=0.7, psi_b1=0.6)
    sigmas = {k: 1e-300 for k in ("sigma_q", "sigma_S", "sigma_e", "sigma_n",
                                  "sigma_b", "sigma_o", "sigma_h")}
    pz = dataclasses.replace(p, **sigmas)
    start = EconState(q=0.1, S=0.1, e=0.4, n=0.3, b=0.2, o=0.2, h=0.3)
    panel = esg.simulate(pz, start, M=1, T=24, seed=0)
    got = esg.calibrate(history_from_panel(panel))
    for f in dataclasses.fields(EsgParams):
        if f.name.startswith("sigma"):
            continue
        assert getattr(got, f.name) == pytest.approx(
            getattr(p, f.name), abs=1e-8), f.name


def test_calibrate_consistency_on_long_noisy_series():
    # Zero drift keeps 10,000 years of cumulated returns inside float range;
    # slopes and sigmas are the production values. Slopes are asserted within
    # 4 standard errors (the inflation regressor's small variance makes a
    # fixed absolute tolerance meaningless for psi_h1); means, intercepts and
    # sigmas concentrate much faster and get plain tolerances.
    p = dataclasses.replace(DEFAULT_PARAMS, mu_q=0.0, mu_S=0.0, mu_e=0.0,
                            psi_n0=0.0, psi_b0=0.0, psi_o0=0.0, psi_h0=0.0)
    panel = esg.simulate(p, stationary_state(p), M=1, T=10_000, seed=77)
    got = esg.calibrate(history_from_panel(panel))
    tab = esg.log_return_table(history_from_panel(panel))
    q, S, e, n, b, o, h = (tab[k] for k in ("q", "S", "e", "n", "b", "o", "h"))

    def slope_se(y, cols):
        X = np.column_stack([np.ones(len(y))] + cols)
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        resid = y - X @ beta
        s2 = resid @ resid / (len(y) - X.shape[1])
        return np.sqrt(s2 * np.diag(np.linalg.inv(X.T @ X)))[1:]

    se = {}
    se["phi_q"], = slope_se(q[1:], [q[:-1]])
    se["phi_S"], = slope_se(S[1:], [S[:-1]])
    se["phi_e"], = slope_se(e[1:], [e[:-1]])
    se["psi_n1"], se["psi_n2"] = slope_se(n[1:], [n[:-1], e[1:]])
    se["psi_b1"], se["psi_b2"] = slope_se(b[1:], [b[:-1], n[1:]])
    se["psi_o1"], se["psi_o2"] = slope_se(o, [e, n])
    se["psi_h1"], se["psi_h2"] = slope_se(h, [q, b])

    for f in dataclasses.fields(EsgParams):
        dev = abs(getattr(got, f.name) - getattr(p, f.name))
        if f.name in se:
            assert dev < 4 * se[f.name], (f.name, dev, se[f.name])
        elif f.name.startswith("sigma"):
            assert dev < 5e-3, (f.name, dev)
        else:
            assert dev < 1e-2, (f.name, dev)


def test_calibrate_singular_design():
    const = np.full(15, 0.03)
    hist = history_from_factors(2000, const, const, const, const, const,
                                const, const)
    with pytest.raises(DataError, match="equation"):
        esg.calibrate(hist)


def test_residual_diagnostics(bundled_history):
    params = esg.calibrate(bundled_history)
    corr, res = esg.residual_diagnostics(bundled_history, params)
    assert corr.shape == (7, 7)
    assert np.allclose(np.diag(corr), 1.0)
    assert np.allclose(corr, corr.T, atol=1e-12)
    off = corr - np.diag(np.diag(corr))
    assert np.max(np.abs(off)) < 0.6
    assert all(len(v) == len(bundled_history) - 2 for v in res.values())


def test_residuals_recover_simulated_shocks():
    # Simulation and residuals go through the same mean equations, so the
    # residuals of a simulated path are the shocks that drove it.
    T, seed = 30, 9
    init = stationary_state(DEFAULT_PARAMS)
    panel = esg.simulate(DEFAULT_PARAMS, init, M=1, T=T, seed=seed)
    _, res = esg.residual_diagnostics(history_from_panel(panel),
                                      DEFAULT_PARAMS)
    shocks = esg._path_shocks(DEFAULT_PARAMS, seed, range(1), T)[0, 1:]
    for i, k in enumerate(("q", "S", "e", "n", "b", "o", "h")):
        assert np.max(np.abs(res[k] - shocks[:, i])) < 1e-12, k


def test_initial_state_from_history(bundled_history):
    st = esg.initial_state_from_history(bundled_history)
    assert st.q == pytest.approx(np.log(116.6 / 114.8))
    assert st.s == pytest.approx(0.00102)
    assert st.e == pytest.approx(np.log(64116.9 / 70291.8))
    assert st.h == pytest.approx(np.log(150.3 / 138.1))


def test_params_round_trip_file(tmp_path):
    path = tmp_path / "params.txt"
    esg.save_params(DEFAULT_PARAMS, path)
    back = esg.load_params(path)
    assert back == DEFAULT_PARAMS


def test_load_params_errors(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("mu_q = 0.02\n")
    with pytest.raises(DataError, match="missing"):
        esg.load_params(path)
    path.write_text("mu_q 0.02\n")
    with pytest.raises(DataError, match="name = value"):
        esg.load_params(path)
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"# coefficients\nmu_q = {bad}\n")
        with pytest.raises(DataError, match=f"p.txt:2: bad number ' {bad}'"):
            esg.load_params(path)


def test_panel_csv_export(tmp_path):
    init = stationary_state(DEFAULT_PARAMS)
    panel = esg.simulate(DEFAULT_PARAMS, init, M=3, T=2, seed=5)
    out = tmp_path / "panel.csv"
    esg.panel_to_csv(panel, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "path,t,q,s,e,n,b,o,h,R,Q"
    assert len(lines) == 1 + 3 * 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert float(first[-1]) == 1.0


def _panel_csv_oracle(panel, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path", "t", "q", "s", "e", "n", "b", "o", "h", "R", "Q"])
        for m in range(panel.M):
            for t in range(panel.T + 1):
                w.writerow([m, t] + [f"{getattr(panel, c)[m, t]:.10g}"
                                     for c in _PANEL_COLS])


def _assert_no_helper_left(directory, names):
    """No child process is left running and `directory` holds `names`, or
    does not exist when `names` is None."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if names is None:
        assert not directory.exists()
    else:
        assert sorted(p.name for p in directory.iterdir()) == sorted(names)


# With two usable CPUs a helper formats paths [M // 2, M): M = 2 splits
# one and one, odd M unevenly. At T = 41 (64 paths per block) the halves of
# 150 (75 = 64 + 11) and 250 (125 = 64 + 61) paths are not whole blocks,
# nor at T = 2 (896 paths per block) those of 2,000 (1,000 = 896 + 104).
# Blocks of at least KERNEL_MIN_ROWS rows take the number kernel, smaller
# ones `%`. One CPU, and M < 2, take the one-process branch. The command's
# forks and failures are checked in test_cli.py.
@pytest.mark.parametrize("M, T, cpus", [
    pytest.param(M, T, cpus, id=f"{M}-{T}" + ("" if cpus == 2 else "-1cpu"))
    for cpus in (2, 1)
    for M, T in [(1, 2), (1, 41), (2, 41), (250, 2), (17, 41), (250, 41),
                 (150, 41), (2000, 2)]])
def test_panel_csv_matches_csv_writer_bytes(tmp_path, monkeypatch, M, T,
                                            cpus):
    # Values whose %.10g text is easy to get wrong: signed zero, exponent
    # forms on both sides, integral floats and more than ten digits.
    crafted = np.array([-0.0, 1e-05, 1.5e+17, 1.0, 123456789012.0, -2.5,
                        -1e-05, -1.5e+17, -123456789012.0, 0.1, -0.3333])
    rng = np.random.default_rng(M * 100 + T)
    cols = {}
    for c in _PANEL_COLS:
        vals = rng.normal(size=(M, T + 1)) * 10.0 ** rng.integers(-6, 7)
        flat = vals.ravel()
        flat[rng.permutation(flat.size)[:crafted.size]] = \
            crafted[:min(crafted.size, flat.size)]
        cols[c] = vals
    cols["Q"] = np.abs(cols["Q"]) + 1e-05
    cols["Q"][:, 0] = 1.0

    def copy_rows(n, factors, first, out):
        # Stands in for `simulate`: the crafted rows of paths first..
        for k, col in out.items():
            col[:] = cols[k][first:first + n]

    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    monkeypatch.setattr(_csvblock, "_usable_cpus", lambda: cpus)
    with esg.panel_for_csv(copy_rows, M, T) as (panel, tail):
        esg.panel_to_csv(panel, got, tail)
    _panel_csv_oracle(esg.ScenarioPanel(M=M, T=T, R=cols.pop("R"),
                                        Q=cols.pop("Q"), factors=cols), want)
    assert got.read_bytes() == want.read_bytes()
    _assert_no_helper_left(tmp_path, ["got.csv", "want.csv"])

