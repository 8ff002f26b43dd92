"""Correctness checks on superdraw's outputs.

Each check compares a program output with an independent computation from
`reference` or with a property the method must have, and raises
`CheckFailed` on the first violation. None of them compares against a
stored copy of an earlier output. `selftest.py` feeds every check a
corrupted output to show that it can fail.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

import reference as ref

PANEL_COLUMNS = ("path", "t", "q", "s", "e", "n", "b", "o", "h", "R", "Q")


class CheckFailed(Exception):
    """A program output disagrees with the reference or a required property."""


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def digest(paths) -> str:
    """One hash over the named files, so repeated rounds can be compared."""
    h = hashlib.sha1()
    for p in sorted(Path(p) for p in paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


# ------------------------------------------------------------------ training


def read_report(path) -> list:
    with open(path, newline="") as fh:
        return [(int(r["iter"]), float(r["objective"]))
                for r in csv.DictReader(fh)]


def check_objective_rises(report_csv) -> None:
    rows = read_report(report_csv)
    if len(rows) < 2:
        raise CheckFailed(f"{report_csv}: fewer than two logged objectives")
    if not rows[-1][1] > rows[0][1]:
        raise CheckFailed(f"objective did not rise: {rows[0][1]} at "
                          f"iteration {rows[0][0]}, {rows[-1][1]} at "
                          f"iteration {rows[-1][0]}")


def read_outperformance(path) -> dict:
    """{iteration: {strategy: count}}."""
    out = {}
    with open(path, newline="") as fh:
        for r in csv.DictReader(fh):
            out.setdefault(int(r["iter"]), {})[r["strategy"]] = int(r["count"])
    return out


def target_iteration(outperformance_csv, m_test: int, share: float):
    """First iteration whose policy beats all six strategies on >= share."""
    need = math.ceil(share * m_test)
    for it, counts in sorted(read_outperformance(outperformance_csv).items()):
        if set(counts) != set(ref.STRATEGIES):
            raise CheckFailed(f"iteration {it}: strategies {sorted(counts)}")
        if min(counts.values()) >= need:
            return it
    return None


def check_target(outperformance_csv, m_test: int, share: float,
                 last_iteration: int) -> int:
    it = target_iteration(outperformance_csv, m_test, share)
    if it is None or it > last_iteration:
        raise CheckFailed(f"no checkpoint up to iteration {last_iteration} "
                          f"beats every strategy on {share:.0%} of "
                          f"{m_test} paths")
    return it


def check_gradients(model: ref.Model, net: dict, seed: int, paths, draw,
                    program_gradient, per_path: int = 4, step: float = 1e-5,
                    rtol: float = 1e-5, max_draws: int = 400) -> int:
    """BPTT gradients against central differences of the reference walker.

    `program_gradient(m)` returns the program's (objective, {name: grad})
    for path m of the panel drawn with `seed`; `draw()` picks a random
    weight (name, i, j). Weights are drawn until `per_path` of them have a
    non-zero gradient on each path (dead ReLU units give many exact zeros,
    which are checked but not counted). Stencils whose perturbed walks take
    a different kink branch than the unperturbed walk are skipped. An entry
    passes within `rtol` relative plus the difference quotient's rounding
    error. Returns the number of non-zero entries compared.
    """
    curve = ref.survival(model.gender, model.retirement_age, model.horizon)
    omega = model.account["omega"]
    compared = 0
    for m in paths:
        path = ref.esg_path(model.esg, seed, m, model.horizon, omega)
        value, grads = program_gradient(m)
        base, _, sig0 = ref.walk(ref.policy_rule(net), path["R"], path["Q"],
                                 curve, model)
        if not _close(value, base, 1e-9):
            raise CheckFailed(f"path {m}: program objective {value!r} vs "
                              f"reference {base!r}")
        # Rounding in the walker's sum bounds how well a difference
        # quotient can resolve a small gradient.
        atol = 64.0 * np.finfo(float).eps * abs(base) / step
        nonzero = 0
        for _ in range(max_draws):
            if nonzero == per_path:
                break
            name, i, j = draw()
            f = {}
            for sign in (1.0, -1.0):
                shifted = dict(net)
                shifted[name] = net[name].copy()
                shifted[name][i, j] += sign * step
                f[sign] = ref.walk(ref.policy_rule(shifted), path["R"],
                                   path["Q"], curve, model)
            if f[1.0][2] != sig0 or f[-1.0][2] != sig0:
                continue   # the stencil straddles a kink
            fd = (f[1.0][0] - f[-1.0][0]) / (2.0 * step)
            g = float(grads[name][i, j])
            if abs(g - fd) > rtol * abs(fd) + atol:
                raise CheckFailed(f"path {m} d/d{name}[{i},{j}]: BPTT {g!r}, "
                                  f"finite difference {fd!r}")
            nonzero += g != 0.0 or fd != 0.0
        if nonzero < per_path:
            raise CheckFailed(f"path {m}: only {nonzero} non-zero gradient "
                              f"entries in {max_draws} draws")
        compared += nonzero
    return compared


# ---------------------------------------------------------------- evaluation


def read_utilities(path) -> dict:
    """{label: {path index: utility}}."""
    out = {}
    with open(path, newline="") as fh:
        for r in csv.DictReader(fh):
            out.setdefault(r["strategy"], {})[int(r["path"])] = \
                float(r["utility"])
    return out


def reference_walks(model: ref.Model, net: dict, seed: int, m: int) -> dict:
    """{label: (utility, real consumption path)} for path m, all rules."""
    curve = ref.survival(model.gender, model.retirement_age, model.horizon)
    path = ref.esg_path(model.esg, seed, m, model.horizon,
                        model.account["omega"])
    rules = {"policy": ref.policy_rule(net)}
    rules.update({k: ref.strategy_rule(k, model) for k in ref.STRATEGIES})
    return {label: ref.walk(rule, path["R"], path["Q"], curve, model)[:2]
            for label, rule in rules.items()}


def check_sampled_utilities(utilities_csv, model: ref.Model, net: dict,
                            seed: int, paths, rtol: float = 1e-9) -> None:
    """Per-path utilities of the policy and every strategy vs the walker."""
    table = read_utilities(utilities_csv)
    if set(table) != {"policy", *ref.STRATEGIES}:
        raise CheckFailed(f"utilities.csv labels {sorted(table)}")
    for m in paths:
        for label, (u, _) in reference_walks(model, net, seed, m).items():
            got = table[label].get(m)
            if got is None or not _close(got, u, rtol):
                raise CheckFailed(f"path {m} {label}: utilities.csv {got!r}, "
                                  f"reference {u!r}")


def check_outperformance_recount(utilities_csv, outperformance_csv,
                                 iteration: int) -> None:
    """Final-checkpoint win counts equal a recount from utilities.csv."""
    table = read_utilities(utilities_csv)
    pol = np.array([table["policy"][m] for m in sorted(table["policy"])])
    counts = read_outperformance(outperformance_csv).get(iteration)
    if counts is None:
        raise CheckFailed(f"outperformance.csv has no iteration {iteration}")
    for label in ref.STRATEGIES:
        other = np.array([table[label][m] for m in sorted(table[label])])
        recount = int(np.sum(pol > other))
        if counts.get(label) != recount:
            raise CheckFailed(f"{label}: outperformance.csv says "
                              f"{counts.get(label)}, utilities.csv gives "
                              f"{recount}")


def silverman(x: np.ndarray) -> float:
    """0.9 min(sd, IQR / 1.34) n^(-1/5), over the positive spreads."""
    q75, q25 = np.percentile(x, [75.0, 25.0])
    spreads = [s for s in (float(np.std(x, ddof=1)), (q75 - q25) / 1.34)
               if s > 0.0]
    return 0.9 * min(spreads) * len(x) ** -0.2


def check_kde(eval_dir, utilities_csv, mass_tol: float = 1e-3,
              tol: float = 1e-3) -> None:
    """Each gap density is the Gaussian KDE of log10(U_policy - U_rule).

    The gaps are recomputed from utilities.csv, whose 10 significant digits
    blur only the smallest gaps, hence the loose tolerances. The grid must
    span the samples plus three Silverman bandwidths on either side, the
    density must match a direct evaluation of the kernel sum, and wherever
    the grid spacing resolves the bandwidth the trapezoid mass must be 1.
    (On long-tailed gaps the 256-point grid is coarser than the bandwidth,
    so its trapezoid sum is not a quadrature of the density.)
    """
    table = read_utilities(utilities_csv)
    pol = np.array([table["policy"][m] for m in sorted(table["policy"])])
    for label in ref.STRATEGIES:
        path = Path(eval_dir) / f"kde_{label}.csv"
        other = np.array([table[label][m] for m in sorted(table[label])])
        gaps = pol - other
        x = np.log10(gaps[gaps > 0.0])
        a = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if len(x) < 2:
            if a.size:
                raise CheckFailed(f"{path.name}: density for < 2 samples")
            continue
        grid, density = a[:, 0], a[:, 1]
        bw = silverman(x)
        ends = np.array([x.min() - 3.0 * bw, x.max() + 3.0 * bw])
        if np.any(np.abs(grid[[0, -1]] - ends) > tol * bw):
            raise CheckFailed(f"{path.name}: grid ends {grid[[0, -1]]}, "
                              f"expected {ends} (bandwidth {bw})")
        h = np.diff(grid)
        if np.any(np.abs(h - h.mean()) > 1e-6 * h.mean()):
            raise CheckFailed(f"{path.name}: grid is not uniform")
        z = (grid[:, None] - x[None, :]) / bw
        want = np.exp(-0.5 * z * z).sum(axis=1) / (
            len(x) * bw * math.sqrt(2.0 * math.pi))
        worst = float(np.max(np.abs(density - want)))
        if worst > tol * float(want.max()):
            raise CheckFailed(f"{path.name}: density off by {worst} "
                              f"(peak {want.max()})")
        mass = float(np.sum(0.5 * (density[1:] + density[:-1]) * h))
        if h.mean() <= bw and abs(mass - 1.0) > mass_tol:
            raise CheckFailed(f"{path.name}: density integrates to {mass}")


def check_first_year_median(eval_dir, first_year: dict, age: int,
                            rtol: float = 1e-9) -> None:
    """Median consumption at retirement equals the walker's first year.

    Every path starts from the same wealth and economy, so the first
    decision is identical across paths and equals its own median.
    """
    for label, c0 in first_year.items():
        path = Path(eval_dir) / f"medians_{label}.csv"
        with open(path, newline="") as fh:
            rows = {int(r["age"]): float(r["consumption"])
                    for r in csv.DictReader(fh)}
        if not _close(rows.get(age, math.nan), c0, rtol):
            raise CheckFailed(f"{path.name}: age {age} median "
                              f"{rows.get(age)!r}, reference {c0!r}")


# -------------------------------------------------------------------- export


def _equations(tab: dict, p: dict):
    """(name, y, regressors, coefficients) of the seven OLS fits."""
    q, S, e, n, b, o, h = (tab[k] for k in ref.FACTORS)
    return (
        ("q", q[1:], [q[:-1]], [p["mu_q"] * (1 - p["phi_q"]), p["phi_q"]]),
        ("S", S[1:], [S[:-1]],
         [(p["mu_s"] - p["mu_q"]) * (1 - p["phi_s"]), p["phi_s"]]),
        ("e", e[1:], [e[:-1]], [p["mu_e"] * (1 - p["phi_e"]), p["phi_e"]]),
        ("n", n[1:], [n[:-1], e[1:]], [p["psi_n0"], p["psi_n1"], p["psi_n2"]]),
        ("b", b[1:], [b[:-1], n[1:]], [p["psi_b0"], p["psi_b1"], p["psi_b2"]]),
        ("o", o, [e, n], [p["psi_o0"], p["psi_o1"], p["psi_o2"]]),
        ("h", h, [q, b], [p["psi_h0"], p["psi_h1"], p["psi_h2"]]),
    )


def check_ols(params_ini, rtol: float = 1e-9) -> None:
    """Fitted coefficients solve the normal equations of each regression."""
    p = ref.read_params_file(params_ini)
    for name, y, regs, coef in _equations(ref.history_returns(), p):
        X = np.column_stack([np.ones(len(y))] + regs)
        r = y - X @ np.array(coef)
        scale = np.linalg.norm(X, axis=0) * np.linalg.norm(y)
        if np.any(np.abs(X.T @ r) > rtol * scale):
            raise CheckFailed(f"equation {name}: X'r = {X.T @ r} is not 0")
        sigma = math.sqrt(float(r @ r) / (len(y) - X.shape[1]))
        fitted = p[f"sigma_{name.lower()}"]
        if not _close(sigma, fitted, rtol):
            raise CheckFailed(f"equation {name}: sigma {fitted!r} but the "
                              f"residual standard error is {sigma!r}")


def load_panel(panel_csv, M: int, T: int) -> dict:
    """Panel columns reshaped to (M, T+1), after checking the row layout."""
    with open(panel_csv) as fh:
        header = fh.readline().strip().split(",")
    if tuple(header) != PANEL_COLUMNS:
        raise CheckFailed(f"panel header {header}")
    a = np.loadtxt(panel_csv, delimiter=",", skiprows=1, ndmin=2)
    if a.shape != (M * (T + 1), len(PANEL_COLUMNS)):
        raise CheckFailed(f"panel has shape {a.shape}")
    cols = {c: a[:, i].reshape(M, T + 1) for i, c in enumerate(PANEL_COLUMNS)}
    if np.any(cols["path"] != np.arange(M)[:, None]) or \
            np.any(cols["t"] != np.arange(T + 1)[None, :]):
        raise CheckFailed("panel rows are not path-major over t = 0..T")
    return cols


def check_panel_identities(cols: dict, omega: float) -> None:
    """Q = exp(sum of q) and R = the omega-weighted return, on every row."""
    q = cols["q"]
    want_Q = np.ones_like(q)
    want_Q[:, 1:] = np.exp(np.cumsum(q[:, 1:], axis=1))
    bad = np.abs(cols["Q"] - want_Q) > 1e-9 * want_Q
    if np.any(bad):
        m, t = np.argwhere(bad)[0]
        raise CheckFailed(f"path {m} t {t}: Q {float(cols['Q'][m, t])!r}, "
                          f"exp(sum q) {float(want_Q[m, t])!r}")
    growth = 0.5 * cols["e"] + 0.3 * cols["n"] + 0.2 * cols["h"]
    defensive = 0.3 * cols["s"] + 0.5 * cols["b"] + 0.2 * cols["o"]
    want_R = omega * growth + (1.0 - omega) * defensive
    want_R[:, 0] = 0.0
    bad = np.abs(cols["R"] - want_R) > 1e-9 * (1.0 + np.abs(want_R))
    if np.any(bad):
        m, t = np.argwhere(bad)[0]
        raise CheckFailed(f"path {m} t {t}: R {float(cols['R'][m, t])!r}, "
                          f"formula {float(want_R[m, t])!r}")


def check_first_block(panel_csv, single_csv, T: int) -> None:
    """Path 0 simulated on its own writes the same rows as in the panel."""
    with open(panel_csv) as big, open(single_csv) as one:
        for k in range(T + 2):
            a, b = big.readline(), one.readline()
            if a != b:
                raise CheckFailed(f"line {k + 1}: panel {a!r}, alone {b!r}")
        if one.readline():
            raise CheckFailed("single-path panel has extra rows")


def check_q_mean(cols: dict, mu_q: float) -> None:
    """Last-year inflation averages to mu_q within three standard errors."""
    last = cols["q"][:, -1]
    se = float(np.std(last, ddof=1)) / math.sqrt(len(last))
    if abs(float(np.mean(last)) - mu_q) > 3.0 * se:
        raise CheckFailed(f"last-year mean q {float(np.mean(last))!r} is more than "
                          f"3 standard errors ({se:.3g}) from mu_q {mu_q!r}")


def check_reference_paths(cols: dict, esg: dict, seed: int, omega: float,
                          paths) -> None:
    """Sampled panel paths equal the reference scenario generator."""
    T = cols["q"].shape[1] - 1
    for m in paths:
        path = ref.esg_path(esg, seed, m, T, omega)
        for c in ("q", "s", "e", "n", "b", "o", "h", "R", "Q"):
            want = np.array(path[c])
            got = cols[c][m]
            if np.any(np.abs(got - want) > 1e-9 * np.abs(want) + 1e-12):
                raise CheckFailed(f"path {m} column {c}: panel {got[:3]}..., "
                                  f"reference {want[:3]}...")
