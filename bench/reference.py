"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports `superdraw`. The model is re-derived from its
description and from the bundled data files, with plain Python floats where
a single path is walked:

- `pension`: the means-tested Age Pension by explicit enumeration of every
  asset-test, deeming and income-test branch;
- `mlp_fraction`: the 4-K1-K2-K3-1 policy network evaluated directly from a
  checkpoint's raw arrays;
- `walk`: one retirement path, year by year, returning the realized
  mortality-weighted utility, the real consumption per year and a signature
  of every kink branch taken (so finite differences can skip stencils that
  straddle one).

Helpers read the run's own `config_used.ini`, the bundled life table and
history, and reproduce one scenario path from the documented per-path
random stream (Philox keyed by (seed, path index)).
"""

from __future__ import annotations

import configparser
import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "superdraw" / "data"
LIFE_TABLE = DATA_DIR / "life_table_2015_17.csv"
HISTORY = DATA_DIR / "au_history_1992_2020.csv"

FACTORS = ("q", "S", "e", "n", "b", "o", "h")
MLP_FIELDS = ("w0", "b0", "w1", "b1", "w2", "b2", "w3", "b3")

# Statutory minimum drawdown bands (lowest age, rate) and the real targets
# of the three living-standard rules, as published.
MINIMUM_BANDS = ((0, 0.04), (65, 0.05), (75, 0.06), (80, 0.07), (85, 0.09),
                 (90, 0.11), (95, 0.14))
REAL_TARGETS = {"modest": 28_220.0, "comfortable": 44_183.0,
                "luxury": 50_000.0}
STRATEGIES = ("minimum", "four_percent", "rule_of_thumb", "modest",
              "comfortable", "luxury")


# ------------------------------------------------------------------ inputs


def read_ini(path) -> dict:
    """Sections of an INI file as {section: {lowercased key: float|str}}."""
    cp = configparser.ConfigParser()
    cp.read(path)
    out = {}
    for section in cp.sections():
        values = {}
        for key, raw in cp.items(section):
            try:
                values[key.lower()] = float(raw)
            except ValueError:
                values[key.lower()] = raw
        out[section] = values
    return out


def read_params_file(path) -> dict:
    """`name = value` lines (the calibrate output), keys lowercased."""
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                name, _, raw = line.partition("=")
                values[name.strip().lower()] = float(raw)
    return values


@dataclass(frozen=True)
class Model:
    """Everything a path walk needs, read from a run's config_used.ini."""

    esg: dict
    pension: dict
    account: dict
    rho: float
    phi: float
    floor: float
    unit: float
    w0: float
    horizon: int
    retirement_age: int
    gender: str

    @classmethod
    def from_config_used(cls, path) -> "Model":
        ini = read_ini(path)
        train, util = ini["train"], ini["utility"]
        w0 = float(train["w0"])
        unit = float(util["wealth_unit"])
        if unit == 1.0 and w0 != 0.0:
            unit = w0  # training and evaluation rescale utilities by W0
        return cls(esg=ini["esg"], pension=ini["pension"],
                   account=ini["account"], rho=float(util["rho"]),
                   phi=float(util["phi"]), floor=float(util["floor_epsilon"]),
                   unit=unit, w0=w0, horizon=int(train["horizon"]),
                   retirement_age=int(train["retirement_age"]),
                   gender=str(train["gender"]))


def survival(gender: str, x: int, T: int, base_lag: int = 3):
    """(tpx, dq) from the bundled life table with compounding improvement."""
    qx, imp = {}, {}
    with open(LIFE_TABLE, newline="") as fh:
        for row in csv.DictReader(fh):
            age = int(float(row["age"]))
            qx[age] = float(row[f"{gender}_qx"])
            imp[age] = float(row[f"{gender}_improvement"])
    tpx, dq = [1.0], [0.0]
    for t in range(1, T + 1):
        base = qx[x + t - 1]
        if base >= 1.0:
            q = 1.0
        else:
            q = min(max(base * (1.0 + imp[x + t - 1]) ** (base_lag + t - 1),
                        0.0), 1.0)
        dq.append(tpx[-1] * q)
        tpx.append(tpx[-1] * (1.0 - q))
    return tpx, dq


def history_returns() -> dict:
    """Annual log-returns of the bundled history; S = s - q."""
    cols = {k: [] for k in ("year", "cpi", "s", "E", "N", "B", "O", "HPI")}
    with open(HISTORY, newline="") as fh:
        for row in csv.DictReader(fh):
            for k in cols:
                cols[k].append(float(row[k]))
    arr = {k: np.array(v) for k, v in cols.items()}
    lr = lambda x: np.log(x[1:] / x[:-1])
    q = lr(arr["cpi"])
    return {"q": q, "S": arr["s"][1:] - q, "e": lr(arr["E"]),
            "n": lr(arr["N"]), "b": lr(arr["B"]), "o": lr(arr["O"]),
            "h": lr(arr["HPI"])}


def initial_state() -> dict:
    """Factor values over the last history year (the simulation start)."""
    return {k: float(v[-1]) for k, v in history_returns().items()}


def esg_path(esg: dict, seed: int, m: int, T: int, omega: float) -> dict:
    """Path m of a panel: factor columns plus R and Q, years 0..T."""
    bits = np.random.Philox(key=np.array([seed & ((1 << 64) - 1), m],
                                         dtype=np.uint64))
    z = np.random.Generator(bits).standard_normal((T, 7))
    p = esg
    sig = [p["sigma_q"], p["sigma_s"], p["sigma_e"], p["sigma_n"],
           p["sigma_b"], p["sigma_o"], p["sigma_h"]]
    x = initial_state()
    path = {k: [x[k]] for k in FACTORS}
    for t in range(T):
        eps = [float(z[t, i]) * sig[i] for i in range(7)]
        q = (1.0 - p["phi_q"]) * p["mu_q"] + p["phi_q"] * x["q"] + eps[0]
        S = p["phi_s"] * x["S"] + (1.0 - p["phi_s"]) * (p["mu_s"] - p["mu_q"]) \
            + eps[1]
        e = (1.0 - p["phi_e"]) * p["mu_e"] + p["phi_e"] * x["e"] + eps[2]
        n = p["psi_n0"] + p["psi_n1"] * x["n"] + p["psi_n2"] * e + eps[3]
        b = p["psi_b0"] + p["psi_b1"] * x["b"] + p["psi_b2"] * n + eps[4]
        o = p["psi_o0"] + p["psi_o1"] * e + p["psi_o2"] * n + eps[5]
        h = p["psi_h0"] + p["psi_h1"] * q + p["psi_h2"] * b + eps[6]
        x = {"q": q, "S": S, "e": e, "n": n, "b": b, "o": o, "h": h}
        for k in FACTORS:
            path[k].append(x[k])
    path["s"] = [S + q for S, q in zip(path["S"], path["q"])]
    path["R"] = [0.0] + [portfolio_return(path, t, omega)
                         for t in range(1, T + 1)]
    path["Q"], acc = [1.0], 0.0
    for t in range(1, T + 1):
        acc += path["q"][t]
        path["Q"].append(math.exp(acc))
    return path


def portfolio_return(path: dict, t: int, omega: float) -> float:
    growth = 0.5 * path["e"][t] + 0.3 * path["n"][t] + 0.2 * path["h"][t]
    defensive = 0.3 * path["s"][t] + 0.5 * path["b"][t] + 0.2 * path["o"][t]
    return omega * growth + (1.0 - omega) * defensive


# ------------------------------------------------------------ the formulas


def pension(W: float, Q: float, p: dict):
    """Annual Age Pension and the branch taken in each of the three tests."""
    full = p["a_max"] * Q
    if W <= p["w_a"] * Q:
        a_asset, asset_branch = full, 0
    else:
        a_asset = full - p["tau_a"] * p["fortnights_per_year"] * (
            W - p["w_a"] * Q)
        asset_branch = 1
        if a_asset < 0.0:
            a_asset, asset_branch = 0.0, 2
    if W <= p["w_i"] * Q:
        deemed, deem_branch = p["r1"] * W, 0
    else:
        deemed = p["r1"] * (p["w_i"] * Q) + p["r2"] * (W - p["w_i"] * Q)
        deem_branch = 1
    if deemed <= p["income_free"] * Q:
        a_income, income_branch = full, 0
    else:
        a_income = full - p["tau_i"] * (deemed - p["income_free"] * Q)
        income_branch = 1
        if a_income < 0.0:
            a_income, income_branch = 0.0, 2
    binding = a_asset < a_income
    A = a_asset if binding else a_income
    return A, (asset_branch, deem_branch, income_branch, binding)


def load_mlp(path) -> dict:
    """A checkpoint's raw arrays (weights plus normalization constants)."""
    with np.load(path, allow_pickle=False) as data:
        out = {n: np.array(data[n], dtype=float) for n in MLP_FIELDS}
        out["horizon"] = float(data["horizon"])
        out["wealth_scale"] = float(data["wealth_scale"])
    return out


def mlp_fraction(net: dict, t: int, W: float, R: float, Q: float):
    """Consumption share of W + A and the ReLU activation pattern."""
    x = np.array([t / net["horizon"], W / net["wealth_scale"], R, Q])
    h1 = net["w0"] @ x + net["b0"][:, 0]
    a1 = np.where(h1 > 0.0, h1, 0.0)
    h2 = net["w1"] @ a1 + net["b1"][:, 0]
    a2 = np.where(h2 > 0.0, h2, 0.0)
    h3 = net["w2"] @ a2 + net["b2"][:, 0]
    a3 = np.where(h3 > 0.0, h3, 0.0)
    z = float(net["w3"][0] @ a3 + net["b3"][0, 0])
    if z >= 0.0:
        frac = 1.0 / (1.0 + math.exp(-z))
    else:
        frac = math.exp(z) / (1.0 + math.exp(z))
    pattern = (h1 > 0.0).tobytes() + (h2 > 0.0).tobytes() + \
        (h3 > 0.0).tobytes()
    return frac, pattern


def policy_rule(net: dict):
    def consume(t, W, A, R, Q):
        frac, pattern = mlp_fraction(net, t, W, R, Q)
        return (W + A) * frac, pattern
    return consume


def strategy_rule(kind: str, model: Model):
    """Nominal consumption of one of the six deterministic strategies."""

    def consume(t, W, A, R, Q):
        age = model.retirement_age + t
        if kind == "minimum":
            rate = MINIMUM_BANDS[0][1]
            for lo, r in MINIMUM_BANDS:
                if age >= lo:
                    rate = r
            c = rate * W + A
        elif kind == "four_percent":
            c = 0.04 * model.w0 * Q + A
        elif kind == "rule_of_thumb":
            bonus = 0.02 if 250_000.0 <= W / Q <= 500_000.0 else 0.0
            c = (int(str(age)[0]) / 100.0 + bonus) * W + A
        else:
            c = REAL_TARGETS[kind] * Q
        return min(max(c, 0.0), W + A), None

    return consume


def _utility(x: float, model: Model) -> float:
    scaled = max(x, model.floor) / model.unit
    return scaled ** (1.0 - model.rho) / (1.0 - model.rho)


def walk(consume, R, Q, curve, model: Model):
    """One path: (lifetime utility, real consumption per year, signature)."""
    tpx, dq = curve
    T = len(tpx) - 1
    coeff = (model.phi / (1.0 - model.phi)) ** model.rho if model.phi else 0.0
    fee_rate = model.account["indirect_cost_ratio"] + \
        model.account["investment_fee"]
    W = model.w0
    total = 0.0
    consumption, signature = [], []
    for t in range(T + 1):
        A, branches = pension(W, Q[t], model.pension)
        C, pattern = consume(t, W, A, R[t], Q[t])
        total += tpx[t] * _utility(C / Q[t], model)
        consumption.append(C / Q[t])
        floored = [C / Q[t] > model.floor]
        if coeff and t >= 1:
            total += dq[t] * coeff * _utility(W / Q[t], model)
            floored.append(W / Q[t] > model.floor)
        if t < T:
            balance = W + A - C - (model.account["admin_fee"] * Q[t]
                                   + fee_rate * W)
            W = max(balance, 0.0) * math.exp(R[t + 1])
            floored.append(balance > 0.0)
        signature.append((branches, pattern, tuple(floored)))
    return total, consumption, signature
