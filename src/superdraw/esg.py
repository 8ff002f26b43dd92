"""Seven-factor economic scenario generator.

Annual log-return dynamics for inflation (q), the real component of the
nominal short rate (S, with s = S + q), domestic equity (e), international
equity (n), domestic bonds (b), international bonds (o) and house prices (h).
Inflation, S and domestic equity are AR(1); the remaining factors cascade off
freshly computed values within the year, in the fixed order
q -> S -> e -> n -> b -> o -> h.

The seven conditional-mean equations are written once, in the `_MEANS`
table; `simulate` also writes the balanced-portfolio return R and the
compound inflation deflator Q. The retiree sees the economy only through R
and Q, so a panel keeps the seven factor columns only when asked to. It
runs the paths in blocks of `SIM_BLOCK`: a block draws its paths' shocks,
runs the whole cascade year-major on (T + 1, block) rows and fills its rows
of the panel's path-major (M, T + 1) columns. Its working memory is the
columns it keeps plus one block, and neither the block size nor the
columns kept change a bit of the panel. It can also fill a run of rows of
a larger panel's columns (`first`, `out`), so that two processes can each
simulate part of one panel.

The module covers three jobs: simulating the model with one
counter-based random stream per path, refitting the coefficients from an
annual historical index table by per-equation OLS, and residual diagnostics
for the fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from ._csvblock import BLOCK_ROWS, read_table, write_csv
from .errors import ConfigError, DataError, NumericError

_DATA_DIR = Path(__file__).resolve().parent / "data"

__all__ = [
    "EsgParams",
    "EconState",
    "HistoricalSeries",
    "ScenarioPanel",
    "DEFAULT_PARAMS",
    "bundled_history_path",
    "check_panel_size",
    "simulate",
    "portfolio_return",
    "calibrate",
    "residual_diagnostics",
    "load_history",
    "log_return_table",
    "initial_state_from_history",
    "save_params",
    "load_params",
    "panel_to_csv",
]

_MASK64 = (1 << 64) - 1
# Largest panel `simulate` builds, in cells of nine (M, T + 1) columns
# whether or not it keeps the seven factor columns.
_MAX_CELLS = 200_000_000
# Paths per block of `simulate`. The block size sets the working memory
# beside the panel, never a bit of it.
SIM_BLOCK = 512


@dataclass(frozen=True)
class EsgParams:
    """Model coefficients; sigma_* are residual standard deviations."""

    mu_q: float
    phi_q: float
    sigma_q: float
    mu_S: float
    phi_S: float
    sigma_S: float
    mu_e: float
    phi_e: float
    sigma_e: float
    psi_n0: float
    psi_n1: float
    psi_n2: float
    sigma_n: float
    psi_b0: float
    psi_b1: float
    psi_b2: float
    sigma_b: float
    psi_o0: float
    psi_o1: float
    psi_o2: float
    sigma_o: float
    psi_h0: float
    psi_h1: float
    psi_h2: float
    sigma_h: float

    def __post_init__(self):
        for name in ("sigma_q", "sigma_S", "sigma_e", "sigma_n",
                     "sigma_b", "sigma_o", "sigma_h"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("phi_q", "phi_S", "phi_e"):
            if not abs(getattr(self, name)) < 1:
                raise ConfigError(f"|{name}| must be < 1 for stationarity")


# Default coefficient set, fitted on the bundled 1992-2020 Australian annual
# series. Kept verbatim as the reference preset even though a re-fit via
# `calibrate` reproduces only some rows exactly (see tests); do not edit in
# place, use dataclasses.replace for variants.
DEFAULT_PARAMS = EsgParams(
    mu_q=0.024, phi_q=0.1346, sigma_q=0.012,
    mu_S=0.141, phi_S=0.813, sigma_S=0.015,
    mu_e=0.085, phi_e=0.164, sigma_e=0.119,
    psi_n0=-0.018, psi_n1=0.104, psi_n2=0.911, sigma_n=0.090,
    psi_b0=0.073, psi_b1=-0.103, psi_b2=-0.050, sigma_b=0.036,
    psi_o0=-0.026, psi_o1=1.340, psi_o2=-0.200, sigma_o=0.081,
    psi_h0=0.066, psi_h1=-0.489, psi_h2=1.037, sigma_h=0.061,
)


@dataclass(frozen=True)
class EconState:
    """Factor values (scalars, or arrays over paths); s = S + q is derived."""

    q: float
    S: float
    e: float
    n: float
    b: float
    o: float
    h: float

    @property
    def s(self) -> float:
        return self.S + self.q


@dataclass(frozen=True)
class HistoricalSeries:
    """Annual index levels; the short rate s is a rate, not an index."""

    year: np.ndarray
    cpi: np.ndarray
    s: np.ndarray
    E: np.ndarray
    N: np.ndarray
    B: np.ndarray
    O: np.ndarray
    HPI: np.ndarray

    def __post_init__(self):
        n = len(self.year)
        for f in fields(self):
            if len(getattr(self, f.name)) != n:
                raise DataError("historical series columns differ in length")
        if np.any(np.diff(self.year) <= 0):
            raise DataError("years must be strictly increasing")
        for name in ("cpi", "E", "N", "B", "O", "HPI"):
            if np.any(getattr(self, name) <= 0):
                raise DataError(f"index column {name} must be positive")

    def __len__(self):
        return len(self.year)


_FACTOR_COLUMNS = ("q", "s", "e", "n", "b", "o", "h")
_PANEL_COLUMNS = _FACTOR_COLUMNS + ("R", "Q")


@dataclass
class ScenarioPanel:
    """M simulated paths over t = 0..T.

    Column t = 0 holds the initial state; R[:, 0] = 0 (no realized prior-year
    return) and Q[:, 0] = 1. For t >= 1, R[:, t] is the portfolio return
    earned over year t-1 -> t and Q[:, t] = exp(sum of q over years 1..t).

    R and Q are always held. The seven factor columns q, s, e, n, b, o and h
    are held in `factors`, by name, only when they were asked for (see
    `simulate`); each present one reads as an attribute, and reading an
    absent one raises AttributeError.
    """

    M: int
    T: int
    R: np.ndarray
    Q: np.ndarray
    factors: dict = field(default_factory=dict)

    def __post_init__(self):
        unknown = self.factors.keys() - _FACTOR_COLUMNS
        if unknown:
            raise DataError(f"unknown panel column(s) {sorted(unknown)}")
        want = (self.M, self.T + 1)
        for name, col in (("R", self.R), ("Q", self.Q),
                          *self.factors.items()):
            if col.shape != want:
                raise DataError(f"panel column {name} has shape "
                                f"{col.shape}, expected {want}")
        if np.any(self.Q[:, 0] != 1.0) or np.any(self.Q <= 0):
            raise DataError("deflator must start at 1 and stay positive")

    def __getattr__(self, name):
        # Reached only for names that are not attributes: the factor columns.
        if name in _FACTOR_COLUMNS:
            try:
                return self.factors[name]
            except KeyError:
                raise AttributeError(
                    f"panel column {name} was not simulated: this panel "
                    "holds only R and Q (simulate with factors=True)"
                ) from None
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    def take(self, idx) -> "ScenarioPanel":
        """Sub-panel of the given path indices, with the same columns."""
        idx = np.asarray(idx)
        return ScenarioPanel(M=len(idx), T=self.T, R=self.R[idx],
                             Q=self.Q[idx],
                             factors={k: c[idx]
                                      for k, c in self.factors.items()})


def bundled_history_path() -> Path:
    """Location of the packaged 1992-2020 Australian annual series."""
    return _DATA_DIR / "au_history_1992_2020.csv"


# ----------------------------------------------------------------- dynamics


# Conditional mean of each equation, in cascade order: `lag` holds last
# year's values, `cur` this year's values of the factors computed so far.
_MEANS = {
    "q": lambda p, lag, cur: (1.0 - p.phi_q) * p.mu_q + p.phi_q * lag["q"],
    "S": lambda p, lag, cur: (p.phi_S * lag["S"]
                              + (1.0 - p.phi_S) * (p.mu_S - p.mu_q)),
    "e": lambda p, lag, cur: (1.0 - p.phi_e) * p.mu_e + p.phi_e * lag["e"],
    "n": lambda p, lag, cur: (p.psi_n0 + p.psi_n1 * lag["n"]
                              + p.psi_n2 * cur["e"]),
    "b": lambda p, lag, cur: (p.psi_b0 + p.psi_b1 * lag["b"]
                              + p.psi_b2 * cur["n"]),
    "o": lambda p, lag, cur: (p.psi_o0 + p.psi_o1 * cur["e"]
                              + p.psi_o2 * cur["n"]),
    "h": lambda p, lag, cur: (p.psi_h0 + p.psi_h1 * cur["q"]
                              + p.psi_h2 * cur["b"]),
}
_FACTORS = tuple(_MEANS)


def _cascade(params: EsgParams, lag: dict, shocks) -> dict:
    """One year of the model: each factor's mean plus its scaled shock."""
    cur = {}
    for k, eps in zip(_FACTORS, shocks):
        cur[k] = _MEANS[k](params, lag, cur) + eps
    return cur


def portfolio_return(state: EconState, omega: float) -> float:
    """Balanced-portfolio return: omega in growth, 1-omega in defensive."""
    if not 0.0 <= omega <= 1.0:
        raise ConfigError("omega must lie in [0, 1]")
    growth = 0.5 * state.e + 0.3 * state.n + 0.2 * state.h
    defensive = 0.3 * state.s + 0.5 * state.b + 0.2 * state.o
    return omega * growth + (1.0 - omega) * defensive


def _path_shocks(params: EsgParams, seed: int, paths: range,
                 T: int) -> np.ndarray:
    """Scaled shocks of the given paths, shape (len(paths), T, 7), in
    cascade order.

    Path m is the Philox stream keyed [seed, m] from counter 0. Philox is
    counter-based, so one bit generator whose key and counter are reset
    for each path draws exactly what a fresh generator per path would.
    """
    bits = np.random.Philox(key=np.array([seed & _MASK64, 0], dtype=np.uint64))
    gen = np.random.Generator(bits)
    state = bits.state                 # counter 0, empty output buffer
    key = state["state"]["key"]
    eps = np.empty((len(paths), T, 7))
    for m, out in zip(paths, eps):
        key[1] = m
        bits.state = state
        gen.standard_normal(out=out)
    eps *= np.array([params.sigma_q, params.sigma_S, params.sigma_e,
                     params.sigma_n, params.sigma_b, params.sigma_o,
                     params.sigma_h])
    return eps


def check_panel_size(M: int, T: int) -> None:
    """ConfigError unless `simulate` builds a panel of M paths over T
    years: both at least 1, and within the cell budget."""
    if M < 1 or T < 1:
        raise ConfigError("M and T must be at least 1")
    if M * (T + 1) * 9 > _MAX_CELLS:
        raise ConfigError(f"panel of {M}x{T + 1} exceeds the cell budget "
                          f"({_MAX_CELLS})")


def simulate(params: EsgParams, initial: EconState, M: int, T: int, seed: int,
             omega: float = 0.7, factors: bool = True, first: int = 0,
             out: dict | None = None) -> ScenarioPanel:
    """Simulate M paths over T years from the given initial state.

    Path m's shocks are the Philox stream keyed [seed, m] from counter 0,
    drawn as T rows of seven standard normals (q, S, e, n, b, o, h) and
    scaled by the sigmas; a path is the same in a panel of any size M and
    whatever `SIM_BLOCK` is. A non-finite R or Q, or a Q that underflows
    to 0, is a NumericError.

    The panel holds R, Q and, with `factors` (the default), the seven factor
    columns. Without them it holds R and Q only: every factor is still
    simulated, since R needs them, but not kept, and R and Q are the same to
    the bit.

    `first` and `out` fill rows of a larger panel: the paths are first ..
    first + M - 1, and `out` maps each kept column to the (M, T + 1) array
    that receives it, such as a slice of rows of the larger panel's column.
    The returned panel holds those arrays.
    """
    check_panel_size(M, T)
    if not all(np.isfinite(getattr(initial, k)).all() for k in _FACTORS):
        raise NumericError("non-finite initial state")

    kept = _PANEL_COLUMNS if factors else ("R", "Q")
    cols = {k: np.empty((M, T + 1)) for k in kept} if out is None \
        else {k: out[k] for k in kept}
    with np.errstate(all="ignore"):
        for m0 in range(0, M, SIM_BLOCK):
            m1 = min(m0 + SIM_BLOCK, M)
            eps = _path_shocks(params, seed, range(first + m0, first + m1), T)
            rows = {k: np.empty((T + 1, m1 - m0)) for k in _FACTORS}
            for k in _FACTORS:
                rows[k][0] = getattr(initial, k)
            for t in range(1, T + 1):
                year = _cascade(params, {k: rows[k][t - 1] for k in _FACTORS},
                                eps[:, t - 1].T)
                for k in _FACTORS:
                    rows[k][t] = year[k]
            state = EconState(**rows)
            R = portfolio_return(state, omega)
            R[0] = 0.0
            Q = np.ones((T + 1, m1 - m0))
            Q[1:] = np.exp(np.cumsum(rows["q"][1:], axis=0))
            for name, col in (("R", R), ("Q", Q)):
                if not np.isfinite(col).all():
                    raise NumericError(f"non-finite {name} in simulated panel")
            if not Q.all():
                raise NumericError("deflator Q underflowed to 0 in simulated "
                                   "panel")
            rows.update(s=state.s, R=R, Q=Q)
            for k in kept:
                cols[k][m0:m1] = rows[k].T
    return ScenarioPanel(M=M, T=T, R=cols.pop("R"), Q=cols.pop("Q"),
                         factors=cols)


# -------------------------------------------------------------- calibration


def load_history(path) -> HistoricalSeries:
    """Read the annual history CSV (header year,cpi,s,E,N,B,O,HPI)."""
    names = [f.name for f in fields(HistoricalSeries)]
    cols = dict(zip(names, read_table(path, names).T))
    cols["year"] = cols["year"].astype(int)
    return HistoricalSeries(**cols)


def log_return_table(history: HistoricalSeries) -> dict:
    """Annual log-returns of the index columns, with s and S aligned.

    Keys q,e,n,b,o,h are log(X_t / X_{t-1}) for the second year onward;
    S = s - q is the real short rate over the same years.
    """
    lr = lambda x: np.log(x[1:] / x[:-1])
    q = lr(history.cpi)
    return {
        "q": q, "S": history.s[1:] - q,
        "e": lr(history.E), "n": lr(history.N), "b": lr(history.B),
        "o": lr(history.O), "h": lr(history.HPI),
    }


def _ols(y: np.ndarray, regressors: list, equation: str):
    """Intercept-plus-slopes OLS. Returns (coef, residuals, sigma).

    sigma is the residual standard error with ddof equal to the number of
    fitted parameters.
    """
    X = np.column_stack([np.ones(len(y))] + regressors)
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise DataError(f"singular design matrix in equation '{equation}'")
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    dof = max(len(y) - X.shape[1], 1)
    sigma = float(np.sqrt(np.sum(resid ** 2) / dof))
    return coef, resid, sigma


def calibrate(history: HistoricalSeries) -> EsgParams:
    """Refit all seven equations from the history by per-equation OLS.

    Regressions follow the model's own right-hand sides (contemporaneous
    cascade regressors, AR(1) in q, S and e). Residual sigmas are floored at
    a tiny positive value so a noiseless synthetic history still yields a
    valid parameter set.
    """
    if len(history) < 10:
        raise DataError("need at least 10 annual records to calibrate")
    tab = log_return_table(history)
    q, S, e, n, b, o, h = (tab[k] for k in ("q", "S", "e", "n", "b", "o", "h"))

    floor = 1e-12
    cq, _, sq = _ols(q[1:], [q[:-1]], "q")
    mu_q = cq[0] / (1.0 - cq[1])
    cS, _, sS = _ols(S[1:], [S[:-1]], "S")
    mu_S = cS[0] / (1.0 - cS[1]) + mu_q
    ce, _, se = _ols(e[1:], [e[:-1]], "e")
    mu_e = ce[0] / (1.0 - ce[1])
    cn, _, sn = _ols(n[1:], [n[:-1], e[1:]], "n")
    cb, _, sb = _ols(b[1:], [b[:-1], n[1:]], "b")
    co, _, so = _ols(o, [e, n], "o")
    ch, _, sh = _ols(h, [q, b], "h")
    return EsgParams(
        mu_q=mu_q, phi_q=cq[1], sigma_q=max(sq, floor),
        mu_S=mu_S, phi_S=cS[1], sigma_S=max(sS, floor),
        mu_e=mu_e, phi_e=ce[1], sigma_e=max(se, floor),
        psi_n0=cn[0], psi_n1=cn[1], psi_n2=cn[2], sigma_n=max(sn, floor),
        psi_b0=cb[0], psi_b1=cb[1], psi_b2=cb[2], sigma_b=max(sb, floor),
        psi_o0=co[0], psi_o1=co[1], psi_o2=co[2], sigma_o=max(so, floor),
        psi_h0=ch[0], psi_h1=ch[1], psi_h2=ch[2], sigma_h=max(sh, floor),
    )


def residual_diagnostics(history: HistoricalSeries, params: EsgParams):
    """Residual series per equation and their cross-correlation matrix.

    Residuals are taken over the common sample (third record onward, where
    every lagged regressor exists). Returns (corr 7x7, residuals dict) with
    factor order q, S, e, n, b, o, h.
    """
    tab = log_return_table(history)
    lag = {k: tab[k][:-1] for k in _FACTORS}
    cur = {k: tab[k][1:] for k in _FACTORS}
    res = {k: cur[k] - _MEANS[k](params, lag, cur) for k in _FACTORS}
    mat = np.corrcoef(np.vstack([res[k] for k in _FACTORS]))
    return mat, res


def initial_state_from_history(history: HistoricalSeries) -> EconState:
    """Starting state for simulations: factor values over the last data year."""
    tab = log_return_table(history)
    return EconState(q=tab["q"][-1], S=tab["S"][-1], e=tab["e"][-1],
                     n=tab["n"][-1], b=tab["b"][-1], o=tab["o"][-1],
                     h=tab["h"][-1])


# ------------------------------------------------------------- serialization


def save_params(params: EsgParams, path) -> None:
    """Write coefficients as flat `name = value` lines."""
    with open(path, "w") as fh:
        for f in fields(params):
            fh.write(f"{f.name} = {float(getattr(params, f.name))!r}\n")


def load_params(path) -> EsgParams:
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected 'name = value'")
            name, _, raw = line.partition("=")
            try:
                value = float(raw)
                if not np.isfinite(value):
                    raise ValueError
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad number {raw!r}") from None
            values[name.strip()] = value
    want = {f.name for f in fields(EsgParams)}
    missing = want - values.keys()
    if missing:
        raise DataError(f"{path}: missing parameter(s) {sorted(missing)}")
    extra = values.keys() - want
    if extra:
        raise DataError(f"{path}: unknown parameter(s) {sorted(extra)}")
    return EsgParams(**values)


def panel_to_csv(panel: ScenarioPanel, path) -> None:
    """Write the panel as CSV text, one row per path and year.

    The header is `path,t,q,s,e,n,b,o,h,R,Q`, so the panel must hold the
    factor columns; one of R and Q only raises AttributeError before the
    file is created. Rows run over t = 0..T within each path, paths in
    order. `path` and `t` are integers and every column value is formatted
    as `%.10g`; lines end in CRLF, as `csv.writer` writes them. With two
    or more paths, paths [M // 2, M) are the file's `tail`: on a machine
    with two usable CPUs a forked helper formats them while this process
    formats the first half, and the file is byte-identical to one written
    by a single process.
    """
    columns = [getattr(panel, c) for c in _PANEL_COLUMNS]
    years = np.arange(panel.T + 1)
    step = max(1, BLOCK_ROWS // (panel.T + 1))

    def blocks(m_start, m_stop):
        for m0 in range(m_start, m_stop, step):
            m1 = min(m0 + step, m_stop)
            cols = [c[m0:m1] for c in columns]
            yield np.stack([*np.broadcast_arrays(np.arange(m0, m1)[:, None],
                                                 years), *cols],
                           axis=-1).reshape(-1, 2 + len(cols))

    row = "%d,%d," + ",".join(["%.10g"] * len(_PANEL_COLUMNS)) + "\r\n"
    half = panel.M // 2 if panel.M >= 2 else panel.M
    write_csv(path, "path,t," + ",".join(_PANEL_COLUMNS) + "\r\n",
              [(row, blocks(0, half))],
              [(row, blocks(half, panel.M))] if half < panel.M else ())
