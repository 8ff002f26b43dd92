"""Backpropagation-through-time training of the consumption policy.

One rollout engine serves every consumer of the transition dynamics: the
training objective, plain-numpy evaluation of a trained policy, and the
deterministic baseline strategies. The engine is generic over a
`consume(t, W, A, R, Q) -> C` callable, so there is a single implementation
of the yearly loop

    pension -> consumption -> utility weights -> fees -> wealth growth

For training the loop also keeps each block's local slope, and `_sweep`
runs lambda_t = dJ/dW_t back through the whole 41-year recursion,
including the pension's piecewise branches and the depletion clamp.

Training itself is minibatch gradient ascent with Adam: each iteration
draws a batch of scenario paths, evaluates the mortality-weighted utility
objective, runs the sweep, and applies the bias-corrected update to the
negated gradient. The step starts at 3.25 times the configured learning
rate and decays linearly back to it by iteration 800.

The weights start from `he_init`, except the head bias b3. It is set so
that the untrained network spends the annuity drawdown in year 0: the
fraction f0 = (w0 / a + A0) / (w0 + A0) of the resources w0 + A0, where a
is the mortality-weighted real annuity factor at the training panel's own
returns (`annuity_factor`) and A0 the year-0 pension. Every path has the
same year-0 input, so the fraction is f0 on every path. Where f0 is not
finite or not strictly inside (0, 1) (a horizon of 0, w0 = 0, or returns
so high that every later year discounts to 0) b3 stays at 0.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import esg as esg_mod
from ._csvblock import write_csv
from .account import (AccountParams, PensionParams, age_pension, fees,
                      transition_balance)
from .autodiff import Tensor
from .errors import ConfigError, NumericError
from .esg import EconState, EsgParams, ScenarioPanel
from .mortality import (_GENDERS, SurvivalCurve, load_life_table,
                        survival_curve)
from .policy import (PARAM_FIELDS, MlpParams, PolicyNorm, fraction_backward,
                     he_init, normalized_inputs, policy_fraction,
                     save_checkpoint)
from .utility import UtilityParams, bequest_utility, consumption_utility

__all__ = [
    "TrainConfig",
    "TrainReport",
    "TrainingAborted",
    "AdamState",
    "adam_step",
    "adam_step_size",
    "rollout",
    "rollout_consume",
    "network_consumer",
    "PathRecords",
    "annuity_factor",
    "train",
]


@dataclass
class TrainConfig:
    """Model and optimization settings; also reused for evaluation."""

    m_train: int = 5_000
    iterations: int = 2_500
    batch_size: int = 512
    seed: int = 0
    horizon: int = 41
    retirement_age: int = 67
    gender: str = "male"
    w0: float = 500_000.0
    utility: UtilityParams = field(default_factory=UtilityParams)
    pension: PensionParams = field(default_factory=PensionParams)
    account: AccountParams = field(default_factory=AccountParams)
    esg: EsgParams = esg_mod.DEFAULT_PARAMS
    learning_rate: float = 5e-4
    log_every: int = 100
    checkpoint_every: int = 0               # 0: 5 x log_every
    life_table: str | None = None           # None: bundled table

    def __post_init__(self):
        if not 1 <= self.batch_size <= self.m_train:
            raise ConfigError("batch_size must be >= 1 and <= m_train")
        if self.iterations < 0 or self.seed < 0 or self.m_train < 1:
            raise ConfigError("iterations and seed must be >= 0, m_train >= 1")
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be finite and > 0")
        if not 0.0 <= self.w0 < np.inf:
            raise ConfigError("w0 must be finite and >= 0")
        if self.horizon < 0:
            raise ConfigError("horizon must be >= 0")
        if self.log_every < 1 or self.checkpoint_every < 0:
            raise ConfigError("log_every must be >= 1, checkpoint_every >= 0")
        if self.gender not in _GENDERS:
            raise ConfigError(f"gender must be one of {_GENDERS}, "
                              f"got {self.gender!r}")
        if self.checkpoint_every == 0:
            self.checkpoint_every = 5 * self.log_every
        # A path at the floor must still give a finite objective and slope;
        # past about rho = 19.6 at the desk unit, u' overflows to inf there.
        u = self.effective_utility()
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            at_floor = [block(u.floor_epsilon, u, slope=True)
                        for block in (consumption_utility, bequest_utility)]
        if not np.all(np.isfinite(at_floor)):
            raise ConfigError(
                f"utility or its slope at floor_epsilon {u.floor_epsilon} is "
                f"not finite for rho {u.rho} at wealth unit {u.wealth_unit}")

    def effective_utility(self) -> UtilityParams:
        """Utility parameters actually used in objectives.

        A wealth_unit of 1.0, left at the default or set, is replaced by
        the initial wealth unless w0 is 0: identical optimum, and the
        objective lands at magnitudes Adam can work with.
        """
        if self.utility.wealth_unit != 1.0 or self.w0 == 0:
            return self.utility
        return dataclasses.replace(self.utility, wealth_unit=self.w0)

    def norm(self) -> PolicyNorm:
        return PolicyNorm(horizon=max(float(self.horizon), 1.0),
                          wealth_scale=self.w0 if self.w0 > 0 else 1.0)

    def curve(self) -> SurvivalCurve:
        """Survival curve over the horizon; a horizon that runs past the
        life table's terminal age is a configuration error."""
        table = load_life_table(self.life_table)
        if not table.min_age <= self.retirement_age <= \
                table.terminal_age + 1 - self.horizon:
            raise ConfigError(
                f"retirement_age {self.retirement_age} + horizon "
                f"{self.horizon} does not fit the life table's ages "
                f"{table.min_age}-{table.terminal_age}")
        return survival_curve(table, self.gender, self.retirement_age,
                              self.horizon)

    def initial_econ_state(self) -> EconState:
        history = esg_mod.load_history(esg_mod.bundled_history_path())
        return esg_mod.initial_state_from_history(history)

    def panel(self, M: int, seed: int, T: int | None = None,
              factors: bool = False, first: int = 0,
              out: dict | None = None) -> ScenarioPanel:
        """M scenario paths over T years (default: the horizon).

        The retiree sees the economy only through R and Q, so the panel
        holds those two columns unless `factors` asks for all nine.
        `first` and `out` fill rows of a larger panel, as in
        `esg.simulate`.
        """
        return esg_mod.simulate(self.esg, self.initial_econ_state(), M,
                                self.horizon if T is None else T, seed=seed,
                                omega=self.account.omega, factors=factors,
                                first=first, out=out)

    def training_panel(self) -> ScenarioPanel:
        return self.panel(self.m_train, self.seed)


@dataclass
class TrainReport:
    """Logged rows of one training run.

    Each row is (iter, objective, wallclock_ms, forward_ms, backward_ms,
    adam_ms, step_size, depleted): the objective of the logged iteration,
    milliseconds since the loop started, the time spent since the previous
    row in batch selection plus the objective's forward pass, in the sweep,
    and in the Adam update, then the iteration's Adam step and how many
    paths of its batch hit the depletion floor.
    """

    rows: list = field(default_factory=list)

    def to_csv(self, path) -> None:
        write_csv(path, "iter,objective,wallclock_ms,forward_ms,backward_ms,"
                  "adam_ms,step_size,depleted\r\n",
                  [("%d,%.10g" + ",%.1f" * 4 + ",%.10g,%d\r\n",
                    [self.rows])])


class TrainingAborted(NumericError):
    """A non-finite training step; `report` holds the rows logged before it."""

    def __init__(self, message: str, report: TrainReport):
        super().__init__(message)
        self.report = report


@dataclass
class PathRecords:
    """Real (deflated) per-year paths captured during numpy-mode rollouts.

    Each field is (paths, T+1). The engine's fields are transposed views of
    year-major (T+1, paths) buffers, so each year's write is one contiguous
    row; `.T` gives that buffer back.
    """

    consumption: np.ndarray   # (paths, T+1)
    wealth: np.ndarray
    pension: np.ndarray


# ------------------------------------------------------------------ rollout


# Paths per network pass when evaluating: a 20 x 20 x 512 matrix product is
# below OpenBLAS's single-thread limit of 65,536 x 4 multiply-adds, so an
# evaluation never wakes a BLAS thread, and two processes can evaluate on
# two cores without their BLAS threads taking each other's core. The block
# must be a multiple of the matrix kernels' column width (8 for OpenBLAS's
# Haswell kernel; 500 is not) for each path to get the bits of one pass;
# a power of two is a multiple of every such width.
EVAL_BLOCK = 512
_BIASES = ("b0", "b1", "b2", "b3")


def network_consumer(params: MlpParams, norm: PolicyNorm,
                     kept: list | None = None):
    """Consumption rule driven by the network.

    With `kept` a list, each call appends the year's resources W + A and
    the network's (fraction, layers) for `_sweep`. Without it the network
    runs over blocks of at most EVAL_BLOCK paths; each path's fraction is
    bit for bit what one pass over all paths gives.
    """
    w = {n: getattr(params, n) for n in PARAM_FIELDS}
    if kept is None:
        # Biases broadcast to a whole block once: adding a contiguous
        # (k, EVAL_BLOCK) array does the same additions as adding the
        # (k, 1) bias, at about a third of the cost.
        full = {**w, **{n: np.ascontiguousarray(np.broadcast_to(
            w[n], (len(w[n]), EVAL_BLOCK))) for n in _BIASES}}

    def consume(t, W, A, R, Q):
        x = normalized_inputs(np.full(len(Q), float(t)), W, R, Q, norm)
        if kept is not None:
            frac, layers = policy_fraction(w, x)
            kept.append((W + A, frac, layers))
        else:
            frac = np.empty(len(Q))
            for i in range(0, len(Q), EVAL_BLOCK):
                xb = x[:, i:i + EVAL_BLOCK]
                wb = full if xb.shape[1] == EVAL_BLOCK else \
                    {**full, **{n: full[n][:, :xb.shape[1]]
                                for n in _BIASES}}
                frac[i:i + EVAL_BLOCK] = policy_fraction(wb, xb)[0]
        return (W + A) * frac

    return consume


def _with_slope(out, keep: bool):
    """(value, slope) of a block asked with `slope=keep`; slope None if not."""
    return out if keep else (out, None)


def _rollout_engine(consume, R: np.ndarray, Q: np.ndarray,
                    curve: SurvivalCurve, cfg: TrainConfig,
                    record: bool = False, kept: list | None = None):
    """Apply the yearly loop to all paths at once.

    `R` and `Q` are the (paths, T+1) return and deflator columns of a
    scenario panel, the only columns the loop reads. They are copied once to
    year-major (T+1, paths) order, so that every year reads contiguous rows
    and the records are written as rows. Returns (per-path lifetime
    utilities, PathRecords or None). With `kept` a list, each year appends
    the slopes `_sweep` reads: (1/Q, dA/dW, u'(C/Q), v'(W/Q) or None,
    dW'/d(W + A - C - fee) or None).
    """
    B, T = R.shape[0], R.shape[1] - 1
    if curve.horizon != T:
        raise ConfigError(f"survival horizon {curve.horizon} != panel {T}")
    R, Q = np.ascontiguousarray(R.T), np.ascontiguousarray(Q.T)
    uparams = cfg.effective_utility()
    keep = kept is not None
    W = np.full(B, cfg.w0)
    total = np.zeros(B)
    rec = None
    if record:
        rec = PathRecords(*(np.empty((T + 1, B)).T for _ in range(3)))
    for t in range(T + 1):
        Qt = Q[t]
        A, dA = _with_slope(age_pension(W, Qt, cfg.pension, slope=keep), keep)
        C = consume(t, W, A, R[t], Qt)
        inv_q = 1.0 / Qt
        u, du = _with_slope(consumption_utility(C * inv_q, uparams,
                                                slope=keep), keep)
        total = total + curve.tpx[t] * u
        dv = None
        if uparams.phi > 0.0 and t >= 1:
            v, dv = _with_slope(bequest_utility(W * inv_q, uparams,
                                                slope=keep), keep)
            total = total + curve.dq[t] * v
        if record:
            np.multiply(C, inv_q, out=rec.consumption.T[t])
            np.multiply(W, inv_q, out=rec.wealth.T[t])
            np.multiply(A, inv_q, out=rec.pension.T[t])
        d_next = None
        if t < T:
            fee = fees(W, Qt, cfg.account)
            W, d_next = _with_slope(transition_balance(
                W, A, C, fee, R[t + 1], slope=keep), keep)
            if not np.all(np.isfinite(W)):
                raise NumericError(f"non-finite wealth after year t={t}")
        if keep:
            kept.append((inv_q, dA, du, dv, d_next))
    return total, rec


def _sweep(params: MlpParams, net: list, years: list, seed: float,
           curve: SurvivalCurve, cfg: TrainConfig) -> list:
    """Weight gradients of seed * (sum of per-path utilities), in
    PARAM_FIELDS order, from the years one rollout kept.

    The adjoint lambda_t = dJ/dW_t runs from the last year back. With
    C = (W + A) f(x), x carrying W / wealth_scale, and b = lambda_{t+1} times
    the slope of W_{t+1} in W + A - C - fee (dropping the year index t):

        dJ/dC    = seed tpx u'(C/Q) / Q - b
        lambda_t = seed dq v'(W/Q) / Q + b (1 + dA/dW - fee_rate)
                   + dJ/dC (f (1 + dA/dW) + (W + A) df/dW)

    and the network's backward pass adds each year's weight gradients. The
    terms are summed in the order the earlier general-purpose tape used, so
    training reproduces its checkpoints bit for bit.
    """
    w = {n: getattr(params, n) for n in PARAM_FIELDS}
    grads = {n: np.zeros_like(w[n]) for n in PARAM_FIELDS}
    fee_rate = cfg.account.fee_rate
    scale = 1.0 / cfg.norm().wealth_scale
    lam = 0.0                      # lambda_{t+1}; 0 after the last year
    for t in range(len(years) - 1, -1, -1):
        inv_q, dA, du, dv, d_next = years[t]
        resources, frac, layers = net[t]
        last = d_next is None
        b = 0.0 if last else lam * d_next
        dC = seed * curve.tpx[t] * du * inv_q - b
        dx = fraction_backward(w, layers, frac, dC * resources, grads)
        dS = dC * frac             # through the resources W + A
        bequest = 0.0 if dv is None else seed * curve.dq[t] * dv * inv_q
        # The bequest term comes first, except in the last year.
        lam = b if last else bequest + b
        lam = lam + dS + (b + dS) * dA + dx[1] * scale - b * fee_rate
        if last:
            lam = lam + bequest
    return [grads[n] for n in PARAM_FIELDS]


def rollout_consume(consume, panel: ScenarioPanel, curve: SurvivalCurve,
                    cfg: TrainConfig, record: bool = False):
    """Numpy-mode rollout of an arbitrary consumption rule over a panel."""
    return _rollout_engine(consume, panel.R, panel.Q, curve, cfg,
                           record=record)


def batch_objective(params: MlpParams, R: np.ndarray, Q: np.ndarray,
                    curve: SurvivalCurve, cfg: TrainConfig):
    """(objective, leaves, depleted): the mean per-path objective over the
    rows of the panel columns R and Q, as a root node whose `backward` runs
    `_sweep` into the eight weight leaves, and how many of those paths hit
    the depletion floor in some year. The transition's slope is
    (W + A - C - fee > 0) e^R, and e^R of a simulated return is positive (it
    underflows only for R below about -745), so a zero slope is exactly the
    clamp at 0. Reading the slopes the sweep keeps anyway adds no per-year
    array to the step."""
    net, years = [], []
    total, _ = _rollout_engine(network_consumer(params, cfg.norm(), net), R,
                               Q, curve, cfg, kept=years)
    p = {n: Tensor(getattr(params, n)) for n in PARAM_FIELDS}
    obj = Tensor(total.mean(), list(p.values()), lambda: _sweep(
        params, net, years, 1.0 / len(total), curve, cfg))
    hit = np.zeros(len(total), dtype=bool)
    for *_, d_next in years[:-1]:
        hit |= d_next == 0.0
    return obj, p, int(hit.sum())


def rollout(params: MlpParams, panel: ScenarioPanel, m: int,
            cfg: TrainConfig, curve: SurvivalCurve):
    """Objective term of one path under the policy; returns (value, tape).

    `policy.backward` on the tape, the objective's root node, yields the
    gradient of this path's realized utility w.r.t. every weight.
    """
    obj, _, _ = batch_objective(params, panel.R[[m]], panel.Q[[m]], curve,
                                cfg)
    return float(obj.value), obj


# --------------------------------------------------------------------- adam

# Adam's moment decay rates and the denominator's epsilon.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# The step schedule: the step starts at ADAM_START_FACTOR times the
# learning rate, falls linearly to the learning rate at ADAM_DECAY_ITERATIONS
# and stays there. Both are fixed, not [train] keys: a schedule is judged
# over several training seeds and the six acceptance variants together
# (see README), and nearby settings fail there.
ADAM_START_FACTOR, ADAM_DECAY_ITERATIONS = 3.25, 800


def adam_step_size(learning_rate: float, k: int) -> float:
    """The Adam step of iteration k >= 1: `learning_rate` times
    3.25 - 2.25 k / 800 up to k = 800, and `learning_rate` from then on."""
    return learning_rate * (1.0 + (ADAM_START_FACTOR - 1.0)
                            * max(0.0, 1.0 - k / ADAM_DECAY_ITERATIONS))


@dataclass
class AdamState:
    """Adam's moments after k updates."""

    m: dict
    v: dict
    k: int = 0

    @classmethod
    def fresh(cls, params: MlpParams) -> "AdamState":
        zeros = {n: np.zeros_like(getattr(params, n)) for n in PARAM_FIELDS}
        return cls(m=zeros, v={n: z.copy() for n, z in zeros.items()})


def adam_step(state: AdamState, params: MlpParams, grad: MlpParams,
              alpha: float) -> tuple[AdamState, MlpParams]:
    """One bias-corrected update of step `alpha`; descends along `grad`.
    Raises NumericError if a moment is not finite."""
    k = state.k + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    new_m, new_v, new_p = {}, {}, {}
    for n in PARAM_FIELDS:
        g = getattr(grad, n)
        m = b1 * state.m[n] + (1.0 - b1) * g
        v = b2 * state.v[n] + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** k)
        v_hat = v / (1.0 - b2 ** k)
        new_m[n] = m
        new_v[n] = v
        new_p[n] = getattr(params, n) - alpha * m_hat / (
            np.sqrt(v_hat) + ADAM_EPS)
    # An infinite second moment would make every update 0, and the run
    # would go on with frozen weights.
    if not all(np.all(np.isfinite(x)) for x in (*new_m.values(),
                                                *new_v.values())):
        raise NumericError("non-finite Adam moment")
    next_state = AdamState(m=new_m, v=new_v, k=k)
    return next_state, MlpParams(**new_p)


# -------------------------------------------------------------------- train


def annuity_factor(R: np.ndarray, Q: np.ndarray, tpx: np.ndarray) -> float:
    """Mortality-weighted real annuity factor of the (paths, T+1) panel
    columns R and Q:

        sum_t tpx[t] mean_m(Q[m, t] exp(-sum_{s<=t} R[m, s]))

    the price at retirement of one real dollar a year while alive,
    discounted at the panel's own returns. Runs one year at a time on
    (paths,) vectors, so it adds no (paths, T+1) temporary to a training
    run. inf or NaN where the discount overflows.
    """
    log_growth = np.zeros(R.shape[0])
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(R.shape[1]):
            log_growth += R[:, t]
            total += tpx[t] * float(np.mean(Q[:, t] * np.exp(-log_growth)))
    return total


def _annuity_start(params: MlpParams, cfg: TrainConfig, panel: ScenarioPanel,
                   curve: SurvivalCurve) -> tuple[MlpParams, str]:
    """`params` with the head bias that makes the year-0 fraction the
    annuity drawdown f0, and a line describing it; `params` unchanged if
    f0 is not strictly inside (0, 1)."""
    annuity = annuity_factor(panel.R, panel.Q, curve.tpx)
    pension = float(age_pension(cfg.w0, 1.0, cfg.pension))
    # a is at least 1 (year 0 alone gives 1) or NaN, and A0 > 0 at w0 = 0.
    f0 = (cfg.w0 / annuity + pension) / (cfg.w0 + pension)
    if not 0.0 < f0 < 1.0:           # also False for NaN
        return params, (f"initial year-0 fraction {f0:.4g} is not inside "
                        f"(0, 1); head bias kept at 0")
    x0 = normalized_inputs(np.zeros(1), np.full(1, cfg.w0), np.zeros(1),
                           np.ones(1), cfg.norm())
    _, layers = policy_fraction({n: getattr(params, n) for n in PARAM_FIELDS},
                                x0)
    b3 = np.log(f0) - np.log1p(-f0) - params.w3 @ layers[-1]
    return (dataclasses.replace(params, b3=b3),
            f"initial year-0 fraction {f0:.4f} (annuity factor "
            f"{annuity:.2f}, pension ${pension:,.0f})")


def train(cfg: TrainConfig, panel: ScenarioPanel | None = None,
          progress=None, checkpoint_dir=None,
          curve: SurvivalCurve | None = None,
          log=None) -> tuple[MlpParams, TrainReport]:
    """Maximize the expected lifetime utility by minibatch gradient ascent.

    Deterministic for a fixed config: the scenario panel derives from
    cfg.seed, the initialization from cfg.seed + 1 (its head bias also
    from the panel, the survival curve, w0 and the pension), and the batch
    schedule from cfg.seed + 2. Pass `panel` to reuse a pre-simulated
    training panel (it must match cfg.m_train and cfg.horizon), and
    `curve` to reuse `cfg.curve()`. Iteration k takes the Adam step
    `adam_step_size(cfg.learning_rate, k)`. `log`, if given, is called
    once before iteration 1 with a line naming the initial year-0
    fraction. `progress`, if given, is
    called with (iteration, objective) at the logging cadence. With
    `checkpoint_dir` set, numbered checkpoints are written at iteration
    0, every `checkpoint_every` iterations and at the last one, which
    `checkpoint_final.npz` repeats. A non-finite step raises
    `TrainingAborted`, which carries the rows logged before it.
    """
    if curve is None:
        curve = cfg.curve()
    if panel is None:
        panel = cfg.training_panel()
    if panel.M != cfg.m_train or panel.T != cfg.horizon:
        raise ConfigError("supplied panel does not match the config")
    params, start = _annuity_start(he_init(seed=cfg.seed + 1), cfg, panel,
                                   curve)
    if log is not None:
        log(start)
    adam = AdamState.fresh(params)
    batch_rng = np.random.default_rng(cfg.seed + 2)
    report = TrainReport()

    def save(name: str, iteration: int) -> None:
        """The current `params` as checkpoint_<name>.npz, if checkpointing."""
        if checkpoint_dir:
            Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
            save_checkpoint(Path(checkpoint_dir) / f"checkpoint_{name}.npz",
                            params, cfg.norm(), iteration=iteration)

    save("000000", 0)

    phase_ms = np.zeros(3)        # forward, backward, adam since last row
    t_start = time.perf_counter()
    for it in range(1, cfg.iterations + 1):
        t0 = time.perf_counter()
        R, Q = panel.R, panel.Q
        if cfg.batch_size < cfg.m_train:
            idx = batch_rng.choice(cfg.m_train, size=cfg.batch_size,
                                   replace=False)
            R, Q = R[idx], Q[idx]
        # Any non-finite wealth, objective, gradient, Adam moment or update
        # ends the run with the last good weights on disk. MlpParams rejects
        # non-finite entries, which covers the gradient and the update. As
        # each of these is checked, the step runs without overflow warnings.
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                obj, p, depleted = batch_objective(params, R, Q, curve, cfg)
                value = float(obj.value)
                if not np.isfinite(value):
                    raise NumericError("objective diverged")
                t1 = time.perf_counter()
                obj.backward()
                t2 = time.perf_counter()
                grads = MlpParams(**{n: -p[n].grad for n in PARAM_FIELDS})
                alpha = adam_step_size(cfg.learning_rate, it)
                adam, params = adam_step(adam, params, grads, alpha)
        except NumericError as exc:
            save("abort", it - 1)
            raise TrainingAborted(f"{exc} at iteration {it}", report) \
                from None
        phase_ms += np.array([t1 - t0, t2 - t1, time.perf_counter() - t2]) \
            * 1e3

        if it % cfg.log_every == 0 or it == cfg.iterations:
            ms = (time.perf_counter() - t_start) * 1e3
            report.rows.append((it, value, ms, *phase_ms.tolist(),
                                alpha, depleted))
            phase_ms[:] = 0.0
            if progress is not None:
                progress(it, value)
        if it == cfg.iterations or it % cfg.checkpoint_every == 0:
            save(f"{it:06d}", it)
    save("final", cfg.iterations)
    return params, report
