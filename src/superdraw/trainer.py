"""Backpropagation-through-time training of the consumption policy.

One rollout engine serves every consumer of the transition dynamics: the
differentiable training objective, plain-numpy evaluation of a trained
policy, and the deterministic baseline strategies. The engine is generic
over a `consume(t, W, A, R, Q) -> C` callable and over value types (ndarray
or Tensor), so there is a single implementation of the yearly loop

    pension -> consumption -> utility weights -> fees -> wealth growth

and gradients flow through the whole 41-year recursion, including the
pension's piecewise branches and the depletion clamp.

Training itself is minibatch gradient ascent with Adam: each iteration
draws a batch of scenario paths, accumulates the mortality-weighted utility
objective on a fresh tape, and applies the bias-corrected update to the
negated gradient.
"""

from __future__ import annotations

import csv
import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import esg as esg_mod
from .account import (AccountParams, PensionParams, age_pension, fees,
                      transition_balance)
from .autodiff import value_of
from .errors import ConfigError, NumericError
from .esg import EconState, EsgParams, ScenarioPanel
from .mortality import SurvivalCurve, load_life_table, survival_curve
from .policy import (PARAM_FIELDS, ForwardTape, MlpParams, PolicyNorm,
                     he_init, lift, normalized_inputs, policy_fraction,
                     save_checkpoint)
from .utility import UtilityParams, bequest_utility, consumption_utility

__all__ = [
    "TrainConfig",
    "TrainReport",
    "TrainingAborted",
    "AdamState",
    "adam_step",
    "rollout",
    "rollout_consume",
    "policy_consumer",
    "PathRecords",
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
    widths: tuple = (20, 20, 20)
    learning_rate: float = 5e-4
    log_every: int = 100
    checkpoint_every: int = 0
    checkpoint_dir: str | None = None
    life_table_path: str | None = None      # None: bundled table

    def __post_init__(self):
        if self.batch_size > self.m_train:
            raise ConfigError("batch_size cannot exceed m_train")
        if self.iterations < 0 or self.m_train < 1:
            raise ConfigError("iterations must be >= 0, m_train >= 1")
        if self.w0 < 0 or self.horizon < 0:
            raise ConfigError("w0 and horizon must be non-negative")

    def effective_utility(self) -> UtilityParams:
        """Utility parameters actually used in objectives.

        A wealth_unit left at the default 1.0 is replaced by the initial
        wealth: identical optimum, and the objective lands at magnitudes
        Adam can work with. An explicitly set unit is honored as-is.
        """
        if self.utility.wealth_unit != 1.0 or self.w0 == 0:
            return self.utility
        return dataclasses.replace(self.utility, wealth_unit=self.w0)

    def norm(self) -> PolicyNorm:
        return PolicyNorm(horizon=max(float(self.horizon), 1.0),
                          wealth_scale=self.w0 if self.w0 > 0 else 1.0)

    def curve(self) -> SurvivalCurve:
        table = load_life_table(self.life_table_path)
        return survival_curve(table, self.gender, self.retirement_age,
                              self.horizon)

    def initial_econ_state(self) -> EconState:
        history = esg_mod.load_history(esg_mod.bundled_history_path())
        return esg_mod.initial_state_from_history(history)

    def training_panel(self) -> ScenarioPanel:
        return esg_mod.simulate(self.esg, self.initial_econ_state(),
                                self.m_train, self.horizon, seed=self.seed,
                                omega=self.account.omega)


@dataclass
class TrainReport:
    """Logged rows of one training run.

    Each row is (iter, objective, wallclock_ms, forward_ms, backward_ms,
    adam_ms): the objective of the logged iteration, milliseconds since the
    loop started, and the time spent since the previous row in batch
    selection plus the taped objective, in the backward pass, and in the
    Adam update.
    """

    rows: list = field(default_factory=list)
    aborted: bool = False

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "objective", "wallclock_ms", "forward_ms",
                        "backward_ms", "adam_ms"])
            for it, obj, *ms in self.rows:
                w.writerow([it, f"{obj:.10g}"] + [f"{x:.1f}" for x in ms])


class TrainingAborted(NumericError):
    """A non-finite training step; `report` holds the rows logged before it."""

    def __init__(self, message: str, report: TrainReport):
        super().__init__(message)
        self.report = report


@dataclass
class PathRecords:
    """Real (deflated) per-year paths captured during numpy-mode rollouts."""

    consumption: np.ndarray   # (paths, T+1)
    wealth: np.ndarray
    pension: np.ndarray


# ------------------------------------------------------------------ rollout


def policy_consumer(p, norm: PolicyNorm):
    """Consumption rule driven by the network; `p` maps names to weights."""

    def consume(t, W, A, R, Q):
        n = len(np.atleast_1d(np.asarray(Q, dtype=float)))
        x = normalized_inputs(np.full(n, float(t)), W, R, Q, norm)
        return (W + A) * policy_fraction(p, x)

    return consume


def _rollout_engine(consume, panel: ScenarioPanel, curve: SurvivalCurve,
                    cfg: TrainConfig, record: bool = False):
    """Apply the yearly loop to all paths of `panel` at once.

    Returns (per-path lifetime utilities, PathRecords or None). When
    `consume` returns Tensors the utilities come back as a Tensor of shape
    (paths,) on a live tape; record mode requires plain numpy.
    """
    T = panel.T
    if curve.horizon != T:
        raise ConfigError(f"survival horizon {curve.horizon} != panel {T}")
    uparams = cfg.effective_utility()
    B = panel.M
    # Both start as data; on a tape they join it through the first
    # consumption, which depends on the network weights.
    W = np.full(B, cfg.w0)
    total = np.zeros(B)
    rec = None
    if record:
        rec = PathRecords(consumption=np.empty((B, T + 1)),
                          wealth=np.empty((B, T + 1)),
                          pension=np.empty((B, T + 1)))
    for t in range(T + 1):
        Qt = panel.Q[:, t]
        A = age_pension(W, Qt, cfg.pension)
        C = consume(t, W, A, panel.R[:, t], Qt)
        inv_q = 1.0 / Qt
        total = total + curve.tpx[t] * consumption_utility(C * inv_q, uparams)
        if uparams.phi > 0.0 and t >= 1:
            total = total + curve.dq[t] * bequest_utility(W * inv_q, uparams)
        if record:
            rec.consumption[:, t] = np.asarray(C) * inv_q
            rec.wealth[:, t] = np.asarray(W) * inv_q
            rec.pension[:, t] = np.asarray(A) * inv_q
        if t < T:
            fee = fees(W, Qt, cfg.account)
            W = transition_balance(W, A, C, fee, panel.R[:, t + 1])
            if not np.all(np.isfinite(value_of(W))):
                raise NumericError(f"non-finite wealth after year t={t}")
    return total, rec


def rollout_consume(consume, panel: ScenarioPanel, curve: SurvivalCurve,
                    cfg: TrainConfig, record: bool = False):
    """Numpy-mode rollout of an arbitrary consumption rule over a panel."""
    return _rollout_engine(consume, panel, curve, cfg, record=record)


def rollout(params: MlpParams, panel: ScenarioPanel, m: int,
            cfg: TrainConfig, curve: SurvivalCurve | None = None):
    """Objective term of one path under the policy; returns (value, tape).

    The tape spans the full trajectory, so `policy.backward` on it yields
    the gradient of this path's realized utility w.r.t. every weight.
    """
    if curve is None:
        curve = cfg.curve()
    p = lift(params)
    total, _ = _rollout_engine(policy_consumer(p, cfg.norm()),
                               panel.take([m]), curve, cfg)
    obj = total.sum()
    return float(obj.value), ForwardTape(output=obj, params=p)


def batch_objective(params: MlpParams, panel: ScenarioPanel,
                    curve: SurvivalCurve, cfg: TrainConfig):
    """Mean per-path objective over a (sub-)panel, on a live tape."""
    p = lift(params)
    total, _ = _rollout_engine(policy_consumer(p, cfg.norm()), panel, curve,
                               cfg)
    return total.mean(), p


# --------------------------------------------------------------------- adam


@dataclass
class AdamState:
    m: dict
    v: dict
    k: int = 0
    alpha: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps_hat: float = 1e-8

    @classmethod
    def fresh(cls, params: MlpParams, alpha: float = 5e-4) -> "AdamState":
        zeros = {n: np.zeros_like(getattr(params, n)) for n in PARAM_FIELDS}
        return cls(m=zeros, v={n: z.copy() for n, z in zeros.items()},
                   alpha=alpha)


def adam_step(state: AdamState, params: MlpParams,
              grad: MlpParams) -> tuple[AdamState, MlpParams]:
    """One bias-corrected update; descends along `grad`."""
    k = state.k + 1
    b1, b2 = state.beta1, state.beta2
    new_m, new_v, new_p = {}, {}, {}
    for n in PARAM_FIELDS:
        g = getattr(grad, n)
        m = b1 * state.m[n] + (1.0 - b1) * g
        v = b2 * state.v[n] + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** k)
        v_hat = v / (1.0 - b2 ** k)
        new_m[n] = m
        new_v[n] = v
        new_p[n] = getattr(params, n) - state.alpha * m_hat / (
            np.sqrt(v_hat) + state.eps_hat)
    next_state = AdamState(m=new_m, v=new_v, k=k, alpha=state.alpha,
                           beta1=b1, beta2=b2, eps_hat=state.eps_hat)
    return next_state, MlpParams(**new_p)


# -------------------------------------------------------------------- train


def train(cfg: TrainConfig, panel: ScenarioPanel | None = None,
          progress=None) -> tuple[MlpParams, TrainReport]:
    """Maximize the expected lifetime utility by minibatch gradient ascent.

    Deterministic for a fixed config: the scenario panel derives from
    cfg.seed, the initialization from cfg.seed + 1, and the batch schedule
    from cfg.seed + 2. Pass `panel` to reuse a pre-simulated training panel
    (it must match cfg.m_train and cfg.horizon). `progress`, if given, is
    called with (iteration, objective) at the logging cadence. With
    `cfg.checkpoint_dir` set, numbered checkpoints are written at iteration
    0, every `checkpoint_every` iterations and at the last one, which
    `checkpoint_final.npz` repeats. A non-finite step raises
    `TrainingAborted`, which carries the rows logged before it.
    """
    curve = cfg.curve()
    if panel is None:
        panel = cfg.training_panel()
    if panel.M != cfg.m_train or panel.T != cfg.horizon:
        raise ConfigError("supplied panel does not match the config")
    params = he_init(*cfg.widths, seed=cfg.seed + 1)
    adam = AdamState.fresh(params, alpha=cfg.learning_rate)
    batch_rng = np.random.default_rng(cfg.seed + 2)
    report = TrainReport()
    ckpt_dir = Path(cfg.checkpoint_dir) if cfg.checkpoint_dir else None
    if ckpt_dir:
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(ckpt_dir / "checkpoint_000000.npz", params,
                        cfg.norm(), iteration=0)

    phase_ms = np.zeros(3)        # forward, backward, adam since last row
    t_start = time.perf_counter()
    for it in range(1, cfg.iterations + 1):
        t0 = time.perf_counter()
        if cfg.batch_size < cfg.m_train:
            idx = batch_rng.choice(cfg.m_train, size=cfg.batch_size,
                                   replace=False)
            sub = panel.take(idx)
        else:
            sub = panel
        # Any non-finite wealth, objective, gradient or update ends the run
        # with the last good weights on disk. MlpParams rejects non-finite
        # entries, which covers the gradient and the Adam update.
        try:
            obj, p = batch_objective(params, sub, curve, cfg)
            value = float(obj.value)
            if not np.isfinite(value):
                raise NumericError("objective diverged")
            t1 = time.perf_counter()
            obj.backward()
            t2 = time.perf_counter()
            grads = MlpParams(**{n: -p[n].grad if p[n].grad is not None
                                 else np.zeros_like(getattr(params, n))
                                 for n in PARAM_FIELDS})
            adam, params = adam_step(adam, params, grads)
        except NumericError as exc:
            report.aborted = True
            if ckpt_dir:
                save_checkpoint(ckpt_dir / "checkpoint_abort.npz", params,
                                cfg.norm(), iteration=it - 1)
            raise TrainingAborted(f"{exc} at iteration {it}", report) \
                from None
        phase_ms += np.array([t1 - t0, t2 - t1, time.perf_counter() - t2]) \
            * 1e3

        if it % max(cfg.log_every, 1) == 0 or it == cfg.iterations:
            ms = (time.perf_counter() - t_start) * 1e3
            report.rows.append((it, value, ms, *phase_ms.tolist()))
            phase_ms[:] = 0.0
            if progress is not None:
                progress(it, value)
        if ckpt_dir and (it == cfg.iterations or cfg.checkpoint_every > 0
                         and it % cfg.checkpoint_every == 0):
            save_checkpoint(ckpt_dir / f"checkpoint_{it:06d}.npz", params,
                            cfg.norm(), iteration=it)

    if ckpt_dir:
        save_checkpoint(ckpt_dir / "checkpoint_final.npz", params,
                        cfg.norm(), iteration=cfg.iterations)
    return params, report
