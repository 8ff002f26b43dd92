"""Deterministic drawdown strategies used as comparison points.

Three rate-based rules (statutory minimum, 4% of initial balance, first
digit of age) consume the pension on top of the drawdown; three target
rules (modest, comfortable, luxury living standards) treat an indexed
annual amount as total consumption with the pension counting toward it.
Rollouts reuse the trainer's engine, so fees, means tests, and the wealth
recursion are byte-identical to what the network is trained on.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import ConfigError
from .esg import ScenarioPanel
from .mortality import SurvivalCurve
from .trainer import TrainConfig, rollout_consume

__all__ = [
    "StrategyKind",
    "MINIMUM_DRAWDOWN_BANDS",
    "REAL_TARGETS",
    "minimum_drawdown_rate",
    "rule_of_thumb_rate",
    "deterministic_consumption",
    "strategy_consumer",
    "rollout_strategy",
]


class StrategyKind(enum.Enum):
    MINIMUM = "minimum"
    FOUR_PERCENT = "four_percent"
    RULE_OF_THUMB = "rule_of_thumb"
    MODEST = "modest"
    COMFORTABLE = "comfortable"
    LUXURY = "luxury"


# Statutory age-banded minimum drawdown rates, (lowest age, rate).
MINIMUM_DRAWDOWN_BANDS = (
    (0, 0.04),
    (65, 0.05),
    (75, 0.06),
    (80, 0.07),
    (85, 0.09),
    (90, 0.11),
    (95, 0.14),
)

# Annual real consumption targets.
REAL_TARGETS = {
    StrategyKind.MODEST: 28_220.0,
    StrategyKind.COMFORTABLE: 44_183.0,
    StrategyKind.LUXURY: 50_000.0,
}

# Rule-of-thumb band bounds on current real wealth, inclusive.
_ROT_BAND = (250_000.0, 500_000.0)


def minimum_drawdown_rate(age: float) -> float:
    if age < 0:
        raise ConfigError("age must be non-negative")
    rate = MINIMUM_DRAWDOWN_BANDS[0][1]
    for lo, r in MINIMUM_DRAWDOWN_BANDS:
        if age >= lo:
            rate = r
    return rate


def rule_of_thumb_rate(age: float, real_wealth):
    """First digit of age as a percentage, plus 2% inside the wealth band."""
    first_digit = int(str(int(age))[0])
    bonus = np.where((np.asarray(real_wealth) >= _ROT_BAND[0])
                     & (np.asarray(real_wealth) <= _ROT_BAND[1]), 0.02, 0.0)
    return first_digit / 100.0 + bonus


def deterministic_consumption(kind: StrategyKind, age: float, W, A, Q,
                              w0: float):
    """Nominal consumption of one strategy; broadcasts over paths."""
    W = np.asarray(W, dtype=float)
    available = W + A
    if kind is StrategyKind.MINIMUM:
        c = minimum_drawdown_rate(age) * W + A
    elif kind is StrategyKind.FOUR_PERCENT:
        c = 0.04 * w0 * Q + A
    elif kind is StrategyKind.RULE_OF_THUMB:
        c = rule_of_thumb_rate(age, W / Q) * W + A
    elif kind in REAL_TARGETS:
        c = REAL_TARGETS[kind] * Q
    else:
        raise ConfigError(f"unknown strategy kind: {kind!r}")
    return np.clip(c, 0.0, available)


def strategy_consumer(kind: StrategyKind, cfg: TrainConfig):
    """Adapter to the rollout engine's consume(t, W, A, R, Q) protocol."""

    def consume(t, W, A, R, Q):
        return deterministic_consumption(kind, cfg.retirement_age + t, W, A,
                                         Q, cfg.w0)

    return consume


def rollout_strategy(kind: StrategyKind, panel: ScenarioPanel,
                     curve: SurvivalCurve, cfg: TrainConfig,
                     record: bool = False):
    """All-paths rollout; returns (per-path utilities, records or None)."""
    return rollout_consume(strategy_consumer(kind, cfg), panel, curve, cfg,
                           record=record)
