"""Means-tested pension, fund fees, wealth transition.

Every threshold and payment indexes with the compound deflator Q (base year
Q = 1; `esg.simulate` writes it into the scenario panel), so the whole block
is homogeneous of degree one in (W, Q): real outcomes depend only on real
wealth W/Q.

Each block (the pension, the fee, the wealth transition) computes its value
once, from one NumPy expression, for plain numpy evaluation and training
alike. Given a Tensor input it wraps that same value in one tape node whose
local derivative comes from the branch masks of the expression; given plain
arrays it returns the array and does no slope work. Keep each formula in one
place: no second, Tensor-only version of a block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError

__all__ = [
    "PensionParams",
    "AccountParams",
    "age_pension",
    "asset_test_cutoff",
    "fees",
    "transition_balance",
]


@dataclass(frozen=True)
class PensionParams:
    """June-2020 single homeowner rates; thresholds in base-year dollars.

    tau_a is the statutory per-fortnight asset taper; it applies
    fortnights-per-year times per year of excess assets.
    """

    a_max: float = 24_619.0          # full annual pension
    w_a: float = 263_250.0           # asset-test free area
    tau_a: float = 0.003             # taper per fortnight per $ excess
    income_free: float = 4_536.0     # income-test free area, $/yr
    w_i: float = 51_800.0            # lower deeming threshold
    r1: float = 0.0025               # deeming rate below w_i
    r2: float = 0.0225               # deeming rate above w_i
    tau_i: float = 0.5               # income-test taper
    fortnights_per_year: int = 26

    def __post_init__(self):
        if not self.r1 < self.r2:
            raise ConfigError("deeming rates must satisfy r1 < r2")
        if min(self.a_max, self.w_a, self.tau_a, self.income_free, self.w_i,
               self.r1, self.tau_i) < 0 or self.a_max == 0:
            raise ConfigError("pension rates must be non-negative, a_max > 0")


@dataclass(frozen=True)
class AccountParams:
    omega: float = 0.7               # growth-assets weight
    admin_fee: float = 50.0          # $/yr in base-year dollars
    indirect_cost_ratio: float = 0.006
    investment_fee: float = 0.005

    def __post_init__(self):
        if not 0.0 <= self.omega <= 1.0:
            raise ConfigError("omega must lie in [0, 1]")
        if min(self.admin_fee, self.indirect_cost_ratio,
               self.investment_fee) < 0:
            raise ConfigError("fees must be non-negative")

    @property
    def fee_rate(self) -> float:
        return self.indirect_cost_ratio + self.investment_fee


def _check_wealth(W) -> None:
    if isinstance(W, Tensor):
        return  # training-side wealth is clamped non-negative by construction
    if np.any(np.asarray(W) < 0):
        raise ConfigError("wealth must be non-negative")


def age_pension(W, Q, params: PensionParams = PensionParams()):
    """Annual pension payment: the lesser of the asset- and income-test amounts.

    Accepts scalars, arrays, or Tensors for W; Q is data (scalar or array).
    The payment is piecewise linear in W, so on the tape its slope is the
    sum of the branch slopes that are strictly active at W.
    """
    _check_wealth(W)
    p = params
    w = ad.value_of(W)
    full = p.a_max * Q
    # Asset test: taper on wealth above the free area.
    over_free = w - p.w_a * Q
    asset_taper = p.tau_a * p.fortnights_per_year
    a_asset_raw = full - asset_taper * np.maximum(over_free, 0.0)
    a_asset = np.maximum(a_asset_raw, 0.0)
    # Income test: deemed income from financial assets, two-tier rates.
    deeming_cut = p.w_i * Q
    over_wi = w - deeming_cut
    deemed = p.r1 * np.minimum(w, deeming_cut) \
        + p.r2 * np.maximum(over_wi, 0.0)
    over_income = deemed - p.income_free * Q
    a_income_raw = full - p.tau_i * np.maximum(over_income, 0.0)
    a_income = np.maximum(a_income_raw, 0.0)
    value = np.minimum(a_asset, a_income)
    if not isinstance(W, Tensor):
        return value
    d_asset = -asset_taper * ((over_free > 0) & (a_asset_raw > 0))
    d_deemed = p.r1 * (w < deeming_cut) + p.r2 * (over_wi > 0)
    d_income = -p.tau_i * d_deemed * ((over_income > 0) & (a_income_raw > 0))
    slope = d_asset * (a_asset < a_income) + d_income * (a_income < a_asset)
    return ad.local(value, (W, slope))


def asset_test_cutoff(params: PensionParams = PensionParams()) -> float:
    """Base-year wealth at which the asset test extinguishes the pension."""
    p = params
    return p.w_a + p.a_max / (p.fortnights_per_year * p.tau_a)


def fees(W, Q, params: AccountParams = AccountParams()):
    """Annual fund fee: indexed admin charge plus an asset-based rate."""
    value = params.admin_fee * Q + params.fee_rate * ad.value_of(W)
    if not isinstance(W, Tensor):
        return value
    return ad.local(value, (W, params.fee_rate))


def transition_balance(W, A, C, fee, R):
    """Next-year wealth: max(W + A - C - fee, 0) * e^R.

    Shared by every rollout (learned policy, deterministic strategies, and
    oracles); accepts scalars, arrays, or Tensors for W, A, C and fee. R is
    data. Above the depletion floor the slope is +-e^R; on or below it, 0.
    """
    inputs = (W, A, C, fee)
    w, a, c, f = (ad.value_of(x) for x in inputs)
    growth = np.exp(R)
    before = w + a - c - f
    value = np.maximum(before, 0.0) * growth
    if not any(isinstance(x, Tensor) for x in inputs):
        return value
    slope = (before > 0) * growth
    return ad.local(value, (W, slope), (A, slope), (C, -slope), (fee, -slope))
