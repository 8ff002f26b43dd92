"""Means-tested pension, fund fees, wealth transition.

Every threshold and payment indexes with the compound deflator Q (base year
Q = 1; `esg.simulate` writes it into the scenario panel), so the whole block
is homogeneous of degree one in (W, Q): real outcomes depend only on real
wealth W/Q.

Each block (the pension, the fee, the wealth transition) computes its value
once, from one NumPy expression, for plain numpy evaluation and training
alike. Asked with `slope=True`, the pension and the transition also return
their local derivative, built from the branch masks of that expression; the
training sweep chains these slopes (the fee's is the constant
`AccountParams.fee_rate`). Keep each formula in one place: no second,
training-only version of a block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "PensionParams",
    "AccountParams",
    "age_pension",
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
        if self.fortnights_per_year < 1:
            raise ConfigError("fortnights_per_year must be >= 1")


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


def age_pension(W, Q, params: PensionParams = PensionParams(),
                slope: bool = False):
    """Annual pension payment: the lesser of the asset- and income-test amounts.

    Accepts scalars or arrays for W and Q. The payment is piecewise linear
    in W; with `slope=True` returns (payment, dA/dW), the slope being that
    of the strictly smaller test's strictly active branches.
    """
    if np.any(np.asarray(W) < 0):
        raise ConfigError("wealth must be non-negative")
    p = params
    full = p.a_max * Q
    # Asset test: taper on wealth above the free area.
    over_free = W - p.w_a * Q
    asset_taper = p.tau_a * p.fortnights_per_year
    a_asset_raw = full - asset_taper * np.maximum(over_free, 0.0)
    a_asset = np.maximum(a_asset_raw, 0.0)
    # Income test: deemed income from financial assets, two-tier rates.
    deeming_cut = p.w_i * Q
    over_wi = W - deeming_cut
    deemed = p.r1 * np.minimum(W, deeming_cut) \
        + p.r2 * np.maximum(over_wi, 0.0)
    over_income = deemed - p.income_free * Q
    a_income_raw = full - p.tau_i * np.maximum(over_income, 0.0)
    a_income = np.maximum(a_income_raw, 0.0)
    value = np.minimum(a_asset, a_income)
    if not slope:
        return value
    d_asset = -asset_taper * ((over_free > 0) & (a_asset_raw > 0))
    d_deemed = p.r1 * (W < deeming_cut) + p.r2 * (over_wi > 0)
    d_income = -p.tau_i * d_deemed * ((over_income > 0) & (a_income_raw > 0))
    return value, d_asset * (a_asset < a_income) \
        + d_income * (a_income < a_asset)


def fees(W, Q, params: AccountParams = AccountParams()):
    """Annual fund fee: indexed admin charge plus an asset-based rate.

    Its slope in W is the constant `params.fee_rate`.
    """
    return params.admin_fee * Q + params.fee_rate * W


def transition_balance(W, A, C, fee, R, slope: bool = False):
    """Next-year wealth: max(W + A - C - fee, 0) * e^R.

    Shared by every rollout (learned policy, deterministic strategies, and
    oracles); accepts scalars or arrays. With `slope=True` returns (wealth,
    s), s being the derivative in W and A (and -s in C and fee): e^R above
    the depletion floor, 0 on or below it.
    """
    growth = np.exp(R)
    before = W + A - C - fee
    value = np.maximum(before, 0.0) * growth
    if not slope:
        return value
    return value, (before > 0) * growth
