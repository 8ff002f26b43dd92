"""CRRA consumption utility and bequest utility.

Utilities are computed on real (deflated) dollars divided by `wealth_unit`.
The default unit of 1.0 evaluates in raw dollars; training sets the unit to
the initial wealth instead. CRRA is homothetic, so the rescaling multiplies
the objective by a positive constant and leaves the optimal policy unchanged
while keeping gradients far from the underflow regime (at rho = 5, dollar
arguments give utilities near 1e-19 and gradients near 1e-24).

Arguments below the floor are clamped, not rejected: with rho > 1 a depleted
path would otherwise send the objective to -infinity. The tiny default floor
keeps such paths finite but catastrophically bad, which is the intended
ranking signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "UtilityParams",
    "consumption_utility",
    "bequest_utility",
    "bequest_coefficient",
]


@dataclass(frozen=True)
class UtilityParams:
    rho: float = 5.0              # relative risk aversion, != 1
    phi: float = 0.5              # bequest strength in [0, 1)
    floor_epsilon: float = 1e-10  # clamp for real dollars inside utilities
    wealth_unit: float = 1.0      # divide real dollars by this before u(.)

    def __post_init__(self):
        if not 0.0 <= self.phi < 1.0:
            raise ConfigError("phi must lie in [0, 1)")
        if self.rho < 0.0 or self.rho == 1.0:
            raise ConfigError("rho must be >= 0 and != 1")
        if self.floor_epsilon <= 0.0:
            raise ConfigError("floor_epsilon must be positive")
        if self.wealth_unit <= 0.0:
            raise ConfigError("wealth_unit must be positive")


def bequest_coefficient(params: UtilityParams) -> float:
    """(phi / (1 - phi)) ** rho; 0 at phi = 0, 1 at phi = 0.5."""
    if params.phi == 0.0:
        return 0.0
    return (params.phi / (1.0 - params.phi)) ** params.rho


def _crra(x, params: UtilityParams, slope: bool = False):
    """(max(x, floor) / unit) ** (1 - rho) / (1 - rho).

    With `slope=True` returns (value, du/dx), the slope being
    (x / unit) ** -rho / unit above the floor and 0 on or below it.
    """
    inv_unit = 1.0 / params.wealth_unit
    scaled = np.maximum(x, params.floor_epsilon) * inv_unit
    value = scaled ** (1.0 - params.rho) * (1.0 / (1.0 - params.rho))
    if not slope:
        return value
    return value, (x > params.floor_epsilon) * scaled ** -params.rho \
        * inv_unit


def consumption_utility(c, params: UtilityParams = UtilityParams(),
                        slope: bool = False):
    """u(c) for real consumption, or (u, u') with `slope=True`."""
    return _crra(c, params, slope)


def bequest_utility(w, params: UtilityParams = UtilityParams(),
                    slope: bool = False):
    """v(w) for real residual wealth, or (v, v') with `slope=True`;
    identically 0 when phi = 0."""
    coeff = bequest_coefficient(params)
    if coeff == 0.0:
        zero = np.zeros_like(np.asarray(w, dtype=float))
        return (zero, zero) if slope else zero
    if not slope:
        return coeff * _crra(w, params)
    value, du = _crra(w, params, slope=True)
    return coeff * value, coeff * du
