"""Life tables, mortality improvement, and survival curves.

The bundled table approximates the Australian Life Tables 2015-17 with
annual improvement factors (see tools/make_life_table.py). Projected rates
compound the improvement from the table's central year: with the base lag
of `BASE_LAG` = 3 years a rate used `offset` years after a 2020 start is

    q(age) * (1 + i(age)) ** (3 + offset)

Improvement factors are negative where mortality is falling.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._csvblock import read_table
from .errors import DataError

__all__ = [
    "LifeTable",
    "SurvivalCurve",
    "bundled_life_table_path",
    "load_life_table",
    "survival_curve",
]

_DATA_DIR = Path(__file__).resolve().parent / "data"
_GENDERS = ("male", "female")
_COLUMNS = ("age", "male_qx", "female_qx", "male_improvement",
            "female_improvement")
# Years from the table's central year to the projection start.
BASE_LAG = 3


def bundled_life_table_path() -> Path:
    return _DATA_DIR / "life_table_2015_17.csv"


@dataclass(frozen=True)
class LifeTable:
    age: np.ndarray         # consecutive integer ages
    qx: dict                # gender -> base mortality rate per age
    improvement: dict       # gender -> annual improvement factor per age

    def __post_init__(self):
        if np.any(np.diff(self.age) != 1):
            raise DataError("table ages must be consecutive")
        for g in _GENDERS:
            q = self.qx[g]
            if np.any((q < 0) | (q > 1)):
                raise DataError(f"{g} mortality rates outside [0, 1]")
            if q[-1] != 1.0:
                raise DataError(f"{g} terminal rate must be 1")
            if np.any(self.improvement[g] > 0):
                raise DataError(f"{g} improvement factors must be <= 0")

    @property
    def min_age(self) -> int:
        return int(self.age[0])

    @property
    def terminal_age(self) -> int:
        return int(self.age[-1])


@dataclass(frozen=True)
class SurvivalCurve:
    """tpx[t] = P(alive at x+t | alive at x); dq[t] = P(die in year t)."""

    tpx: np.ndarray
    dq: np.ndarray

    def __post_init__(self):
        if self.tpx[0] != 1.0 or self.dq[0] != 0.0:
            raise DataError("curve must start with tpx=1, dq=0")
        if len(self.tpx) != len(self.dq):
            raise DataError("tpx and dq lengths differ")

    @property
    def horizon(self) -> int:
        return len(self.tpx) - 1


def load_life_table(path=None) -> LifeTable:
    """Read a CSV with header age,male_qx,female_qx,male_improvement,female_improvement."""
    arr = read_table(bundled_life_table_path() if path is None else path,
                     _COLUMNS)
    return LifeTable(
        age=arr[:, 0].astype(int),
        qx={"male": arr[:, 1], "female": arr[:, 2]},
        improvement={"male": arr[:, 3], "female": arr[:, 4]},
    )


def survival_curve(table: LifeTable, gender: str, x: int, T: int) -> SurvivalCurve:
    """Survival and deferred-death probabilities from age x over T years.

    Year t uses the projected rate at age x + t - 1, t - 1 years after the
    start, clipped to [0, 1]; a base rate of 1 stays 1.
    """
    if gender not in _GENDERS:
        raise DataError(f"gender must be one of {_GENDERS}, got {gender!r}")
    if not table.min_age <= x <= table.terminal_age + 1 - T:
        raise DataError(f"horizon {T} from age {x} does not fit the table's "
                        f"ages {table.min_age}-{table.terminal_age}")
    base, improvement = table.qx[gender], table.improvement[gender]
    tpx = np.empty(T + 1)
    dq = np.zeros(T + 1)
    tpx[0] = 1.0
    for t in range(1, T + 1):
        i = x + t - 1 - table.min_age
        if base[i] >= 1.0:
            q = 1.0
        else:
            rate = base[i] * (1.0 + improvement[i]) ** (BASE_LAG + t - 1)
            q = float(min(max(rate, 0.0), 1.0))
        dq[t] = tpx[t - 1] * q
        tpx[t] = tpx[t - 1] * (1.0 - q)
    return SurvivalCurve(tpx=tpx, dq=dq)
