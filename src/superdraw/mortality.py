"""Life tables, mortality improvement, and survival curves.

The bundled table approximates the Australian Life Tables 2015-17 with
annual improvement factors (see tools/make_life_table.py). Projected rates
compound the improvement from the table's central year: with the default
base lag of 3 years a rate used `offset` years after a 2020 start is

    q(age) * (1 + i(age)) ** (3 + offset)

Improvement factors are negative where mortality is falling.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = [
    "LifeTable",
    "SurvivalCurve",
    "bundled_life_table_path",
    "load_life_table",
    "projected_qx",
    "survival_curve",
    "life_expectancy",
]

_DATA_DIR = Path(__file__).resolve().parent / "data"
_GENDERS = ("male", "female")


def bundled_life_table_path() -> Path:
    return _DATA_DIR / "life_table_2015_17.csv"


@dataclass(frozen=True)
class LifeTable:
    age: np.ndarray         # consecutive integer ages
    qx: dict                # gender -> base mortality rate per age
    improvement: dict       # gender -> annual improvement factor per age
    base_lag: int = 3       # years from table central year to projection start

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
        if self.base_lag < 0:
            raise DataError("base_lag must be >= 0")

    @property
    def min_age(self) -> int:
        return int(self.age[0])

    @property
    def terminal_age(self) -> int:
        return int(self.age[-1])

    def _index(self, age: int) -> int:
        if not self.min_age <= age <= self.terminal_age:
            raise DataError(f"age {age} outside table range "
                            f"[{self.min_age}, {self.terminal_age}]")
        return int(age) - self.min_age


@dataclass(frozen=True)
class SurvivalCurve:
    """tpx[t] = P(alive at x+t | alive at x); dq[t] = P(die in year t)."""

    x: int
    gender: str
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


def _check_gender(gender: str) -> str:
    if gender not in _GENDERS:
        raise DataError(f"gender must be one of {_GENDERS}, got {gender!r}")
    return gender


def load_life_table(path=None, base_lag: int = 3) -> LifeTable:
    """Read a CSV with header age,male_qx,female_qx,male_improvement,female_improvement."""
    if path is None:
        path = bundled_life_table_path()
    want = ["age", "male_qx", "female_qx", "male_improvement",
            "female_improvement"]
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != want:
            raise DataError(f"{path}: expected header {','.join(want)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or not "".join(row).strip():
                continue
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    arr = np.array(rows)
    return LifeTable(
        age=arr[:, 0].astype(int),
        qx={"male": arr[:, 1], "female": arr[:, 2]},
        improvement={"male": arr[:, 3], "female": arr[:, 4]},
        base_lag=base_lag,
    )


def projected_qx(table: LifeTable, gender: str, age: int,
                 calendar_offset: int) -> float:
    """Mortality rate at `age`, `calendar_offset` years after the start."""
    _check_gender(gender)
    if calendar_offset < 0:
        raise DataError("calendar_offset must be >= 0")
    i = table._index(age)
    base = table.qx[gender][i]
    if base >= 1.0:
        return 1.0
    rate = base * (1.0 + table.improvement[gender][i]) ** (
        table.base_lag + calendar_offset)
    return float(min(max(rate, 0.0), 1.0))


def survival_curve(table: LifeTable, gender: str, x: int, T: int) -> SurvivalCurve:
    """Survival and deferred-death probabilities from age x over T years."""
    _check_gender(gender)
    if x + T > table.terminal_age + 1:
        raise DataError(f"horizon {T} from age {x} overruns the table "
                        f"(terminal age {table.terminal_age})")
    tpx = np.empty(T + 1)
    dq = np.zeros(T + 1)
    tpx[0] = 1.0
    for t in range(1, T + 1):
        q = projected_qx(table, gender, x + t - 1, t - 1)
        dq[t] = tpx[t - 1] * q
        tpx[t] = tpx[t - 1] * (1.0 - q)
    return SurvivalCurve(x=x, gender=gender, tpx=tpx, dq=dq)


def life_expectancy(table: LifeTable, gender: str, age: int) -> float:
    """Complete expectation of life at `age`, improvement included."""
    T = table.terminal_age + 1 - age
    curve = survival_curve(table, gender, age, T)
    return age + 0.5 + float(curve.tpx[1:].sum())
