import numpy as np
import pytest

from superdraw.errors import DataError
from superdraw.mortality import (BASE_LAG, LifeTable, load_life_table,
                                 survival_curve)


def life_expectancy(table: LifeTable, gender: str, age: int) -> float:
    """Complete expectation of life at `age`, improvement included."""
    T = table.terminal_age + 1 - age
    curve = survival_curve(table, gender, age, T)
    return age + 0.5 + float(curve.tpx[1:].sum())


@pytest.fixture(scope="module")
def table():
    return load_life_table()


def projected_rate(table, gender, age, offset):
    """The rate a curve uses at `age`, `offset` years after its start:
    dq[t] / tpx[t-1] of the curve from age - offset, at t = offset + 1."""
    c = survival_curve(table, gender, age - offset, offset + 1)
    return c.dq[-1] / c.tpx[-2]


def toy_table(q, improvement=0.0, lo=50, hi=70):
    n = hi - lo + 1
    qs = np.full(n, q)
    qs[-1] = 1.0
    imp = np.full(n, improvement)
    return LifeTable(age=np.arange(lo, hi + 1),
                     qx={"male": qs.copy(), "female": qs.copy()},
                     improvement={"male": imp.copy(), "female": imp.copy()})


def test_bundled_table_shape(table):
    assert table.min_age == 50
    assert table.terminal_age == 109
    for g in ("male", "female"):
        assert table.qx[g][-1] == 1.0
        assert np.all(table.improvement[g] <= 0)


def test_projected_qx_no_improvement():
    t = toy_table(0.02)
    assert projected_rate(t, "male", 60, 5) == pytest.approx(0.02)


def test_projected_qx_one_step_compounding():
    t = toy_table(0.02, improvement=-0.01)
    assert projected_rate(t, "male", 60, 1) == pytest.approx(
        0.02 * 0.99 ** (BASE_LAG + 1))


def test_projected_qx_base_lag_counts_in_exponent(table):
    age = 70
    i = age - table.min_age
    base = table.qx["male"][i]
    imp = table.improvement["male"][i]
    assert projected_rate(table, "male", age, 4) == pytest.approx(
        base * (1 + imp) ** (3 + 4))


def test_projected_qx_terminal_certain_death(table):
    assert projected_rate(table, "female", table.terminal_age, 0) == 1.0
    # Survival under the bundled table reaches 0 before its terminal age, so
    # a toy table with improvement shows that a base rate of 1 stays 1.
    t = toy_table(0.02, improvement=-0.01, lo=30)
    assert projected_rate(t, "female", t.terminal_age, 30) == 1.0


def test_projected_qx_range_and_gender_errors(table):
    with pytest.raises(DataError):
        projected_rate(table, "male", 20, 0)
    with pytest.raises(DataError):
        projected_rate(table, "other", 70, 0)
    with pytest.raises(DataError):
        survival_curve(table, "male", table.min_age - 1, 0)


def test_survival_curve_start(table):
    c = survival_curve(table, "male", 67, 41)
    assert c.tpx[0] == 1.0
    assert c.dq[0] == 0.0
    assert c.horizon == 41


def test_survival_curve_constant_rate_hand_product():
    t = toy_table(0.5)
    c = survival_curve(t, "male", 60, 3)
    assert c.tpx[2] == pytest.approx(0.25)
    assert c.dq[2] == pytest.approx(0.25)


def test_survival_curve_partition_of_unity(table):
    for g in ("male", "female"):
        c = survival_curve(table, g, 67, 41)
        assert c.dq[1:].sum() + c.tpx[-1] == pytest.approx(1.0, abs=1e-12)


def test_survival_curve_identity_links_tpx_and_dq(table):
    c = survival_curve(table, "female", 67, 41)
    assert np.allclose(c.tpx[:-1], c.tpx[1:] + c.dq[1:], atol=1e-15)


def test_survival_monotone_where_mortality_positive(table):
    c = survival_curve(table, "male", 67, 41)
    assert np.all(np.diff(c.tpx) < 0)
    assert np.all((c.tpx >= 0) & (c.tpx <= 1))
    assert np.all((c.dq >= 0) & (c.dq <= 1))


def test_survival_curve_horizon_guard(table):
    survival_curve(table, "male", 67, table.terminal_age + 1 - 67)
    with pytest.raises(DataError):
        survival_curve(table, "male", 67, table.terminal_age + 2 - 67)


def test_gender_ordering(table):
    m = survival_curve(table, "male", 67, 41)
    f = survival_curve(table, "female", 67, 41)
    assert np.all(m.tpx[1:] <= f.tpx[1:])


def test_life_expectancy_bundled_values(table):
    assert life_expectancy(table, "male", 65) == pytest.approx(85.5, abs=0.5)
    assert life_expectancy(table, "female", 65) == pytest.approx(87.9, abs=0.5)
    # The generator tunes these to the target; keep a tight leash so data
    # regressions surface immediately.
    assert life_expectancy(table, "male", 65) == pytest.approx(85.5, abs=0.02)
    assert life_expectancy(table, "female", 65) == pytest.approx(87.9, abs=0.02)


def test_life_expectancy_immediate_death_bound():
    t = toy_table(0.5)
    # Certain death in the first year from the terminal age.
    assert life_expectancy(t, "male", t.terminal_age) == pytest.approx(
        t.terminal_age + 0.5)


def test_improvement_raises_life_expectancy(table):
    flat = LifeTable(age=table.age,
                     qx=table.qx,
                     improvement={g: np.zeros_like(v) for g, v in
                                  table.improvement.items()})
    assert life_expectancy(table, "male", 65) > life_expectancy(flat, "male", 65)


def test_table_validation_rejects_bad_terminal():
    with pytest.raises(DataError):
        LifeTable(age=np.arange(60, 63),
                  qx={"male": np.array([0.1, 0.2, 0.9]),
                      "female": np.array([0.1, 0.2, 1.0])},
                  improvement={"male": np.zeros(3), "female": np.zeros(3)})


def test_load_life_table_errors(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("age,male_qx\n65,0.01\n")
    with pytest.raises(DataError, match="header"):
        load_life_table(p)
