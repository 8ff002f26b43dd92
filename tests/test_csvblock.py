"""The CSV writer's number kernel gives exactly the text of `%`.

Every assertion compares what `_csvblock._write_rows` writes for a block
with `(row * len(block) % values).encode()`, which stays the definition.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdraw import _csvblock
from superdraw._csvblock import KERNEL_MIN_ROWS, literal

PANEL_ROW = "%d,%d," + ",".join(["%.10g"] * 9) + "\r\n"
TWO_ROW = "%.10g,%.10g\r\n"
# Every row template the package writes (panel_to_csv, the evaluator's
# KDE, medians, utilities and outperformance files, demo-path, the
# training report and calibrate's residual correlations), and whether the
# kernel takes it: only `%d` and `%.10g` between literals of at most 8
# bytes, so a utilities label of up to 6 characters, but no longer one.
TEMPLATES = [
    (PANEL_ROW, True),
    (TWO_ROW, True),
    ("%d,%.10g,%.10g,%.10g\r\n", True),
    ("%d,%.10g,%.10g,\r\n", True),
    ("%d" + ",%.10g" * 5 + "\n", True),
    ("%d," + literal("policy") + ",%.10g\r\n", True),
    ("%d," + literal("rule_of_thumb") + ",%.10g\r\n", False),
    ("%d," + literal("four_percent") + ",%d\r\n", False),
    ("%d,%.10g" + ",%.1f" * 4 + ",%.10g,%d\r\n", False),
    ("q" + ",%.6f" * 7 + "\n", False),
]


def written(row, blocks, encoding="utf-8") -> bytes:
    """The bytes `_write_rows` writes for one section."""
    raw = io.BytesIO()
    with io.TextIOWrapper(raw, encoding=encoding, newline="") as fh:
        _csvblock._write_rows(fh, [(row, blocks)])
        fh.flush()
        return raw.getvalue()


def expected(row, blocks, encoding="utf-8") -> bytes:
    return "".join(row * len(b) % tuple(np.ravel(b).tolist())
                   for b in blocks).encode(encoding)


def takes_kernel(row, block) -> bool:
    text = _csvblock._block_text(row, block, _csvblock._Scratch())
    return isinstance(text, memoryview)


def assert_as_percent(row, block, kernel=True):
    """`block` is written as `%` writes it, and through the kernel or not
    as `kernel` says."""
    assert takes_kernel(row, block) == kernel
    assert written(row, [block]) == expected(row, [block])


def ordinary(row, rows, seed=0) -> np.ndarray:
    """`rows` rows for `row` whose values the kernel formats: integers for
    `%d`, and for the other fields magnitudes from 1e-3.9 to 1e9.9."""
    rng = np.random.default_rng(seed)
    fields = [f for f in row.split("%")[1:] if f]
    return np.column_stack([
        rng.integers(0, 10 ** rng.integers(1, 9), rows).astype(float)
        if f.startswith("d") else
        rng.choice([-1.0, 1.0], rows) * 10.0 ** rng.uniform(-3.9, 9.9, rows)
        for f in fields])


def diluted(row, values, col) -> np.ndarray:
    """Ordinary rows with one of `values` in column `col` of every 16th,
    so that the kernel keeps the block whatever those values are."""
    block = ordinary(row, max(KERNEL_MIN_ROWS, 16 * len(values)))
    block[::16, col][:len(values)] = values
    return block


def crafted_floats() -> np.ndarray:
    """Values whose %.10g text is easy to get wrong."""
    rng = np.random.default_rng(7)
    ten = rng.integers(10 ** 9, 10 ** 10, 60)
    vals = [np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                      2.2250738585072014e-308, 1e-310, np.finfo(float).max,
                      0.5, 1.0, 123.0, -2.5, 0.1, 1 / 3, -1 / 3,
                      99999.999995, 0.00012345678905, 9999999999.5,
                      9999999999.4999, 0.000099999999995])]
    for p in range(-1, 15):
        # Near-ties: half a unit of the tenth digit, and its neighbours.
        ties = (ten + 0.5) / 10.0 ** p
        vals += [ties, -ties, np.nextafter(ties, 0), np.nextafter(ties, 1e300),
                 ten / 10.0 ** p]
    for k in range(-6, 12):
        # Both neighbours of every power of ten, the 1e-4 and 1e10 edges
        # among them.
        pk = 10.0 ** k
        vals += [np.array([pk, -pk, np.nextafter(pk, 0),
                           np.nextafter(pk, np.inf), -np.nextafter(pk, 0)])]
    return np.concatenate(vals)


def test_templates_take_the_kernel_only_where_planned():
    for row, kernel in TEMPLATES:
        assert (_csvblock._plan(row) is not None) == kernel, row
        assert not takes_kernel(row, ordinary(row, KERNEL_MIN_ROWS - 1))
        assert takes_kernel(row, ordinary(row, KERNEL_MIN_ROWS)) == kernel


@pytest.mark.parametrize("rows", [1, KERNEL_MIN_ROWS - 1, KERNEL_MIN_ROWS,
                                  3 * KERNEL_MIN_ROWS + 5])
@pytest.mark.parametrize("row, kernel", TEMPLATES)
def test_every_template_matches_percent(row, kernel, rows):
    assert_as_percent(row, ordinary(row, rows, rows),
                      kernel and rows >= KERNEL_MIN_ROWS)


@pytest.mark.parametrize("col", [2, 10])
def test_crafted_floats_match_percent(col):
    assert_as_percent(PANEL_ROW, diluted(PANEL_ROW, crafted_floats(), col))


def test_crafted_d_values_match_percent():
    d = np.array([0.0, -0.0, 1.0, 9.0, 10.0, 99.0, 12345678.0, 99999999.0,
                  1e8, 1e8 + 1, 1e15, 0.5, 3.7, -1.0, -0.5, -3.7, 1e-300,
                  2.0 ** 53])
    # A literal before the first field, and none between two.
    for row in ("%d;%d|%.10g\n", "<%d%d|%.10g>\r\n"):
        for col in (0, 1):
            assert_as_percent(row, diluted(row, d, col))


@pytest.mark.parametrize("bad, error", [(np.nan, ValueError),
                                        (np.inf, OverflowError)])
def test_d_of_a_non_finite_value_raises_as_percent_does(bad, error):
    block = ordinary(PANEL_ROW, KERNEL_MIN_ROWS)
    block[KERNEL_MIN_ROWS // 2, 1] = bad
    with pytest.raises(error):
        "%d" % bad
    with pytest.raises(error):
        written(PANEL_ROW, [block])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.integers(0, 2 ** 64 - 1).map(
        lambda b: float(np.array(b, np.uint64).view(np.float64))),
    st.floats(-1e11, 1e11),
    st.floats(-1e-3, 1e-3)), min_size=1, max_size=40))
def test_any_float_matches_percent(values):
    # Any bit pattern: NaNs with payloads, subnormals, and every exponent.
    assert_as_percent(TWO_ROW, diluted(TWO_ROW, values, 0))


def test_a_block_of_many_exponent_forms_goes_to_percent():
    # `%` formats a row the kernel cannot by itself, at several times the
    # cost of a row in a whole block: up to one row in eight may need it.
    block = ordinary(TWO_ROW, KERNEL_MIN_ROWS)
    block[:KERNEL_MIN_ROWS // 8, 1] = 1e-300
    assert_as_percent(TWO_ROW, block)
    block[KERNEL_MIN_ROWS // 8, 1] = 1e300
    assert_as_percent(TWO_ROW, block, kernel=False)


def test_blocks_of_changing_size_reuse_the_scratch():
    blocks = [ordinary(PANEL_ROW, n, n)
              for n in (3 * KERNEL_MIN_ROWS, KERNEL_MIN_ROWS, 5,
                        2 * KERNEL_MIN_ROWS + 1, KERNEL_MIN_ROWS + 7)]
    blocks[3][::9, 4] = np.inf          # rows that `%` formats in between
    assert written(PANEL_ROW, blocks) == expected(PANEL_ROW, blocks)


def test_an_encoding_that_is_not_ascii_gets_text():
    block = ordinary(PANEL_ROW, KERNEL_MIN_ROWS)
    assert written(PANEL_ROW, [block], "utf-16") == \
        expected(PANEL_ROW, [block], "utf-16")
