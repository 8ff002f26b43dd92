import os
from pathlib import Path

import numpy as np
import pytest

import superdraw
from superdraw import esg

# Command tests run `python -m superdraw.cli` in a subprocess; it imports the
# same package as the tests, installed or from a checkout's src/.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(superdraw.__file__).resolve().parents[1]),
    os.environ.get("PYTHONPATH")]))


def history_from_factors(year0, q, S, e, n, b, o, h):
    """Build an index-level history whose log-returns equal the given factors.

    Arrays include the initial year (index 0); the first entries of q, e, n,
    b, o, h are ignored (no prior level to difference against), while the
    short-rate column s = S + q is a level and is used for every year.
    """
    T = len(q) - 1
    years = np.arange(year0, year0 + T + 1)
    level = lambda x: 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(x[1:])]))
    return esg.HistoricalSeries(
        year=years, cpi=level(q), s=np.asarray(S) + np.asarray(q),
        E=level(e), N=level(n), B=level(b), O=level(o), HPI=level(h),
    )


def history_from_panel(panel: esg.ScenarioPanel, year0=1900):
    m = 0
    return history_from_factors(
        year0, panel.q[m], panel.s[m] - panel.q[m], panel.e[m], panel.n[m],
        panel.b[m], panel.o[m], panel.h[m])


@pytest.fixture(scope="session")
def bundled_history():
    return esg.load_history(esg.bundled_history_path())


def record_criterion(config, number: int, name: str, ok: bool, detail: str):
    """Collect one acceptance line; printed in the terminal summary."""
    lines = getattr(config, "_acceptance_lines", None)
    if lines is None:
        lines = {}
        config._acceptance_lines = lines
    status = "PASS" if ok else "FAIL"
    lines[number] = f"criterion {number} [{name}]: {status} - {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", None)
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for number in sorted(lines):
            terminalreporter.write_line(lines[number])
