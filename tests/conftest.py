import dataclasses
import functools
import importlib.util
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import superdraw
from superdraw import esg
from superdraw.policy import PARAM_FIELDS, MlpParams

BENCH = Path(__file__).resolve().parents[1] / "bench"

# Command tests run `python -m superdraw.cli` in a subprocess; it imports the
# same package as the tests, installed or from a checkout's src/.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(superdraw.__file__).resolve().parents[1]),
    os.environ.get("PYTHONPATH")]))


@functools.cache
def load_bench(name: str):
    """`bench/<name>.py` imported from its file, once, without writing
    bytecode into `bench/`."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # where `dataclass` looks its module up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = saved
    return mod


# The one independent reference of the model outside the package: it
# imports nothing from `superdraw` (tests/test_package.py checks that).
reference = load_bench("reference")


def reference_dict(params) -> dict:
    """PensionParams, AccountParams or EsgParams as the reference's dict,
    keyed by lowercased field name as a config file's keys are read."""
    return {k.lower(): v for k, v in dataclasses.asdict(params).items()}


def reference_model(cfg):
    """The reference's `Model` of a TrainConfig, with the utility its
    objectives use."""
    u = cfg.effective_utility()
    return reference.Model(
        esg=reference_dict(cfg.esg), pension=reference_dict(cfg.pension),
        account=reference_dict(cfg.account), rho=u.rho, phi=u.phi,
        floor=u.floor_epsilon, unit=u.wealth_unit, w0=cfg.w0,
        horizon=cfg.horizon, retirement_age=cfg.retirement_age,
        gender=cfg.gender)


def reference_walk(consume, panel, m, cfg, curve):
    """`reference.walk` of panel path m under `cfg`: (lifetime utility,
    real consumption per year, kink signature). Q is rebuilt year by year
    from the path's q column."""
    Q = [1.0]
    for q in panel.q[m, 1:]:
        Q.append(Q[-1] * math.exp(q))
    return reference.walk(consume, panel.R[m], Q, (curve.tpx, curve.dq),
                          reference_model(cfg))


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


def map_params(params, fn):
    """MlpParams with `fn` applied to every weight array."""
    return MlpParams(**{n: fn(getattr(params, n)) for n in PARAM_FIELDS})


def perturb(params, name: str, i: int, j: int, delta: float):
    """Copy of `params` with one entry nudged; used by gradient checks."""
    out = map_params(params, np.copy)
    getattr(out, name)[i, j] += delta
    return out


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
