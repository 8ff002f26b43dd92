"""Rollout engine and training loop tests.

The rollout engine is checked three ways: against a plain-float single-path
evaluator (tests/oracles.py), against the utility module on recorded paths,
and the training objective against numpy mode with identical weights.
Gradients of the full multi-year recursion (the adjoint sweep) are checked
against central finite differences with kink-adjacent coordinates excluded
by a two-step-size consistency filter.
"""

import dataclasses

import numpy as np
import pytest

from conftest import map_params, perturb
from oracles import lifetime_utility_oracle, straight_line_objective
from superdraw import trainer
from superdraw.account import AccountParams, PensionParams, age_pension
from superdraw.errors import ConfigError, NumericError
from superdraw.mortality import load_life_table, survival_curve
from superdraw.policy import (PARAM_FIELDS, backward, he_init,
                             load_checkpoint, normalized_inputs,
                             policy_fraction)
from superdraw.trainer import (AdamState, PathRecords, TrainConfig,
                               TrainingAborted, _rollout_engine,
                               adam_step, adam_step_size, annuity_factor,
                               batch_objective,
                               network_consumer, rollout, rollout_consume,
                               train)
from superdraw.esg import ScenarioPanel
from superdraw.utility import UtilityParams


def synthetic_panel(M, T, seed=0, r_scale=0.1, q_scale=0.02):
    """Panel with lognormal-ish returns and inflation, valid conventions."""
    rng = np.random.default_rng(seed)
    q = np.zeros((M, T + 1))
    R = np.zeros((M, T + 1))
    if T > 0:
        q[:, 1:] = 0.02 + q_scale * rng.standard_normal((M, T))
        R[:, 1:] = 0.04 + r_scale * rng.standard_normal((M, T))
    Q = np.exp(np.cumsum(q, axis=1))
    Q[:, 0] = 1.0
    z = np.zeros((M, T + 1))
    return ScenarioPanel(M=M, T=T, R=R, Q=Q,
                         factors=dict(q=q, s=z, e=z, n=z, b=z, o=z, h=z))


def small_config(**kw):
    base = dict(m_train=32, iterations=3, batch_size=16, seed=7, horizon=8,
                w0=500_000.0, log_every=1)
    base.update(kw)
    return TrainConfig(**base)


# ------------------------------------------------------- engine correctness


def test_engine_matches_straight_line_oracle():
    cfg = small_config(horizon=12)
    curve = cfg.curve()
    panel = synthetic_panel(3, cfg.horizon, seed=11)

    def rule(t, W, A, R=None, Q=None):
        return 0.6 * (W + A)

    total, _ = rollout_consume(rule, panel, curve, cfg)
    for m in range(panel.M):
        want = straight_line_objective(
            lambda t, W, A: 0.6 * (W + A), cfg.w0, cfg.pension, cfg.account,
            cfg.effective_utility(), curve,
            panel.R[m], panel.q[m])
        assert total[m] == pytest.approx(want, rel=1e-12)


def test_engine_matches_lifetime_utility_on_records():
    cfg = small_config(horizon=10)
    curve = cfg.curve()
    panel = synthetic_panel(4, cfg.horizon, seed=3)
    rule = lambda t, W, A, R, Q: 0.5 * (W + A)
    total, rec = rollout_consume(rule, panel, curve, cfg, record=True)
    up = cfg.effective_utility()
    for m in range(panel.M):
        lu = lifetime_utility_oracle(rec.consumption[m], rec.wealth[m], curve,
                                     up)
        assert total[m] == pytest.approx(lu, rel=1e-12)


def test_single_year_horizon_is_one_term():
    cfg = small_config(horizon=0, m_train=1, batch_size=1)
    curve = cfg.curve()
    panel = synthetic_panel(1, 0)
    total, rec = rollout_consume(lambda t, W, A, R, Q: 30_000.0 + 0.0 * W,
                                 panel, curve, cfg, record=True)
    up = cfg.effective_utility()
    from superdraw.utility import consumption_utility
    assert total[0] == pytest.approx(consumption_utility(30_000.0, up))
    assert rec.wealth.shape == (1, 1)


def test_tensor_mode_equals_numpy_mode():
    cfg = small_config(horizon=9)
    curve = cfg.curve()
    panel = synthetic_panel(6, cfg.horizon, seed=5)
    params = he_init(seed=2)
    obj, _, _ = batch_objective(params, panel.R, panel.Q, curve, cfg)
    total, _ = rollout_consume(network_consumer(params, cfg.norm()),
                               panel, curve, cfg)
    assert float(obj.value) == pytest.approx(total.mean(), rel=1e-13)


def test_rollout_mean_equals_batch_objective():
    cfg = small_config(horizon=6)
    curve = cfg.curve()
    panel = synthetic_panel(5, cfg.horizon, seed=9)
    params = he_init(seed=4)
    obj, _, _ = batch_objective(params, panel.R, panel.Q, curve, cfg)
    singles = [rollout(params, panel, m, cfg, curve=curve)[0]
               for m in range(panel.M)]
    assert float(obj.value) == pytest.approx(np.mean(singles), rel=1e-12)


def test_rollout_reads_the_r_and_q_training_panel():
    # The training panel holds R and Q only; a rollout of one of its paths,
    # and of a sub-panel, matches the nine-column panel's to the bit.
    cfg = small_config(horizon=6)
    curve, params = cfg.curve(), he_init(seed=4)
    lean = cfg.training_panel()
    full = cfg.panel(cfg.m_train, cfg.seed, factors=True)
    assert lean.factors == {}
    for m in (0, 5, cfg.m_train - 1):
        got = rollout(params, lean, m, cfg, curve=curve)[0]
        assert got == rollout(params, full, m, cfg, curve=curve)[0]
    sub = lean.take([5, 0])
    assert sub.factors == {}
    assert rollout(params, sub, 1, cfg, curve=curve)[0] == \
        rollout(params, full, 0, cfg, curve=curve)[0]


def test_depleted_path_stays_at_zero_wealth():
    cfg = small_config(horizon=5)
    curve = cfg.curve()
    panel = synthetic_panel(2, cfg.horizon, seed=1)
    # Consume everything each year: wealth hits the clamp immediately and
    # the account then runs on pension income alone.
    total, rec = rollout_consume(lambda t, W, A, R, Q: W + A, panel, curve,
                                 cfg, record=True)
    assert np.all(rec.wealth[:, 1:] == 0.0)
    assert np.all(np.isfinite(total))


def test_horizon_mismatch_rejected():
    cfg = small_config(horizon=5)
    curve = survival_curve(load_life_table(), "male", 67, 4)
    with pytest.raises(ConfigError):
        rollout_consume(lambda t, W, A, R, Q: 0.0 * W, synthetic_panel(2, 5),
                        curve, cfg)


def test_engine_is_bit_identical_across_input_layouts():
    # The engine copies R and Q to year-major rows once; the layout of what
    # it is given must not change a bit of its utilities, records or
    # gradients. The rows 2, 8, ..., 38 of a panel arrive as a fancy-indexed
    # C-order copy, an F-order copy and a strided view.
    cfg = small_config(horizon=10)
    curve = cfg.curve()
    panel = synthetic_panel(40, cfg.horizon, seed=6)
    params = he_init(seed=3)
    idx = np.arange(2, 40, 6)
    layouts = [(panel.R[idx], panel.Q[idx]),
               (np.asfortranarray(panel.R[idx]),
                np.asfortranarray(panel.Q[idx])),
               (panel.R[2:40:6], panel.Q[2:40:6])]
    assert not layouts[2][0].flags.c_contiguous
    results = []
    for R, Q in layouts:
        total, rec = _rollout_engine(network_consumer(params, cfg.norm()),
                                     R, Q, curve, cfg, record=True)
        obj, _, _ = batch_objective(params, R, Q, curve, cfg)
        grads = backward(obj)
        for a in (rec.consumption, rec.wealth, rec.pension):
            assert a.shape == (len(idx), cfg.horizon + 1)
        results.append([total, rec.consumption, rec.wealth, rec.pension,
                        np.array(float(obj.value)),
                        *(getattr(grads, n) for n in PARAM_FIELDS)])
    for other in results[1:]:
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(results[0], other))
    # The records keep path order: the whole panel's rows idx agree (to
    # rounding, since the network's matrix products see another batch size).
    whole, rec = rollout_consume(network_consumer(params, cfg.norm()),
                                 panel, curve, cfg, record=True)
    assert results[0][0] == pytest.approx(whole[idx], rel=1e-12)
    assert results[0][2] == pytest.approx(rec.wealth[idx], rel=1e-12)


def test_evaluation_blocks_match_one_pass_bit_for_bit(monkeypatch):
    # Without `kept` the network may run over blocks of paths (of at most
    # 512), with its biases broadcast to a whole block and sliced for a
    # shorter one: 1,500 paths make two full blocks and a partial one, 300
    # one partial block. Each path's fraction, and so its consumption, must
    # be bit for bit that of one pass over all M with the (k, 1) biases,
    # so that evaluation outputs do not depend on it.
    cfg = small_config(horizon=41)
    params = he_init(seed=4)
    for n in ("b0", "b1", "b2", "b3"):      # he_init's biases are zero
        b = getattr(params, n)
        b[:, 0] = np.linspace(-0.5, 0.5, len(b))
    w = {n: getattr(params, n) for n in PARAM_FIELDS}
    rng = np.random.default_rng(12)
    real, fracs = trainer.policy_fraction, []

    def kept_fraction(w, x):
        frac, layers = real(w, x)
        fracs.append(frac)
        return frac, layers

    monkeypatch.setattr(trainer, "policy_fraction", kept_fraction)
    consume = network_consumer(params, cfg.norm())
    for M in (1500, 300):
        W, A = rng.uniform(0.0, 2e6, M), rng.uniform(0.0, 3e4, M)
        R, Q = rng.normal(0.05, 0.1, M), np.exp(rng.normal(0.5, 0.3, M))
        for t in (0, 40):
            fracs.clear()
            C = consume(t, W, A, R, Q)
            want, _ = real(w, normalized_inputs(np.full(M, float(t)), W, R,
                                                Q, cfg.norm()))
            assert np.concatenate(fracs).tobytes() == want.tobytes()
            assert C.tobytes() == ((W + A) * want).tobytes()


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_wealth_raises_numeric_error():
    cfg = small_config(horizon=2)
    curve = cfg.curve()
    panel = synthetic_panel(1, 2)
    panel.R[:, 1] = 1e6  # exp overflows -> inf wealth
    with pytest.raises(NumericError):
        rollout_consume(lambda t, W, A, R, Q: 0.0 * W, panel, curve, cfg)


# ---------------------------------------------------------------- gradients


def fd_gradient(f, params, name, i, j, h):
    hi = f(perturb(params, name, i, j, +h))
    lo = f(perturb(params, name, i, j, -h))
    return (hi - lo) / (2.0 * h)


def _bptt_inputs():
    """(label, cfg, panel) for the gradient check: the base desk utility,
    no bequest motive, and a path that reaches the depletion floor.

    With a bequest motive a depleted path's objective is dominated by
    v(floor), about -4e60, and finite differences drown in its rounding;
    the depleted input therefore has phi = 0. A crash in year 1 and a large
    admin fee take it to the floor in year 2, where it stays.
    """
    base = small_config(horizon=3, m_train=1, batch_size=1)
    no_bequest = dataclasses.replace(base, utility=UtilityParams(phi=0.0))
    crash = synthetic_panel(1, 3, seed=21)
    crash.R[0, 1] = -4.0
    return [("bequest", base, synthetic_panel(1, 3, seed=21)),
            ("no_bequest", no_bequest, synthetic_panel(1, 3, seed=21)),
            ("depleted", dataclasses.replace(
                no_bequest, account=AccountParams(admin_fee=20_000.0)),
             crash)]


def test_bptt_gradient_matches_finite_differences():
    params = he_init(seed=8)
    for label, cfg, panel in _bptt_inputs():
        curve = cfg.curve()
        _, rec = rollout_consume(network_consumer(params, cfg.norm()), panel,
                                 curve, cfg, record=True)
        depleted_at = np.flatnonzero(rec.wealth[0] == 0.0)
        assert list(depleted_at) == ([2, 3] if label == "depleted" else [])

        def value(p):
            return rollout(p, panel, 0, cfg, curve=curve)[0]

        _, tape = rollout(params, panel, 0, cfg, curve=curve)
        grads = backward(tape)

        rng = np.random.default_rng(17)
        checked = 0
        skipped = 0
        for _ in range(120):
            name = PARAM_FIELDS[rng.integers(len(PARAM_FIELDS))]
            arr = getattr(params, name)
            i = int(rng.integers(arr.shape[0]))
            j = int(rng.integers(arr.shape[1])) if arr.ndim == 2 else 0
            h = 1e-4
            fd1 = fd_gradient(value, params, name, i, j, h)
            fd2 = fd_gradient(value, params, name, i, j, h / 2.0)
            # Two-step-size agreement filters out coordinates whose FD
            # stencil straddles a ReLU, means-test, or depletion kink.
            if abs(fd1 - fd2) > 1e-3 * max(1.0, abs(fd2)):
                skipped += 1
                continue
            got = getattr(grads, name)[i, j] if arr.ndim == 2 else \
                getattr(grads, name)[i]
            denom = max(abs(fd2), 1e-6)
            assert abs(got - fd2) / denom < 1e-4, (label, name, i, j, got,
                                                   fd2)
            checked += 1
        assert checked >= 60, (label, checked, skipped)


# --------------------------------------------------------------------- adam


def test_adam_first_step_closed_form():
    params = he_init(seed=0)
    state = AdamState.fresh(params)
    g = map_params(params, lambda a: np.full_like(a, 2.0))
    state2, updated = adam_step(state, params, g, alpha=5e-4)
    # With constant gradient the bias-corrected ratio is g / (|g| + eps).
    step = 5e-4 * 2.0 / (2.0 + 1e-8)
    for n in PARAM_FIELDS:
        assert np.allclose(getattr(updated, n),
                           getattr(params, n) - step, atol=1e-12)
    assert state2.k == 1


def test_adam_zero_gradient_is_identity():
    params = he_init(seed=1)
    state = AdamState.fresh(params)
    zero = map_params(params, np.zeros_like)
    _, updated = adam_step(state, params, zero, alpha=5e-4)
    for n in PARAM_FIELDS:
        assert np.array_equal(getattr(updated, n), getattr(params, n))


def test_adam_three_steps_match_reference():
    params = he_init(seed=2)
    state = AdamState.fresh(params)
    rng = np.random.default_rng(0)
    grads = [map_params(params, lambda a: rng.standard_normal(a.shape))
             for _ in range(3)]

    # Independent scalar reference per coordinate.
    ref_p = {n: getattr(params, n).copy() for n in PARAM_FIELDS}
    m = {n: np.zeros_like(ref_p[n]) for n in PARAM_FIELDS}
    v = {n: np.zeros_like(ref_p[n]) for n in PARAM_FIELDS}
    for k, g in enumerate(grads, start=1):
        state, params = adam_step(state, params, g, alpha=5e-4)
        for n in PARAM_FIELDS:
            gn = getattr(g, n)
            m[n] = 0.9 * m[n] + 0.1 * gn
            v[n] = 0.999 * v[n] + 0.001 * gn * gn
            mh = m[n] / (1 - 0.9 ** k)
            vh = v[n] / (1 - 0.999 ** k)
            ref_p[n] = ref_p[n] - 5e-4 * mh / (np.sqrt(vh) + 1e-8)
    for n in PARAM_FIELDS:
        assert np.allclose(getattr(params, n), ref_p[n], atol=1e-14)


def test_adam_step_schedule():
    # 3.25 times the configured step at iteration 0, linearly down to the
    # configured step at iteration 800 and constant from there.
    for k, factor in [(1, 3.2471875), (400, 2.125), (799, 1.0028125),
                      (800, 1.0), (801, 1.0), (2_500, 1.0)]:
        assert adam_step_size(5e-4, k) == pytest.approx(5e-4 * factor,
                                                        rel=1e-15)
    steps = [adam_step_size(1e-3, k) for k in range(1, 802)]
    assert all(a > b for a, b in zip(steps[:799], steps[1:800]))
    assert steps[799] == steps[800] == 1e-3


def test_training_logs_its_steps_and_depleted_paths():
    cfg = small_config(iterations=3)
    _, report = train(cfg)
    assert [row[6] for row in report.rows] == [
        adam_step_size(cfg.learning_rate, k) for k in (1, 2, 3)]
    assert all(row[7] == 0 for row in report.rows)


def test_batch_objective_counts_paths_at_the_depletion_floor():
    # With a $1 pension, a crash in year 3 leaves paths 1-3 less than the
    # admin fee, so their balance is clamped at 0 in year 3. Path 0 crashes
    # in the last year instead, after its last transition.
    cfg = small_config(horizon=5, pension=PensionParams(a_max=1.0))
    panel = synthetic_panel(4, cfg.horizon, seed=2)
    panel.R[1:, 3] = -50.0
    panel.R[0, 5] = -50.0
    obj, _, depleted = batch_objective(he_init(seed=3), panel.R, panel.Q,
                                       cfg.curve(), cfg)
    assert depleted == 3
    assert float(obj.value) < -1e50      # the floor swamps the mean


# ------------------------------------------------------------------ training


def _direct_annuity_factor(panel, curve):
    """The annuity factor from whole (paths, T+1) arrays."""
    discount = panel.Q * np.exp(-np.cumsum(panel.R, axis=1))
    return float(np.sum(curve.tpx * discount.mean(axis=0)))


def test_annuity_factor_matches_the_direct_formula():
    cfg = small_config(horizon=12)
    curve = cfg.curve()
    panel = synthetic_panel(50, cfg.horizon, seed=4)
    got = annuity_factor(panel.R, panel.Q, curve.tpx)
    assert got == pytest.approx(_direct_annuity_factor(panel, curve),
                                rel=1e-12, abs=0.0)
    assert 1.0 < got < cfg.horizon + 1


def test_zero_iterations_returns_initialization():
    # he_init's weights, and a head bias that makes the year-0 fraction the
    # annuity drawdown f0 = (w0 / a + A0) / (w0 + A0) on every path.
    cfg = small_config(iterations=0)
    lines = []
    params, report = train(cfg, log=lines.append)
    init = he_init(seed=cfg.seed + 1)
    for n in PARAM_FIELDS[:-1]:
        assert np.array_equal(getattr(params, n), getattr(init, n))
    assert report.rows == []
    panel, curve = cfg.training_panel(), cfg.curve()
    annuity = _direct_annuity_factor(panel, curve)
    pension = float(age_pension(cfg.w0, 1.0, cfg.pension))
    f0 = (cfg.w0 / annuity + pension) / (cfg.w0 + pension)
    assert 0.0 < f0 < 1.0
    x = normalized_inputs(np.zeros(cfg.m_train), np.full(cfg.m_train, cfg.w0),
                          panel.R[:, 0], panel.Q[:, 0], cfg.norm())
    frac, _ = policy_fraction({n: getattr(params, n) for n in PARAM_FIELDS},
                              x)
    np.testing.assert_allclose(frac, f0, rtol=0.0, atol=1e-12)
    assert lines == [f"initial year-0 fraction {f0:.4f} (annuity factor "
                     f"{annuity:.2f}, pension ${pension:,.0f})"]


def _overflowing_panel(M, T):
    """A panel whose returns of 800 a year discount every later year to 0
    and overflow wealth in the first step."""
    panel = synthetic_panel(M, T)
    R = panel.R.copy()
    R[:, 1:] = 800.0
    return dataclasses.replace(panel, R=R)


@pytest.mark.parametrize("kw, make_panel", [
    ({"horizon": 0}, synthetic_panel), ({"w0": 0.0}, None),
    ({}, _overflowing_panel)], ids=["horizon 0", "w0 0", "overflow"])
def test_degenerate_start_keeps_the_zero_head_bias(kw, make_panel):
    # f0 is 1 in each case; training starts from he_init unchanged.
    cfg = small_config(iterations=0, **kw)
    panel = cfg.training_panel() if make_panel is None else \
        make_panel(cfg.m_train, cfg.horizon)
    lines = []
    params, _ = train(cfg, panel, log=lines.append)
    init = he_init(seed=cfg.seed + 1)
    for n in PARAM_FIELDS:
        assert np.array_equal(getattr(params, n), getattr(init, n))
    assert lines == ["initial year-0 fraction 1 is not inside (0, 1); "
                     "head bias kept at 0"]
    if make_panel is _overflowing_panel:
        # The first step still ends in the non-finite wealth abort.
        with pytest.raises(TrainingAborted, match="non-finite wealth"), \
                np.errstate(over="ignore"):
            train(dataclasses.replace(cfg, iterations=1), panel)


def test_training_is_deterministic():
    cfg = small_config(iterations=4)
    p1, r1 = train(cfg)
    p2, r2 = train(cfg)
    for n in PARAM_FIELDS:
        assert np.array_equal(getattr(p1, n), getattr(p2, n))
    assert [row[:2] for row in r1.rows] == [row[:2] for row in r2.rows]


def test_training_moves_parameters_and_logs():
    cfg = small_config(iterations=3)
    params, report = train(cfg)
    init = he_init(seed=cfg.seed + 1)
    assert not params.allclose(init)
    assert [row[0] for row in report.rows] == [1, 2, 3]
    assert all(np.isfinite(row[1]) for row in report.rows)
    # Forward, backward and Adam milliseconds per logging interval fit
    # inside the wallclock between rows.
    last = 0.0
    for _, _, ms, *phases, _, _ in report.rows:
        assert len(phases) == 3 and min(phases) >= 0.0
        assert sum(phases) <= ms - last + 1e-6
        last = ms


def test_training_improves_objective():
    cfg = TrainConfig(m_train=256, iterations=120, batch_size=128, seed=3,
                      horizon=15, log_every=1)
    _, report = train(cfg)
    objs = np.array([row[1] for row in report.rows])
    assert objs[-30:].mean() > objs[:30].mean()


def test_trained_policy_respects_constraints():
    cfg = small_config(iterations=10, m_train=64, batch_size=32)
    params, _ = train(cfg)
    curve = cfg.curve()
    panel = synthetic_panel(50, cfg.horizon, seed=99)
    total, rec = rollout_consume(network_consumer(params, cfg.norm()), panel,
                                 curve, cfg, record=True)
    from superdraw.account import age_pension
    assert np.all(rec.consumption >= 0.0)
    assert np.all(rec.wealth >= 0.0)
    # consumption never exceeds available resources (both are real here)
    avail = rec.wealth + rec.pension
    assert np.all(rec.consumption <= avail * (1 + 1e-12) + 1e-9)


def test_checkpoint_cadence_and_final_state(tmp_path):
    cfg = small_config(iterations=4, checkpoint_every=2)
    params, _ = train(cfg, checkpoint_dir=tmp_path)
    names = sorted(p.name for p in tmp_path.glob("*.npz"))
    assert names == ["checkpoint_000000.npz", "checkpoint_000002.npz",
                     "checkpoint_000004.npz", "checkpoint_final.npz"]
    loaded, norm, meta = load_checkpoint(tmp_path / "checkpoint_final.npz")
    for n in PARAM_FIELDS:
        assert np.array_equal(getattr(loaded, n), getattr(params, n))
    assert meta["iteration"] == 4
    assert norm.wealth_scale == cfg.w0


def test_last_iteration_gets_a_numbered_checkpoint(tmp_path):
    # 3 iterations at a cadence of 2: the trained policy is numbered too,
    # and the final checkpoint is the same file.
    cfg = small_config(iterations=3, checkpoint_every=2)
    train(cfg, checkpoint_dir=tmp_path)
    names = sorted(p.name for p in tmp_path.glob("*.npz"))
    assert names == ["checkpoint_000000.npz", "checkpoint_000002.npz",
                     "checkpoint_000003.npz", "checkpoint_final.npz"]
    assert (tmp_path / "checkpoint_000003.npz").read_bytes() == \
        (tmp_path / "checkpoint_final.npz").read_bytes()


def test_train_rejects_mismatched_panel():
    cfg = small_config()
    panel = synthetic_panel(cfg.m_train, cfg.horizon + 1)
    with pytest.raises(ConfigError):
        train(cfg, panel=panel)


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergent_panel_raises(tmp_path):
    cfg = small_config(iterations=2)
    panel = synthetic_panel(cfg.m_train, cfg.horizon)
    panel.R[:, 1] = 1e6
    with pytest.raises(NumericError, match="iteration 1"):
        train(cfg, panel=panel, checkpoint_dir=tmp_path)
    assert load_checkpoint(tmp_path / "checkpoint_abort.npz")[2][
        "iteration"] == 0


def test_nonfinite_gradient_takes_the_abort_path(tmp_path, monkeypatch):
    # Iteration 2 gets a NaN gradient while its objective stays finite.
    real = trainer._sweep
    calls = []

    def poisoned(*args):
        grads = real(*args)
        calls.append(1)
        if len(calls) == 2:
            grads[PARAM_FIELDS.index("w3")][:] = np.nan
        return grads

    monkeypatch.setattr(trainer, "_sweep", poisoned)
    cfg = small_config(iterations=3, checkpoint_every=1)
    with pytest.raises(NumericError, match="iteration 2"):
        train(cfg, checkpoint_dir=tmp_path)
    abort, _, meta = load_checkpoint(tmp_path / "checkpoint_abort.npz")
    good, _, _ = load_checkpoint(tmp_path / "checkpoint_000001.npz")
    assert meta["iteration"] == 1
    assert abort.allclose(good, rtol=0.0, atol=0.0)


def _tape_nodes(root):
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def test_tape_stays_coarse():
    # The objective is one root node over the eight weight leaves; the
    # simulated years live in the sweep, not in a graph.
    cfg = small_config(horizon=41, m_train=8, batch_size=8)
    panel = synthetic_panel(8, 41, seed=3)
    obj, _, _ = batch_objective(he_init(seed=1), panel.R, panel.Q,
                                cfg.curve(), cfg)
    assert _tape_nodes(obj) == len(PARAM_FIELDS) + 1


def test_effective_utility_rescales_default_unit():
    cfg = small_config()
    assert cfg.effective_utility().wealth_unit == cfg.w0
    explicit = small_config(utility=UtilityParams(wealth_unit=123.0))
    assert explicit.effective_utility().wealth_unit == 123.0


@pytest.mark.parametrize("rho, ok", [(5.0, True), (19.0, True),
                                     (20.0, False), (21.0, False)])
def test_utility_at_the_floor_must_be_finite(rho, ok):
    # At the desk unit of 500,000 the floor's u' is inf from rho ~ 19.6 on.
    utility = UtilityParams(rho=rho)
    if ok:
        small_config(utility=utility)
    else:
        with pytest.raises(ConfigError, match="at floor_epsilon"):
            small_config(utility=utility)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(batch_size=64, m_train=32)
    with pytest.raises(ConfigError):
        small_config(iterations=-1)
    for w0 in (np.nan, np.inf, -1.0):
        with pytest.raises(ConfigError, match="w0 must be finite and >= 0"):
            small_config(w0=w0)
