import numpy as np
import pytest

from oracles import sigmoid_oracle
from superdraw import policy
from superdraw.autodiff import Tensor
from superdraw.errors import ConfigError, DataError
from superdraw.policy import (PARAM_FIELDS, ForwardTape, MlpParams,
                              PolicyNorm, backward, he_init, lift,
                              load_checkpoint, normalized_inputs,
                              policy_fraction, save_checkpoint)

NORM = PolicyNorm(horizon=41.0, wealth_scale=500_000.0)


def small_params(seed=0):
    return he_init(6, 5, 4, seed=seed)


def some_input(W=400_000.0):
    """One (t, W, R, Q) state."""
    return (3.0, W, 0.05, 1.1)


def consumption(params, inp, w_plus_a):
    """Consumption of one state on a tape; returns (consumption, tape)."""
    p = lift(params)
    x = normalized_inputs(*(np.array([v]) for v in inp), NORM)
    c = policy_fraction(p, x) * w_plus_a
    return float(c.value[0]), ForwardTape(output=c, params=p)


def test_he_init_deterministic():
    a, b = he_init(seed=7), he_init(seed=7)
    assert a.allclose(b, rtol=0, atol=0)
    c = he_init(seed=8)
    assert not a.allclose(c)


def test_he_init_biases_zero_and_shapes():
    p = he_init(20, 20, 20, seed=0)
    assert p.widths == (20, 20, 20)
    for name in ("b0", "b1", "b2", "b3"):
        assert np.all(getattr(p, name) == 0.0)
    assert p.w0.shape == (20, 4)
    assert p.w3.shape == (1, 20)


def test_he_init_variance_scales_with_fan_in():
    p = he_init(30, 10_000, 5, seed=1)
    # w1 has fan-in 30 here; use the big layer's input weights instead.
    v = p.w2.var()  # shape (5, 10000), fan_in 10000
    assert v == pytest.approx(2.0 / 10_000, rel=0.1)


def test_he_init_rejects_bad_widths():
    with pytest.raises(ConfigError):
        he_init(0, 5, 5)


def test_forward_zero_params_gives_half():
    p = small_params().map(np.zeros_like)
    c, _ = consumption(p, some_input(), w_plus_a=10_000.0)
    assert c == pytest.approx(5_000.0)


def test_forward_zero_resources_gives_zero():
    c, _ = consumption(small_params(), some_input(), w_plus_a=0.0)
    assert c == 0.0


def test_forward_strictly_inside_budget():
    rng = np.random.default_rng(3)
    for seed in range(30):
        p = he_init(6, 5, 4, seed=seed)
        wpa = float(rng.uniform(1.0, 1e6))
        c, _ = consumption(p, some_input(W=rng.uniform(0, 1e6)),
                           w_plus_a=wpa)
        assert 0.0 < c < wpa


def test_sigmoid_equals_masked_two_sided_form():
    rng = np.random.default_rng(3)
    v = np.concatenate([[0.0, -0.0, 1e-300, -1e-300, 800.0, -800.0],
                        5.0 * rng.standard_normal(10_000)]).reshape(1, -1)
    assert policy._sigmoid(v).tobytes() == sigmoid_oracle(v).tobytes()
    assert np.isnan(policy._sigmoid(np.array([np.nan]))).all()


def test_forward_deterministic():
    p = small_params(2)
    a, _ = consumption(p, some_input(), 123_456.0)
    b, _ = consumption(p, some_input(), 123_456.0)
    assert a == b


def test_backward_simple_square():
    # The tape machinery on a scalar: f = c^2 has df/dc = 2c.
    p = small_params(4)
    c, tape = consumption(p, some_input(), 200_000.0)
    sq = tape.output * tape.output
    sq.backward()
    g_sq = {n: tape.params[n].grad.copy() for n in PARAM_FIELDS}
    _, tape2 = consumption(p, some_input(), 200_000.0)
    g_lin = backward(tape2)
    for n in PARAM_FIELDS:
        assert np.allclose(g_sq[n], 2.0 * c * getattr(g_lin, n), rtol=1e-12)


def relu_signature(p, inp, wpa):
    """Activation pattern of the three ReLU layers for one input."""
    t, W, R, Q = inp
    x = np.array([[t / NORM.horizon], [W / NORM.wealth_scale], [R], [Q]])
    sig = []
    h = x
    for wn, bn in (("w0", "b0"), ("w1", "b1"), ("w2", "b2")):
        z = getattr(p, wn) @ h + getattr(p, bn)
        sig.append(z > 0)
        h = np.maximum(z, 0.0)
    return np.concatenate([s.ravel() for s in sig])


def test_backward_matches_finite_differences():
    # 100 random parameter/input draws, one coordinate each; draws whose FD
    # step would cross a ReLU boundary are excluded via the activation
    # signature (the analytic subgradient is 0 on the dead side of a kink).
    rng = np.random.default_rng(11)
    checked = 0
    for trial in range(160):
        p = he_init(5, 4, 3, seed=100 + trial)
        inp = (float(rng.integers(0, 41)), float(rng.uniform(1e3, 1e6)),
               float(rng.normal(0, 0.15)), float(rng.uniform(0.8, 2.5)))
        wpa = float(rng.uniform(1e3, 1e6))
        _, tape = consumption(p, inp, wpa)
        grads = backward(tape)
        name = PARAM_FIELDS[trial % len(PARAM_FIELDS)]
        arr = getattr(p, name)
        i = int(rng.integers(arr.shape[0]))
        j = int(rng.integers(arr.shape[1]))
        h = 1e-5
        p_up = policy.perturb(p, name, i, j, +h)
        p_dn = policy.perturb(p, name, i, j, -h)
        if not np.array_equal(relu_signature(p_up, inp, wpa),
                              relu_signature(p_dn, inp, wpa)):
            continue
        up, _ = consumption(p_up, inp, wpa)
        dn, _ = consumption(p_dn, inp, wpa)
        fd = (up - dn) / (2 * h)
        got = getattr(grads, name)[i, j]
        if abs(fd) < 1e-12 and abs(got) < 1e-12:
            continue  # dead path: both sides agree the gradient is 0
        assert got == pytest.approx(fd, rel=1e-5, abs=1e-9), (name, i, j)
        checked += 1
    assert checked >= 60


def test_params_shape_validation():
    p = small_params()
    with pytest.raises(ConfigError):
        MlpParams(w0=p.w0, b0=np.zeros((3, 1)), w1=p.w1, b1=p.b1,
                  w2=p.w2, b2=p.b2, w3=p.w3, b3=p.b3)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    p = he_init(20, 20, 20, seed=9)
    norm = PolicyNorm(horizon=41.0, wealth_scale=300_000.0)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, p, norm, config_hash="abc123", iteration=777)
    q, norm2, meta = load_checkpoint(path)
    for n in PARAM_FIELDS:
        assert np.array_equal(getattr(p, n), getattr(q, n))
    assert norm2 == norm
    assert meta == {"config_hash": "abc123", "iteration": 777}


def test_checkpoint_rejects_bad_file(tmp_path):
    path = tmp_path / "bad.npz"
    np.savez(path, version=np.array(1))
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_norm_validation():
    with pytest.raises(ConfigError):
        PolicyNorm(horizon=0.0)


def test_network_node_matches_fd_with_dead_units():
    # A batch through a 6-5-4 body with two first-layer units and one
    # second-layer unit dead for every input: their weights get exactly
    # zero gradient, and every other entry matches central differences.
    rng = np.random.default_rng(4)
    p = small_params(6)
    p.b0[[1, 4]] = -50.0
    p.b1[2] = -50.0
    x0 = np.vstack([rng.uniform(0, 1, 7), rng.uniform(0, 2, 7),
                    rng.normal(0, 0.15, 7), rng.uniform(0.8, 2.5, 7)])
    seed = rng.normal(size=7)
    taped = {n: Tensor(getattr(p, n)) for n in PARAM_FIELDS}
    x = Tensor(x0)
    (policy.policy_fraction(taped, x) * seed).sum().backward()

    def f(q, xv=x0):
        plain = {n: getattr(q, n) for n in PARAM_FIELDS}
        return float(policy.policy_fraction(plain, xv) @ seed)

    assert np.all(taped["w0"].grad[[1, 4]] == 0.0)
    assert np.all(taped["w1"].grad[:, [1, 4]] == 0.0)
    assert np.all(taped["w1"].grad[2] == 0.0)
    assert np.all(taped["w2"].grad[:, 2] == 0.0)
    h = 1e-6
    for name in PARAM_FIELDS:
        arr = getattr(p, name)
        for i, j in np.ndindex(arr.shape):
            fd = (f(policy.perturb(p, name, i, j, h))
                  - f(policy.perturb(p, name, i, j, -h))) / (2.0 * h)
            assert taped[name].grad[i, j] == pytest.approx(
                fd, rel=1e-5, abs=1e-9), (name, i, j)
    for i, j in np.ndindex(x0.shape):
        step = np.zeros_like(x0)
        step[i, j] = h
        fd = (f(p, x0 + step) - f(p, x0 - step)) / (2.0 * h)
        assert x.grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-9)
