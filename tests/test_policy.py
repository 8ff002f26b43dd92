import numpy as np
import pytest

from conftest import map_params, perturb
from oracles import sigmoid_oracle
from superdraw import policy
from superdraw.errors import ConfigError, DataError
from superdraw.policy import (PARAM_FIELDS, MlpParams, PolicyNorm,
                              fraction_backward, he_init, load_checkpoint,
                              normalized_inputs, policy_fraction,
                              save_checkpoint)

NORM = PolicyNorm(horizon=41.0, wealth_scale=500_000.0)


def small_params(seed=0):
    return he_init(6, 5, 4, seed=seed)


def some_input(W=400_000.0):
    """One (t, W, R, Q) state."""
    return (3.0, W, 0.05, 1.1)


def plain(params):
    return {n: getattr(params, n) for n in PARAM_FIELDS}


def zero_grads(params):
    return {n: np.zeros_like(getattr(params, n)) for n in PARAM_FIELDS}


def consumption(params, inp, w_plus_a, seed=1.0):
    """Consumption of one state and the weight gradient of seed times it;
    returns (consumption, MlpParams of gradients)."""
    w = plain(params)
    x = normalized_inputs(*(np.array([v]) for v in inp), NORM)
    frac, layers = policy_fraction(w, x)
    grads = zero_grads(params)
    fraction_backward(w, layers, frac, np.array([seed * w_plus_a]), grads)
    return float(frac[0] * w_plus_a), MlpParams(**grads)


def test_he_init_deterministic():
    a, b = he_init(seed=7), he_init(seed=7)
    assert a.allclose(b, rtol=0, atol=0)
    c = he_init(seed=8)
    assert not a.allclose(c)


def test_he_init_biases_zero_and_shapes():
    p = he_init(20, 20, 20, seed=0)
    assert (p.w0.shape[0], p.w1.shape[0], p.w2.shape[0]) == (20, 20, 20)
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
    p = map_params(small_params(), np.zeros_like)
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
    # The backward pass on a scalar: f = c^2 has df/dc = 2c.
    p = small_params(4)
    c, g_lin = consumption(p, some_input(), 200_000.0)
    _, g_sq = consumption(p, some_input(), 200_000.0, seed=2.0 * c)
    for n in PARAM_FIELDS:
        assert np.allclose(getattr(g_sq, n), 2.0 * c * getattr(g_lin, n),
                           rtol=1e-12)


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
        _, grads = consumption(p, inp, wpa)
        name = PARAM_FIELDS[trial % len(PARAM_FIELDS)]
        arr = getattr(p, name)
        i = int(rng.integers(arr.shape[0]))
        j = int(rng.integers(arr.shape[1]))
        h = 1e-5
        p_up = perturb(p, name, i, j, +h)
        p_dn = perturb(p, name, i, j, -h)
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
    frac, layers = policy.policy_fraction(plain(p), x0)
    grads = zero_grads(p)
    x_grad = fraction_backward(plain(p), layers, frac, seed, grads)

    def f(q, xv=x0):
        return float(policy.policy_fraction(plain(q), xv)[0] @ seed)

    assert np.all(grads["w0"][[1, 4]] == 0.0)
    assert np.all(grads["w1"][:, [1, 4]] == 0.0)
    assert np.all(grads["w1"][2] == 0.0)
    assert np.all(grads["w2"][:, 2] == 0.0)
    h = 1e-6
    for name in PARAM_FIELDS:
        arr = getattr(p, name)
        for i, j in np.ndindex(arr.shape):
            fd = (f(perturb(p, name, i, j, h))
                  - f(perturb(p, name, i, j, -h))) / (2.0 * h)
            assert grads[name][i, j] == pytest.approx(
                fd, rel=1e-5, abs=1e-9), (name, i, j)
    for i, j in np.ndindex(x0.shape):
        step = np.zeros_like(x0)
        step[i, j] = h
        fd = (f(p, x0 + step) - f(p, x0 - step)) / (2.0 * h)
        assert x_grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-9)
