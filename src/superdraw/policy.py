"""The consumption policy network: a 4-K1-K2-K3-1 perceptron.

Inputs are (t, W, R, Q); the head is a sigmoid scaled by the available
resources W + A, so consumption always lands strictly inside (0, W + A) and
the budget constraint never needs an explicit penalty. One network serves
every decision year; time is just the first input.

Inputs are normalized to O(1) before the first layer (t by the horizon,
W by the configured initial wealth; R and Q are already O(1)), and the
normalization constants travel with the checkpoint so a saved policy is
evaluated exactly as trained.

The network body is one block, like the account formulas: `policy_fraction`
runs the forward pass once in NumPy and returns the array for plain
weights; given Tensor weights or inputs it wraps that same array in one
tape node whose backward is ordinary ReLU-MLP backpropagation through the
activations it kept. There is no second, operator-by-operator version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DataError, NumericError

__all__ = [
    "MlpParams",
    "PolicyNorm",
    "ForwardTape",
    "PARAM_FIELDS",
    "he_init",
    "lift",
    "policy_fraction",
    "backward",
    "save_checkpoint",
    "load_checkpoint",
]

PARAM_FIELDS = ("w0", "b0", "w1", "b1", "w2", "b2", "w3", "b3")
N_INPUTS = 4


@dataclass
class MlpParams:
    w0: np.ndarray
    b0: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    def __post_init__(self):
        k1, n_in = self.w0.shape
        k2 = self.w1.shape[0]
        k3 = self.w2.shape[0]
        want = {"w0": (k1, n_in), "b0": (k1, 1), "w1": (k2, k1),
                "b1": (k2, 1), "w2": (k3, k2), "b2": (k3, 1),
                "w3": (1, k3), "b3": (1, 1)}
        for name, shape in want.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ConfigError(f"{name} has shape {arr.shape}, "
                                  f"expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"non-finite entries in {name}")

    @property
    def widths(self):
        return (self.w0.shape[0], self.w1.shape[0], self.w2.shape[0])

    def copy(self) -> "MlpParams":
        return MlpParams(**{n: getattr(self, n).copy() for n in PARAM_FIELDS})

    def map(self, fn) -> "MlpParams":
        return MlpParams(**{n: fn(getattr(self, n)) for n in PARAM_FIELDS})

    def allclose(self, other: "MlpParams", **kw) -> bool:
        return all(np.allclose(getattr(self, n), getattr(other, n), **kw)
                   for n in PARAM_FIELDS)


@dataclass(frozen=True)
class PolicyNorm:
    """Input scaling recorded alongside the weights."""

    horizon: float = 41.0
    wealth_scale: float = 500_000.0

    def __post_init__(self):
        if self.horizon <= 0 or self.wealth_scale <= 0:
            raise ConfigError("normalization constants must be positive")


def he_init(k1: int = 20, k2: int = 20, k3: int = 20,
            seed: int = 0) -> MlpParams:
    """Gaussian fan-in initialization; biases start at zero."""
    if min(k1, k2, k3) < 1:
        raise ConfigError("layer widths must be >= 1")
    rng = np.random.default_rng(seed)
    def w(rows, cols):
        return rng.normal(0.0, np.sqrt(2.0 / cols), size=(rows, cols))
    return MlpParams(
        w0=w(k1, N_INPUTS), b0=np.zeros((k1, 1)),
        w1=w(k2, k1), b1=np.zeros((k2, 1)),
        w2=w(k3, k2), b2=np.zeros((k3, 1)),
        w3=w(1, k3), b3=np.zeros((1, 1)),
    )


def lift(params: MlpParams) -> dict:
    """Fresh leaf Tensors for one training step."""
    return {n: Tensor(getattr(params, n)) for n in PARAM_FIELDS}


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # Two-sided form avoids overflow in exp for large |v|: 1 / (1 + e^-v)
    # for v >= 0 and e^v / (1 + e^v) below, with e = e^-|v| in both.
    e = np.exp(-np.abs(v))
    d = 1.0 + e
    return np.where(v >= 0, 1.0 / d, e / d)


def policy_fraction(p, x):
    """Network body: consumption as a fraction of available resources.

    `p` maps field names to weights (arrays or Tensors); `x` is the
    normalized input block of shape (4, batch), an array or a Tensor.
    Returns a (batch,) row in (0, 1). ReLU on the input and both hidden
    layers, sigmoid on the head. On a tape the whole body is one node whose
    backward is ordinary ReLU-MLP backpropagation; a unit whose
    pre-activation is exactly 0 passes no gradient.
    """
    w = {n: ad.value_of(p[n]) for n in PARAM_FIELDS}
    taped = {n: p[n] for n in PARAM_FIELDS if isinstance(p[n], Tensor)}
    on_tape = bool(taped) or isinstance(x, Tensor)
    h = ad.value_of(x)
    layers = [h]                       # inputs of w0, w1, w2, w3
    for k in range(3):
        h = w[f"w{k}"] @ h             # in place: one new array per layer
        h += w[f"b{k}"]
        np.maximum(h, 0.0, out=h)
        if on_tape:
            # Kept for the backward pass, where h > 0 is also the ReLU
            # mask: exactly where the pre-activation is > 0.
            layers.append(h)
    frac = _sigmoid(w["w3"] @ h + w["b3"]).reshape(-1)
    if not on_tape:
        return frac

    def back(g):
        d = (g * frac * (1.0 - frac)).reshape(1, -1)
        for k in (3, 2, 1, 0):
            if f"w{k}" in taped:
                taped[f"w{k}"]._accum(d @ layers[k].T)
            if f"b{k}" in taped:
                taped[f"b{k}"]._accum(d.sum(axis=1, keepdims=True))
            if k > 0:
                d = w[f"w{k}"].T @ d
                d *= layers[k] > 0
            elif isinstance(x, Tensor):
                x._accum(w["w0"].T @ d)

    parents = list(taped.values()) + ([x] if isinstance(x, Tensor) else [])
    return Tensor(frac, parents, back)


def normalized_inputs(t, W, R, Q, norm: PolicyNorm):
    """Stack (t, W, R, Q) rows scaled to O(1); any row may be a Tensor."""
    scale = 1.0 / norm.wealth_scale
    return ad.stack_rows([t * (1.0 / norm.horizon), W * scale, R, Q])


@dataclass
class ForwardTape:
    """Recorded computation of one forward pass."""

    output: Tensor
    params: dict


def backward(tape: ForwardTape) -> MlpParams:
    """Parameter gradients of the recorded output; MlpParams-shaped."""
    tape.output.backward()
    grads = {}
    for name, leaf in tape.params.items():
        grads[name] = (np.zeros_like(leaf.value) if leaf.grad is None
                       else leaf.grad)
    return MlpParams(**grads)


# ------------------------------------------------------------- checkpoints

_CHECKPOINT_VERSION = 1


def save_checkpoint(path, params: MlpParams, norm: PolicyNorm,
                    config_hash: str = "", iteration: int = 0) -> None:
    """Binary round-trip-exact serialization of weights and normalization."""
    arrays = {n: getattr(params, n) for n in PARAM_FIELDS}
    np.savez(path, version=np.array(_CHECKPOINT_VERSION),
             horizon=np.array(norm.horizon),
             wealth_scale=np.array(norm.wealth_scale),
             config_hash=np.array(config_hash),
             iteration=np.array(iteration), **arrays)


def load_checkpoint(path):
    """Returns (MlpParams, PolicyNorm, meta dict)."""
    try:
        with np.load(path, allow_pickle=False) as data:
            version = int(data["version"])
            if version != _CHECKPOINT_VERSION:
                raise DataError(f"{path}: unsupported checkpoint version "
                                f"{version}")
            params = MlpParams(**{n: data[n] for n in PARAM_FIELDS})
            norm = PolicyNorm(horizon=float(data["horizon"]),
                              wealth_scale=float(data["wealth_scale"]))
            meta = {"config_hash": str(data["config_hash"]),
                    "iteration": int(data["iteration"])}
    except KeyError as exc:
        raise DataError(f"{path}: missing checkpoint field {exc}") from None
    return params, norm, meta


def perturb(params: MlpParams, name: str, i: int, j: int,
            delta: float) -> MlpParams:
    """Copy of `params` with one entry nudged; used by gradient checks."""
    out = params.copy()
    getattr(out, name)[i, j] += delta
    return out
