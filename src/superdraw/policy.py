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
runs the forward pass once in NumPy and returns the activations it
computed along with its output. `fraction_backward` is ordinary
ReLU-MLP backpropagation through those activations; the training sweep
calls it once per simulated year. There is no second, operator-by-operator
version of the network.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, DataError, NumericError

__all__ = [
    "MlpParams",
    "PolicyNorm",
    "PARAM_FIELDS",
    "he_init",
    "policy_fraction",
    "fraction_backward",
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


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # Two-sided form avoids overflow in exp for large |v|: 1 / (1 + e^-v)
    # for v >= 0 and e^v / (1 + e^v) below, with e = e^-|v| in both.
    e = np.exp(-np.abs(v))
    d = 1.0 + e
    return np.where(v >= 0, 1.0 / d, e / d)


def policy_fraction(w, x):
    """Network body: consumption as a fraction of available resources.

    `w` maps field names to weight arrays; `x` is the normalized input block
    of shape (4, batch). Returns (fraction, layers): a (batch,) row in
    (0, 1), with ReLU on the input and both hidden layers and a sigmoid on
    the head, and the inputs of w0..w3, which `fraction_backward` reads.
    """
    h = x
    layers = [h]                       # inputs of w0, w1, w2, w3
    for k in range(3):
        h = w[f"w{k}"] @ h             # in place: one new array per layer
        h += w[f"b{k}"]
        np.maximum(h, 0.0, out=h)
        # h > 0 doubles as the ReLU mask in `fraction_backward`: exactly
        # where the pre-activation is > 0.
        layers.append(h)
    frac = _sigmoid(w["w3"] @ h + w["b3"]).reshape(-1)
    return frac, layers


def fraction_backward(w, layers, frac, g, grads):
    """Backpropagate `g`, the (batch,) gradient of an objective with
    respect to `frac`, through the body that computed `frac` and `layers`.

    Adds each weight's gradient into the array of the same name in `grads`
    and returns the (4, batch) gradient with respect to the input block. A
    unit whose pre-activation is exactly 0 passes no gradient.
    """
    d = (g * frac * (1.0 - frac)).reshape(1, -1)
    for k in (3, 2, 1, 0):
        grads[f"w{k}"] += d @ layers[k].T
        grads[f"b{k}"] += d.sum(axis=1, keepdims=True)
        if k > 0:
            d = w[f"w{k}"].T @ d
            d *= layers[k] > 0
    return w["w0"].T @ d


def normalized_inputs(t, W, R, Q, norm: PolicyNorm):
    """Stack (t, W, R, Q) rows scaled to O(1)."""
    scale = 1.0 / norm.wealth_scale
    return np.stack([t * (1.0 / norm.horizon), W * scale, R, Q])


def backward(tape: Tensor) -> MlpParams:
    """Weight gradients of an objective's root node, whose parents are the
    weight leaves in PARAM_FIELDS order; MlpParams-shaped."""
    tape.backward()
    return MlpParams(**{n: leaf.grad
                        for n, leaf in zip(PARAM_FIELDS, tape._parents)})


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
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":
            raise DataError(f"{path}: not a checkpoint archive (.npz)")
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
    except (KeyError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path}: unreadable checkpoint ({exc})") from None
    return params, norm, meta
