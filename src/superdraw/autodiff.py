"""Reverse-mode automatic differentiation on a small array-valued tape.

A `Tensor` wraps a float64 ndarray and records how it was produced; calling
`backward()` on a scalar result walks the recorded graph in reverse
topological order and accumulates gradients into every leaf. Nodes hold whole
arrays (a batch of simulation paths, a layer of activations), so the tape
stays short even when the computation spans a 40-year wealth recursion.

The tape is coarse on purpose. Each model block (the policy network, the Age
Pension, the fee and the wealth transition, the CRRA kernel) computes its
value once, from one NumPy expression, and returns that array when no input
is a Tensor; when one is, it wraps the same value in a single node whose
hand-written backward applies the block's local derivative, built from the
branch masks of the value it just computed. Plain-numpy evaluation and
differentiable training therefore share every formula, while the tape costs a
handful of nodes per simulated year. The generic operators below only join
blocks together: sums, products and the reductions of the objective.

Kink handling is deliberate and uniform: every max, min, clamp and ReLU in a
block passes the gradient to the strict winner only, and passes nothing on
exact ties. The training objective is piecewise smooth (pension tests,
depletion floor) and ties sit on measure-zero sets, so this is the standard
subgradient choice.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "value_of",
    "local",
    "stack_rows",
]


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, (g, s) in enumerate(zip(grad.shape, shape)):
        if s == 1 and g != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """One node of the computation tape."""

    __slots__ = ("value", "grad", "_parents", "_backward")

    # Make numpy defer mixed ndarray-Tensor arithmetic to the reflected
    # operators below instead of looping elementwise into an object array.
    __array_ufunc__ = None

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = tuple(parents)
        self._backward = backward

    # ------------------------------------------------------------------ infra

    @property
    def shape(self):
        return self.value.shape

    def _accum(self, g: np.ndarray) -> None:
        g = _unbroadcast(np.asarray(g, dtype=np.float64), self.value.shape)
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def backward(self, seed=None) -> None:
        """Accumulate gradients of `self` into every reachable node.

        `seed` is the gradient of the final objective w.r.t. this node;
        defaults to ones (i.e. differentiate `self.sum()` elementwise).
        """
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        if seed is None:
            seed = np.ones_like(self.value)
        self._accum(seed)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, leaf={self._backward is None})"

    # ------------------------------------------------------------- arithmetic
    # A plain operand is a constant: it gets no node of its own.

    def __add__(self, other):
        if not isinstance(other, Tensor):
            return Tensor(self.value + other, (self,), self._accum)

        def back(g):
            self._accum(g)
            other._accum(g)

        return Tensor(self.value + other.value, (self, other), back)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Tensor):
            return Tensor(self.value * other, (self,),
                          lambda g: self._accum(g * other))

        def back(g):
            self._accum(g * other.value)
            other._accum(g * self.value)

        return Tensor(self.value * other.value, (self, other), back)

    __rmul__ = __mul__

    # ------------------------------------------------------------ reductions

    def sum(self):
        return Tensor(self.value.sum(), (self,), lambda g: self._accum(
            np.broadcast_to(g, self.value.shape)))

    def mean(self):
        n = self.value.size
        return Tensor(self.value.mean(), (self,), lambda g: self._accum(
            np.broadcast_to(g / n, self.value.shape)))


def value_of(x):
    """The array behind `x`: a Tensor's value, anything else unchanged."""
    return x.value if isinstance(x, Tensor) else x


def local(value, *inputs):
    """`value` as one tape node with an elementwise local derivative.

    `inputs` are (x, slope) pairs, slope being d value / d x evaluated at
    the recorded point; pairs whose x is not a Tensor are constants and are
    dropped. Blocks call this only when some input is a Tensor.
    """
    pairs = [(x, s) for x, s in inputs if isinstance(x, Tensor)]

    def back(g):
        for x, slope in pairs:
            x._accum(g * slope)

    return Tensor(value, [x for x, _ in pairs], back)


def stack_rows(rows):
    """Stack 1-d rows into a 2-d array; rows may mix Tensors and ndarrays."""
    value = np.stack([np.asarray(value_of(r), dtype=np.float64)
                      for r in rows])
    taped = [(i, r) for i, r in enumerate(rows) if isinstance(r, Tensor)]
    if not taped:
        return value

    def back(g):
        for i, r in taped:
            r._accum(g[i])

    return Tensor(value, [r for _, r in taped], back)
