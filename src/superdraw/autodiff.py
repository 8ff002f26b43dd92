"""The root node of the training objective and its weight leaves.

The rollout is a fixed recursion with one state per path, the wealth W, so
its gradient is one backward sweep over lambda_t = dJ/dW_t
(`trainer._sweep`), not a general reverse-mode tape. The sweep chains the
local slopes that each model block (pension, transition, CRRA, network)
returns on request from the same expression that gives its value.

Kink handling is deliberate and uniform: every max, min, clamp and ReLU in a
block passes the gradient to the strict winner only, and passes nothing on
exact ties. The training objective is piecewise smooth (pension tests,
depletion floor) and ties sit on measure-zero sets, so this is the standard
subgradient choice.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor"]


class Tensor:
    """A weight leaf, or an objective whose parents are the leaves and
    whose `_backward()` returns one gradient per parent."""

    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = tuple(parents)
        self._backward = backward

    def backward(self) -> None:
        """Run the sweep once and set each parent's `grad` to its result."""
        for leaf, g in zip(self._parents, self._backward()):
            leaf.grad = g
