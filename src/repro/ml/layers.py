"""Differentiable layers with explicit forward/backward passes.

Every layer caches what it needs during ``forward`` and consumes the cache
in ``backward``; parameters accumulate gradients in ``Param.grad`` until
the optimizer consumes and zeroes them. Layers always read and update
``Param.value``/``Param.grad`` in place, so an optimizer may rebind them
to views of its own buffers. Shapes follow the row-major
convention: activations are ``(batch, features)``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import derive_rng


@dataclass
class Param:
    """A trainable tensor plus its gradient accumulator."""

    value: np.ndarray
    grad: np.ndarray = field(init=False)
    name: str = ""

    def __post_init__(self) -> None:
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


class Layer(abc.ABC):
    """Base class: a pure function of its input plus trainable params."""

    @abc.abstractmethod
    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Compute the layer output, caching for ``backward``."""

    @abc.abstractmethod
    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients, return gradient w.r.t. input."""

    def backward_params(self, grad_out: np.ndarray) -> None:
        """Accumulate parameter gradients; the input gradient is not needed.

        For a model's first layer, whose input gradient nobody reads.
        Layers that can skip forming it override this.
        """
        self.backward(grad_out)

    def params(self) -> list[Param]:
        """Trainable parameters (default none)."""
        return []


class Linear(Layer):
    """Affine map ``y = x W + b`` with Glorot-uniform initialisation."""

    def __init__(self, n_in: int, n_out: int, seed_or_rng=None, name: str = ""):
        rng = derive_rng(seed_or_rng)
        bound = np.sqrt(6.0 / (n_in + n_out))
        self.weight = Param(
            rng.uniform(-bound, bound, size=(n_in, n_out)), name=f"{name}.W"
        )
        self.bias = Param(np.zeros(n_out), name=f"{name}.b")
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._x = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.backward_params(grad_out)
        return grad_out @ self.weight.value.T

    def backward_params(self, grad_out: np.ndarray) -> None:
        assert self._x is not None, "backward before forward"
        self.weight.grad += self._x.T @ grad_out
        self.bias.grad += grad_out.sum(axis=0)

    def params(self) -> list[Param]:
        return [self.weight, self.bias]


class ReLU(Layer):
    """Elementwise ``max(0, x)``."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._mask is not None, "backward before forward"
        return grad_out * self._mask


class Tanh(Layer):
    """Elementwise hyperbolic tangent."""

    def __init__(self) -> None:
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._y is not None, "backward before forward"
        return grad_out * (1.0 - self._y**2)


class Sigmoid(Layer):
    """Elementwise logistic function (prefer ``bce_with_logits`` for loss)."""

    def __init__(self) -> None:
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._y = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
        return self._y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._y is not None, "backward before forward"
        return grad_out * self._y * (1.0 - self._y)


class Dropout(Layer):
    """Inverted dropout; identity at inference time."""

    def __init__(self, p: float = 0.5, seed_or_rng=None) -> None:
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0,1), got {p}")
        self.p = p
        self._rng = derive_rng(seed_or_rng)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if not train or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask
