"""Sequential container and a small training loop helper."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.ml.layers import Layer, Param
from repro.utils.rng import derive_rng


class Sequential(Layer):
    """Layers applied in order; backward runs them in reverse."""

    def __init__(self, layers: Sequence[Layer]):
        self.layers = list(layers)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def backward_params(self, grad_out: np.ndarray) -> None:
        """:meth:`backward` without forming the model's input gradient."""
        for layer in reversed(self.layers[1:]):
            grad_out = layer.backward(grad_out)
        self.layers[0].backward_params(grad_out)

    def params(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.params()]


def fit(
    model: Sequential,
    x: np.ndarray,
    y: np.ndarray,
    loss_fn: Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]],
    optimizer,
    epochs: int = 50,
    batch_size: int = 64,
    seed_or_rng=None,
) -> list[float]:
    """Mini-batch training loop; returns the per-epoch mean loss curve.

    Each epoch gathers the shuffled data once and steps over contiguous
    slices of it; the backward pass skips the input gradient, which
    nothing trains on.
    """
    rng = derive_rng(seed_or_rng)
    n = len(x)
    history: list[float] = []
    for _ in range(epochs):
        order = rng.permutation(n)
        x_ep, y_ep = x[order], y[order]
        losses: list[float] = []
        for start in range(0, n, batch_size):
            stop = start + batch_size
            out = model.forward(x_ep[start:stop], train=True)
            loss, grad = loss_fn(out, y_ep[start:stop])
            model.backward_params(grad)
            optimizer.step()
            losses.append(loss)
        history.append(float(np.mean(losses)))
    return history
