"""Optimizers: plain SGD (with momentum) and Adam."""

from __future__ import annotations

import numpy as np

from repro.ml.layers import Param


class Sgd:
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, params: list[Param], lr: float = 0.1, momentum: float = 0.0):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self._params = params
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.value) for p in params]

    def step(self) -> None:
        """Apply one update and clear gradients."""
        for p, v in zip(self._params, self._velocity):
            if self.momentum:
                v *= self.momentum
                v -= self.lr * p.grad
                p.value += v
            else:
                p.value -= self.lr * p.grad
            p.zero_grad()


class Adam:
    """Adam (Kingma & Ba) with bias correction.

    The moments of every parameter live in one flat buffer, so a step is
    one elementwise update over the concatenated gradients instead of
    one per parameter. Every op is elementwise, so the result is
    bit-identical to updating each parameter on its own.
    """

    def __init__(
        self,
        params: list[Param],
        lr: float = 1e-2,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self._params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        bounds = np.cumsum([0] + [p.value.size for p in params])
        self._slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self._m = np.zeros(int(bounds[-1]))
        self._v = np.zeros(int(bounds[-1]))
        self._t = 0

    def step(self) -> None:
        """Apply one update and clear gradients."""
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        grads = [p.grad.ravel() for p in self._params]
        grad = np.concatenate(grads) if grads else self._m
        m, v = self._m, self._v
        m *= b1
        m += (1 - b1) * grad
        v *= b2
        v += (1 - b2) * grad**2
        m_hat = m / (1 - b1**self._t)
        v_hat = v / (1 - b2**self._t)
        update = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        for p, sl in zip(self._params, self._slices):
            p.value -= update[sl].reshape(p.value.shape)
            p.zero_grad()
