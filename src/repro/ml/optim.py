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

    The optimizer owns every parameter's value and gradient: it copies
    them into two flat buffers and rebinds each ``Param.value`` and
    ``Param.grad`` to a reshaped view of its slice, so layers read and
    accumulate in place. The moments live in flat buffers too, and a
    step is one elementwise update over the whole buffer — no
    concatenation, per-parameter subtract or per-parameter
    ``zero_grad``. Every op is elementwise, in the order of the
    per-parameter formula, so the result is bit-identical to updating
    each parameter on its own. A parameter belongs to the last
    optimizer constructed over it.
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
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        total = sum(p.value.size for p in params)
        self._value = np.empty(total)
        self._grad = np.empty(total)
        start = 0
        for p in params:
            stop = start + p.value.size
            value = self._value[start:stop].reshape(p.value.shape)
            grad = self._grad[start:stop].reshape(p.value.shape)
            value[...] = p.value
            grad[...] = p.grad
            p.value, p.grad = value, grad
            start = stop
        self._m = np.zeros(total)
        self._v = np.zeros(total)
        self._tmp = np.empty(total)
        self._update = np.empty(total)
        self._t = 0

    def step(self) -> None:
        """Apply one update and clear gradients."""
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        grad, m, v = self._grad, self._m, self._v
        tmp, update = self._tmp, self._update
        m *= b1
        np.multiply(1 - b1, grad, out=tmp)
        m += tmp
        v *= b2
        np.square(grad, out=tmp)
        np.multiply(1 - b2, tmp, out=tmp)
        v += tmp
        # update = lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(m, 1 - b1**self._t, out=update)
        np.multiply(self.lr, update, out=update)
        np.divide(v, 1 - b2**self._t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        update /= tmp
        self._value -= update
        grad.fill(0.0)
