"""numpy NN library: gradient checks, losses, optimizers, training."""

import numpy as np
import pytest

from repro.ml import (
    Adam,
    Dropout,
    Linear,
    ReLU,
    Sequential,
    Sgd,
    Sigmoid,
    Tanh,
    bce_with_logits,
    gradient_check,
    mse_loss,
)
from repro.ml.layers import Param
from repro.ml.network import fit
from oracles import PerParamAdam

_SUM_SQ = lambda out: (float((out**2).sum()), 2 * out)


@pytest.mark.parametrize(
    "layer_factory",
    [
        lambda: Linear(4, 3, seed_or_rng=1, name="lin"),
        lambda: ReLU(),
        lambda: Tanh(),
        lambda: Sigmoid(),
        lambda: Sequential(
            [Linear(4, 5, seed_or_rng=2, name="a"), Tanh(), Linear(5, 2, seed_or_rng=3, name="b")]
        ),
    ],
    ids=["linear", "relu", "tanh", "sigmoid", "sequential"],
)
def test_gradient_checks(layer_factory):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 4)) + 0.05  # offset avoids ReLU kinks at 0
    layer = layer_factory()
    errors = gradient_check(layer, x, _SUM_SQ)
    for name, err in errors.items():
        assert err < 1e-5, f"{name}: relative error {err}"


def test_dropout_train_vs_eval():
    layer = Dropout(0.5, seed_or_rng=1)
    x = np.ones((4, 10))
    assert np.array_equal(layer.forward(x, train=False), x)
    out = layer.forward(x, train=True)
    assert set(np.unique(out)).issubset({0.0, 2.0})
    grad = layer.backward(np.ones_like(x))
    assert np.array_equal(grad, out)  # same mask applied
    with pytest.raises(ValueError):
        Dropout(1.0)


def test_linear_shapes_and_params():
    layer = Linear(3, 7, seed_or_rng=0, name="l")
    out = layer.forward(np.zeros((2, 3)))
    assert out.shape == (2, 7)
    params = layer.params()
    assert [p.value.shape for p in params] == [(3, 7), (7,)]
    assert params[0].name == "l.W"


def test_bce_with_logits_matches_manual():
    logits = np.array([0.0, 2.0, -2.0])
    targets = np.array([1.0, 1.0, 0.0])
    loss, grad = bce_with_logits(logits, targets)
    sig = 1 / (1 + np.exp(-logits))
    manual = -(targets * np.log(sig) + (1 - targets) * np.log(1 - sig)).mean()
    assert loss == pytest.approx(manual, rel=1e-9)
    assert grad == pytest.approx((sig - targets) / 3, rel=1e-9)


def test_bce_extreme_logits_stable():
    loss, grad = bce_with_logits(np.array([1000.0, -1000.0]), np.array([1.0, 0.0]))
    assert np.isfinite(loss) and np.all(np.isfinite(grad))
    assert loss < 1e-6


def test_loss_shape_validation():
    with pytest.raises(ValueError):
        bce_with_logits(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        mse_loss(np.zeros((2, 1)), np.zeros(2))


def test_mse_loss():
    loss, grad = mse_loss(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    assert loss == pytest.approx(2.5)
    assert grad == pytest.approx(np.array([1.0, 2.0]))


@pytest.mark.parametrize("optimizer_cls", [Sgd, Adam], ids=["sgd", "adam"])
def test_optimizers_minimise_quadratic(optimizer_cls):
    layer = Linear(1, 1, seed_or_rng=0)
    opt = optimizer_cls(layer.params(), lr=0.05)
    x = np.array([[1.0]])
    losses = []
    for _ in range(200):
        out = layer.forward(x)
        loss, grad = mse_loss(out, np.array([[3.0]]))
        layer.backward(grad)
        opt.step()
        losses.append(loss)
    assert losses[-1] < 1e-3 < losses[0]


def test_optimizer_validation():
    layer = Linear(1, 1, seed_or_rng=0)
    with pytest.raises(ValueError):
        Sgd(layer.params(), lr=0.0)
    with pytest.raises(ValueError):
        Adam(layer.params(), lr=-1)


@pytest.mark.parametrize(
    "shapes",
    [[(5,), (4, 3), (1,)], []],
    ids=["vector-matrix-bias", "no-params"],
)
def test_flat_adam_is_bitwise_per_param_adam(shapes):
    """One elementwise update over the concatenated grads equals updating
    each parameter on its own, bit for bit."""
    rng = np.random.default_rng(0)
    values = [rng.normal(size=shape) for shape in shapes]
    flat = [Param(v.copy()) for v in values]
    ref = [Param(v.copy()) for v in values]
    flat_opt = Adam(flat, lr=5e-3)
    ref_opt = PerParamAdam(ref, lr=5e-3)
    for _ in range(20):
        for p, q in zip(flat, ref):
            p.grad += (g := rng.normal(size=p.value.shape))
            q.grad += g
        flat_opt.step()
        ref_opt.step()
        for p, q in zip(flat, ref):
            assert np.array_equal(p.value, q.value)
            assert not p.grad.any()


def test_sgd_momentum_converges():
    layer = Linear(1, 1, seed_or_rng=1)
    opt = Sgd(layer.params(), lr=0.02, momentum=0.9)
    x = np.array([[1.0]])
    for _ in range(200):
        loss, grad = mse_loss(layer.forward(x), np.array([[2.0]]))
        layer.backward(grad)
        opt.step()
    assert loss < 1e-3


def test_fit_learns_xor():
    x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    y = np.array([[0], [1], [1], [0]], dtype=float)
    model = Sequential(
        [Linear(2, 8, seed_or_rng=3), Tanh(), Linear(8, 1, seed_or_rng=4)]
    )
    history = fit(
        model, x, y, bce_with_logits, Adam(model.params(), lr=0.05),
        epochs=300, batch_size=4, seed_or_rng=5,
    )
    assert history[-1] < 0.05
    pred = (model.forward(x) > 0).astype(int)
    assert np.array_equal(pred, y.astype(int))


def test_gradients_accumulate_until_step():
    layer = Linear(2, 2, seed_or_rng=0)
    x = np.ones((1, 2))
    layer.forward(x)
    layer.backward(np.ones((1, 2)))
    first = layer.weight.grad.copy()
    layer.forward(x)
    layer.backward(np.ones((1, 2)))
    assert np.allclose(layer.weight.grad, 2 * first)
