"""Tests for the quadratic (cross-product) and square networks."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn import Adam, QuadraticNetwork, SquareNetwork
from repro.poly import Polynomial, lie_derivative
from repro.poly.fast_eval import monomial_features
from repro.soundness.oracles import numeric_gradient
from tests.learner_oracles import forward_with_tangent


@pytest.mark.parametrize("cls", [QuadraticNetwork, SquareNetwork])
def test_network_output_matches_polynomial(cls):
    rng = np.random.default_rng(0)
    net = cls([2, 4], rng=rng)
    p = net.to_polynomial()
    pts = rng.uniform(-1.5, 1.5, size=(30, 2))
    np.testing.assert_allclose(net.predict(pts).reshape(-1), p(pts), atol=1e-9)


@pytest.mark.parametrize("cls", [QuadraticNetwork, SquareNetwork])
def test_two_layer_degree_four(cls):
    rng = np.random.default_rng(1)
    net = cls([2, 3, 3], rng=rng)
    assert net.output_degree == 4
    p = net.to_polynomial()
    assert p.degree <= 4
    pts = rng.uniform(-1, 1, size=(10, 2))
    np.testing.assert_allclose(net.predict(pts).reshape(-1), p(pts), atol=1e-8)


def test_quadratic_degree_two_exact():
    net = QuadraticNetwork([3, 5], rng=np.random.default_rng(2))
    assert net.output_degree == 2
    assert net.to_polynomial().degree <= 2


@pytest.mark.parametrize("cls", [QuadraticNetwork, SquareNetwork])
def test_tangent_forward_matches_lie_derivative(cls):
    rng = np.random.default_rng(3)
    net = cls([2, 4], rng=rng)
    p = net.to_polynomial()
    x, y = Polynomial.variables(2)
    field = [y, -1.0 * x + 0.3 * x * x]
    lfb = lie_derivative(p, field)
    pts = rng.uniform(-1, 1, size=(20, 2))
    f_vals = np.stack([field[0](pts), field[1](pts)], axis=1)
    B_t, L_t = forward_with_tangent(net, Tensor(pts), Tensor(f_vals))
    np.testing.assert_allclose(B_t.numpy(), p(pts), atol=1e-9)
    np.testing.assert_allclose(L_t.numpy(), lfb(pts), atol=1e-8)


def test_gradient_matches_symbolic():
    rng = np.random.default_rng(4)
    net = QuadraticNetwork([3, 4], rng=rng)
    p = net.to_polynomial()
    grads = p.grad()
    pts = rng.uniform(-1, 1, size=(15, 3))
    G = net.gradient(pts)
    expected = np.stack([g(pts) for g in grads], axis=1)
    np.testing.assert_allclose(G, expected, atol=1e-8)


def test_gradient_two_hidden_layers():
    rng = np.random.default_rng(5)
    net = QuadraticNetwork([2, 3, 2], rng=rng)
    p = net.to_polynomial()
    pts = rng.uniform(-1, 1, size=(8, 2))
    expected = np.stack([g(pts) for g in p.grad()], axis=1)
    np.testing.assert_allclose(net.gradient(pts), expected, atol=1e-7)


def test_tangent_is_trainable():
    """Backprop through the tangent oracle reaches all parameters."""
    rng = np.random.default_rng(6)
    net = QuadraticNetwork([2, 3], rng=rng)
    pts = rng.uniform(-1, 1, size=(16, 2))
    f_vals = rng.normal(size=(16, 2))
    _, L_t = forward_with_tangent(net, Tensor(pts), Tensor(f_vals))
    (L_t * L_t).mean().backward()
    touched = [p for p in net.parameters() if p.grad is not None]
    # b1/b2 influence the tangent through the products, W1/W2/W_out always
    assert len(touched) >= 5


def test_quadratic_fits_indefinite_quadratic_better_than_square():
    """Cross-product nets can represent sign-indefinite forms; square
    networks of one layer are sums of squares of affine functions and
    cannot fit x*y well (paper's motivation)."""
    rng = np.random.default_rng(7)
    X = rng.uniform(-1, 1, size=(400, 2))
    y = X[:, 0] * X[:, 1]  # indefinite

    def fit(net, steps=400):
        opt = Adam(net.parameters(), lr=0.02)
        for _ in range(steps):
            opt.zero_grad()
            err = net(Tensor(X)) - Tensor(y)
            loss = (err * err).mean()
            loss.backward()
            opt.step()
        return float(((net.predict(X).reshape(-1) - y) ** 2).mean())

    mse_quad = fit(QuadraticNetwork([2, 4], output_bias=False, rng=np.random.default_rng(8)))
    assert mse_quad < 1e-3


def test_no_output_bias_means_no_constant_freedom():
    net = QuadraticNetwork([2, 3], output_bias=False, rng=np.random.default_rng(9))
    assert net.b_out is None
    # still evaluates and expands
    p = net.to_polynomial()
    assert isinstance(p, Polynomial)


def test_validation_errors():
    with pytest.raises(ValueError):
        QuadraticNetwork([2])
    with pytest.raises(ValueError):
        SquareNetwork([3])


def test_repr():
    net = QuadraticNetwork([3, 5], rng=np.random.default_rng(10))
    assert "3-5-1" in repr(net)
    sq = SquareNetwork([3, 5], rng=np.random.default_rng(11))
    assert "3-5-1" in repr(sq)


@pytest.mark.parametrize(
    "cls,sizes,bias",
    [
        (QuadraticNetwork, [2, 3], True),
        (QuadraticNetwork, [2, 2, 2], False),
        (SquareNetwork, [3, 2], True),
        (SquareNetwork, [2, 2, 2], True),
    ],
)
def test_coefficient_map_vjp_matches_central_differences(cls, sizes, bias):
    """``vjp(g)`` is the gradient of ``g . c(theta)`` for every weight."""
    rng = np.random.default_rng(12)
    net = cls(sizes, output_bias=bias, rng=rng)
    c, vjp = net.coefficient_map()
    g = rng.normal(size=c.shape)
    vjp(g)
    for p in net.parameters():
        def objective(value, p=p):
            old, p.data = p.data, value
            try:
                return float(g @ net.coefficient_map()[0])
            finally:
                p.data = old

        num = numeric_gradient(objective, p.data.copy())
        np.testing.assert_allclose(p.grad, num, rtol=1e-6, atol=1e-7)


@pytest.mark.parametrize("cls", [QuadraticNetwork, SquareNetwork])
def test_coefficients_reproduce_network_output(cls):
    rng = np.random.default_rng(13)
    net = cls([3, 4, 2], rng=rng)
    c, _ = net.coefficient_map()
    pts = rng.uniform(-1, 1, size=(25, 3))
    np.testing.assert_allclose(
        monomial_features(pts, net.output_degree) @ c,
        net.predict(pts),
        rtol=1e-12,
        atol=1e-12,
    )
