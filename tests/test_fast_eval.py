"""Tests for compiled polynomial evaluation."""

import time

import numpy as np
import pytest

from repro.poly import Polynomial, lie_derivative
from repro.poly.fast_eval import (
    CompiledPolynomial,
    compile_field,
    directional_features,
    monomial_features,
)
from repro.poly.monomials import monomials_upto
from repro.soundness import strategies as st

SEED = st.resolve_seed(0)


def test_matches_direct_evaluation():
    rng = np.random.default_rng(0)
    p = Polynomial(3, {(2, 0, 1): 1.5, (0, 1, 0): -2.0, (0, 0, 0): 0.25})
    cp = CompiledPolynomial(p)
    pts = rng.uniform(-2, 2, size=(100, 3))
    np.testing.assert_allclose(cp(pts), p(pts), atol=1e-12)


def test_single_point_and_scalar_return():
    p = Polynomial(2, {(1, 0): 2.0})
    cp = CompiledPolynomial(p)
    assert cp(np.array([3.0, 0.0])) == pytest.approx(6.0)


def test_field_compilation():
    rng = np.random.default_rng(1)
    x, y = Polynomial.variables(2)
    field = [y, -1.0 * x + 0.3 * x ** 3]
    cf = compile_field(field)
    pts = rng.uniform(-1, 1, size=(50, 2))
    expected = np.stack([f(pts) for f in field], axis=1)
    np.testing.assert_allclose(cf(pts), expected, atol=1e-12)
    single = cf(pts[0])
    np.testing.assert_allclose(single, expected[0], atol=1e-12)


def test_zero_polynomial():
    cp = CompiledPolynomial(Polynomial.zero(2))
    np.testing.assert_allclose(cp(np.zeros((5, 2))), np.zeros(5))


def test_validation():
    with pytest.raises(ValueError):
        CompiledPolynomial([])
    with pytest.raises(ValueError):
        CompiledPolynomial([Polynomial.one(2), Polynomial.one(3)])
    cp = CompiledPolynomial(Polynomial.one(2))
    with pytest.raises(ValueError):
        cp(np.zeros((3, 4)))


def test_faster_on_vector_fields():
    """The point of compiling: a k-component field shares the monomial
    work, beating k independent sparse evaluations."""
    rng = np.random.default_rng(2)
    basis = monomials_upto(6, 3)
    field = [
        Polynomial(6, {a: float(rng.normal()) for a in basis}) for _ in range(6)
    ]
    cf = compile_field(field)
    pts = rng.uniform(-1, 1, size=(5000, 6))
    cf(pts)  # warm up
    t0 = time.perf_counter()
    for _ in range(5):
        cf(pts)
    fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(5):
        np.stack([f(pts) for f in field], axis=1)
    slow = time.perf_counter() - t0
    assert fast < slow * 1.1  # compiled wins (small slack for timer noise)


def test_agreement_property():
    pts = np.random.default_rng(9).uniform(-1.5, 1.5, size=(60, 2))

    def prop(p):
        np.testing.assert_allclose(CompiledPolynomial(p)(pts), p(pts), atol=1e-9)

    st.run_property(
        "compiled-polynomial-agreement",
        st.polynomials(2, max_degree=4, max_terms=8, coeff_lo=-5.0, coeff_hi=5.0),
        prop,
        n_examples=st.fuzz_examples(40),
        seed=SEED,
    )


def test_features_give_values_and_lie_derivatives():
    """``monomial_features @ c`` evaluates ``[x]_d . c`` and
    ``directional_features @ c`` its derivative along a field."""

    def prop(case):
        n, d, seed = case
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.5, 1.5, size=(20, n))
        c = rng.normal(size=len(monomials_upto(n, d)))
        p = Polynomial.from_coeff_vector(n, d, c)
        xs = Polynomial.variables(n)
        field = [xs[(i + 1) % n] - 0.5 * xs[i] * xs[i] for i in range(n)]
        f_vals = compile_field(field)(pts)
        phi = monomial_features(pts, d)
        np.testing.assert_allclose(phi @ c, p(pts), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            directional_features(phi, d, f_vals) @ c,
            lie_derivative(p, field)(pts),
            rtol=1e-11,
            atol=1e-11,
        )

    st.run_property(
        "monomial-features",
        st.tuples(st.integers(1, 4), st.integers(0, 4), st.integers(0, 10_000)),
        prop,
        n_examples=st.fuzz_examples(20),
        seed=SEED,
    )
