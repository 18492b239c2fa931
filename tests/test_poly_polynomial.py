"""Tests for the sparse polynomial class."""

import numpy as np
import pytest

from repro.poly import Polynomial, monomials_upto
from repro.soundness import strategies as st

SEED = st.resolve_seed(0)


def poly_xy():
    """p(x, y) = 2 x^2 + 3 x y - y + 5."""
    return Polynomial(
        2, {(2, 0): 2.0, (1, 1): 3.0, (0, 1): -1.0, (0, 0): 5.0}
    )


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def test_constant_and_zero():
    z = Polynomial.zero(3)
    assert z.is_zero and z.degree == 0
    c = Polynomial.constant(3, 4.5)
    assert c((1.0, 2.0, 3.0)) == 4.5


def test_variable():
    x2 = Polynomial.variable(3, 1)
    assert x2((7.0, 8.0, 9.0)) == 8.0
    with pytest.raises(ValueError):
        Polynomial.variable(3, 3)


def test_zero_coefficients_dropped():
    p = Polynomial(2, {(1, 0): 0.0, (0, 1): 1.0})
    assert (1, 0) not in p.coeffs


def test_exponent_length_checked():
    with pytest.raises(ValueError):
        Polynomial(2, {(1, 0, 0): 1.0})


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 0): 1.0})


def test_from_coeff_vector_roundtrip():
    p = poly_xy()
    vec = p.coeff_vector(2)
    q = Polynomial.from_coeff_vector(2, 2, vec)
    assert p == q


def test_coeff_vector_too_small_degree():
    with pytest.raises(ValueError):
        poly_xy().coeff_vector(1)


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
def test_add_sub_scalar():
    p = poly_xy()
    assert (p + 1.0)((0.0, 0.0)) == 6.0
    assert (1.0 + p)((0.0, 0.0)) == 6.0
    assert (p - 2.0)((0.0, 0.0)) == 3.0
    assert (2.0 - p)((0.0, 0.0)) == -3.0


def test_mul_matches_pointwise():
    rng = np.random.default_rng(0)
    p = poly_xy()
    q = Polynomial(2, {(1, 0): 1.0, (0, 2): -2.0})
    pts = rng.uniform(-2, 2, size=(50, 2))
    np.testing.assert_allclose((p * q)(pts), p(pts) * q(pts), rtol=1e-12)


def test_pow():
    x = Polynomial.variable(1, 0)
    p = (x + 1.0) ** 3
    np.testing.assert_allclose(p(np.array([[2.0]])), [27.0])
    assert (x ** 0) == Polynomial.one(1)
    with pytest.raises(ValueError):
        x ** -1


def test_division_by_scalar():
    p = poly_xy() / 2.0
    assert p.coeff((2, 0)) == 1.0


def test_incompatible_nvars():
    with pytest.raises(ValueError):
        poly_xy() + Polynomial.one(3)


# ----------------------------------------------------------------------
# calculus & substitution
# ----------------------------------------------------------------------
def test_diff():
    p = poly_xy()
    dp_dx = p.diff(0)  # 4x + 3y
    assert dp_dx == Polynomial(2, {(1, 0): 4.0, (0, 1): 3.0})
    dp_dy = p.diff(1)  # 3x - 1
    assert dp_dy == Polynomial(2, {(1, 0): 3.0, (0, 0): -1.0})


def test_grad_length():
    assert len(poly_xy().grad()) == 2


def test_substitute_affine():
    # p(x, y) with x := t, y := 2t gives 2t^2 + 6t^2 - 2t + 5
    p = poly_xy()
    t = Polynomial.variable(1, 0)
    q = p.substitute([t, 2.0 * t])
    expected = Polynomial(1, {(2,): 8.0, (1,): -2.0, (0,): 5.0})
    assert q.is_close(expected)


def test_substitute_wrong_count():
    with pytest.raises(ValueError):
        poly_xy().substitute([Polynomial.variable(1, 0)])


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
def test_eval_single_and_batch():
    p = poly_xy()
    val = p((1.0, 2.0))  # 2 + 6 - 2 + 5 = 11
    assert val == pytest.approx(11.0)
    batch = p(np.array([[1.0, 2.0], [0.0, 0.0]]))
    np.testing.assert_allclose(batch, [11.0, 5.0])


def test_eval_shape_error():
    with pytest.raises(ValueError):
        poly_xy()(np.zeros((3, 3)))


def test_eval_zero_poly():
    z = Polynomial.zero(2)
    np.testing.assert_allclose(z(np.zeros((4, 2))), np.zeros(4))


# ----------------------------------------------------------------------
# misc
# ----------------------------------------------------------------------
def test_truncate():
    p = Polynomial(1, {(0,): 1e-12, (1,): 1.0})
    assert p.truncate(1e-9) == Polynomial.variable(1, 0)


def test_scale_variables():
    p = Polynomial(2, {(2, 1): 1.0})
    q = p.scale_variables([2.0, 3.0])
    assert q.coeff((2, 1)) == pytest.approx(12.0)


def test_str_repr_smoke():
    assert "x1" in str(poly_xy())
    assert "Polynomial" in repr(poly_xy())
    assert str(Polynomial.zero(2)) == "0"


def test_hash_consistent_with_eq():
    assert hash(poly_xy()) == hash(poly_xy())


# ----------------------------------------------------------------------
# property-based: ring axioms and eval homomorphism
# ----------------------------------------------------------------------
def small_polys(n_vars=2, max_deg=3):
    return st.polynomials(n_vars, max_degree=max_deg, max_terms=6,
                          coeff_lo=-5.0, coeff_hi=5.0)


def test_ring_axioms():
    def prop(polys):
        p, q, r = polys
        assert (p + q).is_close(q + p, tol=1e-8)
        assert ((p + q) + r).is_close(p + (q + r), tol=1e-8)
        assert (p * q).is_close(q * p, tol=1e-6)
        assert (p * (q + r)).is_close(p * q + p * r, tol=1e-6)

    st.run_property(
        "poly-ring-axioms",
        st.tuples(small_polys(), small_polys(), small_polys()),
        prop,
        n_examples=st.fuzz_examples(50),
        seed=SEED,
    )


def test_eval_is_ring_homomorphism():
    pts = np.array([[0.3, -0.7], [1.1, 0.9], [-1.5, 0.2]])

    def prop(polys):
        p, q = polys
        np.testing.assert_allclose((p + q)(pts), p(pts) + q(pts), atol=1e-8)
        np.testing.assert_allclose((p * q)(pts), p(pts) * q(pts), atol=1e-6)

    st.run_property(
        "poly-eval-homomorphism",
        st.tuples(small_polys(), small_polys()),
        prop,
        n_examples=st.fuzz_examples(50),
        seed=SEED,
    )


def test_derivative_linearity_and_leibniz():
    q = Polynomial(2, {(1, 0): 1.0, (0, 2): 0.5})

    def prop(p):
        lhs = (p * q).diff(0)
        rhs = p.diff(0) * q + p * q.diff(0)
        assert lhs.is_close(rhs, tol=1e-6)

    st.run_property(
        "poly-leibniz",
        small_polys(),
        prop,
        n_examples=st.fuzz_examples(30),
        seed=SEED,
    )
