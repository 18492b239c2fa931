"""Tests for coefficient norms and box range bounds."""

import numpy as np
import pytest

from repro.poly import Polynomial, abs_bound_on_box, l1_norm, linf_norm
from repro.poly.bounds import interval_eval
from repro.soundness import strategies as st

SEED = st.resolve_seed(0)


def test_norms():
    p = Polynomial(2, {(1, 0): 3.0, (0, 1): -4.0})
    assert l1_norm(p) == 7.0
    assert linf_norm(p) == 4.0
    assert l1_norm(Polynomial.zero(2)) == 0.0
    assert linf_norm(Polynomial.zero(2)) == 0.0


def test_abs_bound_simple():
    # |2x^2 - y| <= 2*4 + 2 = 10 on [-2,2]^2
    p = Polynomial(2, {(2, 0): 2.0, (0, 1): -1.0})
    assert abs_bound_on_box(p, [-2, -2], [2, 2]) == pytest.approx(10.0)


def test_abs_bound_shape_error():
    with pytest.raises(ValueError):
        abs_bound_on_box(Polynomial.one(2), [0], [1])
    with pytest.raises(ValueError):
        abs_bound_on_box(Polynomial.one(2), [1, 1], [0, 0])


def test_interval_eval_even_power_through_zero():
    # x^2 on [-1, 2] has range [0, 4]
    p = Polynomial(1, {(2,): 1.0})
    lo, hi = interval_eval(p, [-1], [2])
    assert lo == pytest.approx(0.0)
    assert hi == pytest.approx(4.0)


def test_interval_eval_negative_coeff():
    p = Polynomial(1, {(1,): -1.0})
    lo, hi = interval_eval(p, [-1], [2])
    assert (lo, hi) == (-2.0, 1.0)


def test_bounds_are_sound_on_samples():
    lo_box, hi_box = np.array([-1.5, -0.5]), np.array([0.5, 2.0])
    pts = np.random.default_rng(42).uniform(lo_box, hi_box, size=(200, 2))

    def prop(p):
        vals = p(pts)
        bound = abs_bound_on_box(p, lo_box, hi_box)
        assert np.all(np.abs(vals) <= bound + 1e-9)
        ilo, ihi = interval_eval(p, lo_box, hi_box)
        assert np.all(vals >= ilo - 1e-9)
        assert np.all(vals <= ihi + 1e-9)

    st.run_property(
        "poly-bounds-sound",
        st.polynomials(2, max_degree=3, max_terms=5, coeff_lo=-3.0,
                       coeff_hi=3.0),
        prop,
        n_examples=st.fuzz_examples(60),
        seed=SEED,
    )
