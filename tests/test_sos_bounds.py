"""Tests for SOS optimization and certified polynomial bounds."""

import numpy as np
import pytest

from repro.poly import Polynomial
from repro.sets import Ball, Box
from repro.soundness import strategies as st
from repro.sos import SOSExpr, SOSProgram, sos_lower_bound, sos_range, sos_upper_bound

SEED = st.resolve_seed(0)


# ----------------------------------------------------------------------
# SOSProgram.solve(minimize=...)
# ----------------------------------------------------------------------
def test_minimize_gamma_unconstrained_quadratic():
    # max gamma s.t. (x-1)^2 + 2 - gamma in SOS  ->  gamma = 2
    x = Polynomial.variable(1, 0)
    p = (x - 1.0) ** 2 + 2.0
    prog = SOSProgram(1)
    gamma = prog.free_scalar()
    prog.require_sos(SOSExpr.from_polynomial(p) - gamma)
    sol = prog.solve(minimize=-1.0 * gamma)
    assert sol.feasible
    assert sol.value(gamma).coeff((0,)) == pytest.approx(2.0, abs=1e-4)


def test_minimize_rejects_nonscalar_objective():
    prog = SOSProgram(1)
    f = prog.free_poly(1)
    prog.require_sos(f - f)  # dummy
    with pytest.raises(ValueError, match="degree-0"):
        prog.solve(minimize=f)


def test_minimize_unbounded_free_direction_detected():
    # objective on a free variable no constraint touches
    prog = SOSProgram(1)
    c = prog.free_scalar()
    unused = prog.free_scalar()
    x = Polynomial.variable(1, 0)
    prog.require_sos(SOSExpr.from_polynomial(x * x) + c)
    with pytest.raises(ValueError, match="unbounded"):
        prog.solve(minimize=unused)


def test_minimize_gram_objective():
    # minimize sigma(0) for sigma SOS with sigma - 1 - x^2... use simple:
    # find sigma (deg 0 SOS = nonneg scalar) with x^2 + sigma - 2 in SOS;
    # minimizing sigma's constant gives sigma = 2.
    x = Polynomial.variable(1, 0)
    prog = SOSProgram(1)
    sigma = prog.sos_poly(0)
    prog.require_sos(SOSExpr.from_polynomial(x * x - 2.0) + sigma)
    sol = prog.solve(minimize=sigma)
    assert sol.feasible
    assert sol.value(sigma).coeff((0,)) == pytest.approx(2.0, abs=1e-4)


# ----------------------------------------------------------------------
# certified bounds
# ----------------------------------------------------------------------
def test_lower_bound_on_box():
    # min of (x - 0.3)^2 + 0.5 on [-1, 1] is 0.5
    x = Polynomial.variable(1, 0)
    p = (x - 0.3) ** 2 + 0.5
    box = Box([-1.0], [1.0])
    lb = sos_lower_bound(p, box)
    assert lb == pytest.approx(0.5, abs=1e-3)


def test_lower_bound_attained_at_boundary():
    # min of x on [-1, 1] is -1 (needs the box multiplier)
    x = Polynomial.variable(1, 0)
    box = Box([-1.0], [1.0])
    lb = sos_lower_bound(x, box, multiplier_degree=0)
    assert lb == pytest.approx(-1.0, abs=1e-3)


def test_upper_bound_and_range():
    x, y = Polynomial.variables(2)
    p = x * x + y * y
    ball = Ball([0.0, 0.0], 2.0)
    lo, hi = sos_range(p, ball)
    assert lo == pytest.approx(0.0, abs=1e-3)
    assert hi == pytest.approx(4.0, abs=1e-2)
    assert sos_upper_bound(p, ball) == pytest.approx(hi, abs=1e-6)


def test_bound_tighter_than_interval_arithmetic():
    # (x + y)^2 on [-1,1]^2: interval arithmetic cannot see the correlation
    from repro.poly.bounds import interval_eval

    x, y = Polynomial.variables(2)
    p = x * x - x * y + y * y  # PSD form; the cross term defeats intervals
    box = Box.cube(2, -1.0, 1.0)
    lb_sos = sos_lower_bound(p, box)
    lb_interval, _ = interval_eval(p, box.lo, box.hi)
    assert lb_sos >= lb_interval
    assert lb_sos == pytest.approx(0.0, abs=1e-3)
    assert lb_interval < -0.5  # interval arithmetic is much weaker here


def test_bound_dimension_mismatch():
    with pytest.raises(ValueError):
        sos_lower_bound(Polynomial.one(2), Box([-1.0], [1.0]))


def test_lower_bound_is_sound_property():
    """For random quadratics, the certified bound never exceeds sampled minima."""
    x = Polynomial.variable(1, 0)
    box = Box([-1.5], [1.5])
    xs = np.linspace(-1.5, 1.5, 301)[:, None]

    def prop(args):
        a, b, c = args
        p = c * x * x + b * x + a
        lb = sos_lower_bound(p, box, multiplier_degree=0)
        assert lb <= float(np.min(p(xs))) + 1e-5

    st.run_property(
        "sos-lower-bound-sound",
        st.tuples(st.floats(-2, 2), st.floats(-1, 1), st.floats(0.1, 2)),
        prop,
        n_examples=st.fuzz_examples(15),
        seed=SEED,
    )
