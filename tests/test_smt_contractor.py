"""Tests for the HC4-style polynomial constraint contractor."""

import numpy as np
import pytest

from repro.poly import Polynomial
from repro.smt import BranchAndPrune, CheckStatus, poly_enclosure
from repro.smt.contractor import contract_box, contract_nonnegative
from repro.soundness import strategies as st

SEED = st.resolve_seed(0)


def test_contracts_linear_constraint():
    # x - 0.5 >= 0 on [-1, 1] -> x in [0.5, 1]
    x = Polynomial.variable(1, 0)
    out = contract_nonnegative(x - 0.5, [-1.0], [1.0])
    assert out is not None
    lo, hi = out
    assert lo[0] == pytest.approx(0.5, abs=1e-9)
    assert hi[0] == pytest.approx(1.0)


def test_detects_empty_box():
    # x - 2 >= 0 impossible on [-1, 1]
    x = Polynomial.variable(1, 0)
    assert contract_nonnegative(x - 2.0, [-1.0], [1.0]) is None


def test_contracts_even_power():
    # 0.25 - x^2 >= 0 -> |x| <= 0.5
    x = Polynomial.variable(1, 0)
    out = contract_nonnegative(0.25 - x * x, [-1.0], [1.0])
    assert out is not None
    lo, hi = out
    assert lo[0] == pytest.approx(-0.5, abs=1e-9)
    assert hi[0] == pytest.approx(0.5, abs=1e-9)


def test_contracts_ball_constraint_multivariate():
    # 1 - x^2 - y^2 >= 0 on [-2,2]^2 -> [-1,1]^2
    x, y = Polynomial.variables(2)
    g = 1.0 - x * x - y * y
    out = contract_nonnegative(g, [-2.0, -2.0], [2.0, 2.0])
    assert out is not None
    lo, hi = out
    np.testing.assert_allclose(lo, [-1.0, -1.0], atol=1e-9)
    np.testing.assert_allclose(hi, [1.0, 1.0], atol=1e-9)


def test_inactive_constraint_unchanged():
    x = Polynomial.variable(1, 0)
    out = contract_nonnegative(x + 10.0, [-1.0], [1.0])
    lo, hi = out
    assert (lo[0], hi[0]) == (-1.0, 1.0)


def test_zero_polynomial():
    out = contract_nonnegative(Polynomial.zero(2), [-1, -1], [1, 1])
    assert out is not None


def test_contract_box_intersects_constraints():
    # x >= 0.2 and y - x >= 0 on [-1,1]^2
    x, y = Polynomial.variables(2)
    out = contract_box([x - 0.2, y - x], [-1, -1], [1, 1])
    assert out is not None
    lo, hi = out
    assert lo[0] == pytest.approx(0.2, abs=1e-9)
    assert lo[1] >= 0.2 - 1e-9  # propagated through y >= x


def test_contract_box_empty():
    x, y = Polynomial.variables(2)
    assert contract_box([x - 0.5, -1.0 * x - 0.5], [-1, -1], [1, 1]) is None


def test_contraction_never_removes_solutions():
    """Property: points satisfying the constraint survive contraction."""
    x, y = Polynomial.variables(2)
    lo, hi = np.array([-3.0, -3.0]), np.array([3.0, 3.0])
    pts = np.random.default_rng(0).uniform(lo, hi, size=(400, 2))

    def prop(args):
        center, radius = args
        g = radius ** 2 - (x - center[0]) ** 2 - (y - center[1]) ** 2
        sat = pts[g(pts) >= 0]
        out = contract_nonnegative(g, lo, hi)
        if len(sat) == 0:
            return  # nothing to check (the contractor may empty the box)
        assert out is not None
        clo, chi = out
        assert np.all(sat >= clo - 1e-9)
        assert np.all(sat <= chi + 1e-9)

    st.run_property(
        "contraction-keeps-solutions",
        st.tuples(st.lists(st.floats(-2, 2), 2, 2), st.floats(0.2, 1.5)),
        prop,
        n_examples=st.fuzz_examples(50),
        seed=SEED,
    )


def test_subnormal_coefficient_division_is_sound():
    """Regression: a subnormal center coordinate gives the linear term a
    subnormal coefficient; dividing by it overflows the quotient to inf,
    which must be treated as uninformative, not as a tighter bound."""
    x, y = Polynomial.variables(2)
    center = [0.0, 5e-324]
    radius = 0.625
    g = radius ** 2 - (x - center[0]) ** 2 - (y - center[1]) ** 2
    lo, hi = np.array([-3.0, -3.0]), np.array([3.0, 3.0])
    rng = np.random.default_rng(0)
    pts = rng.uniform(lo, hi, size=(400, 2))
    sat = pts[g(pts) >= 0]
    out = contract_nonnegative(g, lo, hi)
    assert out is not None
    clo, chi = out
    assert np.all(sat >= clo - 1e-9)
    assert np.all(sat <= chi + 1e-9)


def test_contractor_hook_in_branch_and_prune():
    """With a region contractor, B&P proves the same query processing no
    more boxes."""
    x, y = Polynomial.variables(2)
    region_g = 0.25 - (x - 0.5) ** 2 - (y - 0.5) ** 2  # small disc
    target = x + y - 0.1  # >= 0 holds on the disc (x+y >= 1 - sqrt(0.5) > 0.1)

    def run(contractor):
        engine = BranchAndPrune(
            delta=0.01, max_boxes=100_000, rng=np.random.default_rng(0),
            contractor=contractor,
        )
        return engine.check_forall(
            lambda a, b: poly_enclosure(target, a, b),
            lambda pts: target(pts),
            np.array([-2.0, -2.0]),
            np.array([2.0, 2.0]),
            region_enclosures=[lambda a, b: poly_enclosure(region_g, a, b)],
            region_point=lambda pts: region_g(pts) >= 0,
        )

    plain = run(None)
    contracted = run(lambda lo, hi: contract_box([region_g], lo, hi))
    assert plain.status == contracted.status == CheckStatus.PROVED
    assert contracted.boxes_processed <= plain.boxes_processed
