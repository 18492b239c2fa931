"""Tests for the mean-value form enclosure."""

import numpy as np
import pytest

from repro.poly import Polynomial
from repro.smt import BranchAndPrune, CheckStatus, MeanValueEnclosure, poly_enclosure
from repro.soundness import strategies as st

SEED = st.resolve_seed(0)


def test_meanvalue_sound_on_samples():
    rng = np.random.default_rng(0)
    p = Polynomial(2, {(2, 0): 1.0, (1, 1): -2.0, (0, 3): 0.5, (0, 0): 0.1})
    enc = MeanValueEnclosure(p)
    for _ in range(20):
        lo = rng.uniform(-1, 0.5, size=2)
        hi = lo + rng.uniform(0.05, 1.0, size=2)
        box = enc(lo, hi)
        pts = rng.uniform(lo, hi, size=(300, 2))
        vals = p(pts)
        assert np.all(vals >= box.lo - 1e-9)
        assert np.all(vals <= box.hi + 1e-9)


def test_meanvalue_never_wider_than_natural():
    rng = np.random.default_rng(1)
    p = Polynomial(2, {(2, 0): 1.0, (1, 1): -1.0, (0, 2): 1.0})
    enc = MeanValueEnclosure(p)
    for _ in range(20):
        lo = rng.uniform(-1, 0, size=2)
        hi = lo + rng.uniform(0.01, 0.8, size=2)
        mv = enc(lo, hi)
        nat = poly_enclosure(p, lo, hi)
        assert mv.lo >= nat.lo - 1e-12
        assert mv.hi <= nat.hi + 1e-12


def test_meanvalue_tighter_on_small_boxes():
    # x^2 - x*y + y^2 around (0.5, 0.5): natural extension is loose
    p = Polynomial(2, {(2, 0): 1.0, (1, 1): -1.0, (0, 2): 1.0})
    enc = MeanValueEnclosure(p)
    lo, hi = np.array([0.45, 0.45]), np.array([0.55, 0.55])
    mv = enc(lo, hi)
    nat = poly_enclosure(p, lo, hi)
    assert mv.width < nat.width


def test_meanvalue_degenerate_box():
    p = Polynomial(1, {(2,): 1.0})
    enc = MeanValueEnclosure(p)
    point = enc(np.array([0.7]), np.array([0.7]))
    assert point.lo == pytest.approx(0.49)
    assert point.hi == pytest.approx(0.49)


def test_meanvalue_speeds_up_branch_and_prune():
    """The same tight query needs no MORE boxes with the mean-value form."""
    coeffs = {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (1, 1, 0): -0.9,
              (0, 0, 0): 1e-3}
    p = Polynomial(3, coeffs)
    lo, hi = -np.ones(3), np.ones(3)

    def run(enclosure):
        engine = BranchAndPrune(delta=0.02, max_boxes=300_000,
                                rng=np.random.default_rng(0))
        return engine.check_forall(enclosure, lambda pts: p(pts), lo, hi)

    natural = run(lambda a, b: poly_enclosure(p, a, b))
    meanval = run(MeanValueEnclosure(p))
    assert natural.status == meanval.status == CheckStatus.PROVED
    assert meanval.boxes_processed <= natural.boxes_processed


def test_meanvalue_soundness_property():
    lo, hi = np.array([-0.8, 0.1]), np.array([0.3, 0.9])
    pts = np.random.default_rng(7).uniform(lo, hi, size=(200, 2))

    def prop(p):
        box = MeanValueEnclosure(p)(lo, hi)
        vals = p(pts)
        assert np.all(vals >= box.lo - 1e-8)
        assert np.all(vals <= box.hi + 1e-8)

    st.run_property(
        "meanvalue-sound",
        st.polynomials(2, max_degree=3, max_terms=5, coeff_lo=-3.0,
                       coeff_hi=3.0),
        prop,
        n_examples=st.fuzz_examples(40),
        seed=SEED,
    )
