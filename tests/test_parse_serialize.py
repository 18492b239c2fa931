"""Tests for polynomial parsing and certificate serialization."""

import numpy as np
import pytest

from repro.poly import Polynomial
from repro.poly.monomials import monomials_upto
from repro.poly.parse import parse_polynomial
from repro.soundness import strategies as st
from repro.utils import (
    load_certificate,
    polynomial_from_dict,
    polynomial_to_dict,
    save_certificate,
)

SEED = st.resolve_seed(0)


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------
def test_parse_simple():
    p = parse_polynomial("2*x1^2 - 3*x1*x2 + 1")
    assert p.coeff((2, 0)) == 2.0
    assert p.coeff((1, 1)) == -3.0
    assert p.coeff((0, 0)) == 1.0


def test_parse_paper_certificate_eq19():
    """The paper's certificate (19) parses and evaluates."""
    text = (
        "0.159*x1^2 - 2.267*x1*x2 + 1.083*x1*x3 + 2.703*x1 - 0.366*x2^2 "
        "+ 0.126*x2*x3 + 2.825*x2 + 0.375*x3^2 + 5.469*x3 - 10.541"
    )
    B = parse_polynomial(text)
    assert B.n_vars == 3
    assert B.degree == 2
    assert B((0.0, 0.0, 0.0)) == pytest.approx(-10.541)
    # spot value: B(1,1,1)
    expected = (
        0.159 - 2.267 + 1.083 + 2.703 - 0.366 + 0.126 + 2.825 + 0.375 + 5.469 - 10.541
    )
    assert B((1.0, 1.0, 1.0)) == pytest.approx(expected, abs=1e-9)


def test_parse_bare_terms():
    p = parse_polynomial("x1 - x2")
    assert p.coeff((1, 0)) == 1.0
    assert p.coeff((0, 1)) == -1.0
    q = parse_polynomial("-x1^3")
    assert q.coeff((3,)) == -1.0


def test_parse_scientific_notation():
    p = parse_polynomial("1.5e-3*x1 + 2E2")
    assert p.coeff((1,)) == pytest.approx(1.5e-3)
    assert p.coeff((0,)) == pytest.approx(200.0)


def test_parse_double_star_power():
    p = parse_polynomial("x1**2 + 1")
    assert p.coeff((2,)) == 1.0


def test_parse_explicit_nvars():
    p = parse_polynomial("x1 + 1", n_vars=3)
    assert p.n_vars == 3
    with pytest.raises(ValueError):
        parse_polynomial("x3", n_vars=2)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_polynomial("")
    with pytest.raises(ValueError):
        parse_polynomial("x0 + 1")  # indices start at x1
    with pytest.raises(ValueError):
        parse_polynomial("2*?")


def test_parse_str_roundtrip():
    terms = st.tuples(
        st.sampled_from(list(monomials_upto(2, 3))), st.floats(-10, 10)
    )

    def prop(pairs):
        coeffs = {alpha: c for alpha, c in pairs if abs(c) > 1e-6}
        if not coeffs:
            return
        p = Polynomial(2, coeffs)
        q = parse_polynomial(str(p), n_vars=2)
        assert q.is_close(
            p, tol=1e-5 * max(1.0, max(abs(c) for c in coeffs.values()))
        )

    st.run_property(
        "parse-str-roundtrip",
        st.lists(terms, 1, 5),
        prop,
        n_examples=st.fuzz_examples(40),
        seed=SEED,
    )


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
def test_polynomial_dict_roundtrip():
    p = Polynomial(3, {(2, 0, 1): -1.5, (0, 0, 0): 3.25})
    q = polynomial_from_dict(polynomial_to_dict(p))
    assert q == p


def test_polynomial_from_malformed_dict():
    with pytest.raises(ValueError):
        polynomial_from_dict({"n_vars": 2})


def test_certificate_roundtrip(tmp_path):
    from repro.cegis import SNBC, SNBCConfig
    from repro.dynamics import CCDS, ControlAffineSystem
    from repro.learner import LearnerConfig
    from repro.sets import Box

    x = Polynomial.variable(1, 0)
    sys1 = ControlAffineSystem.autonomous([-1.0 * x])
    prob = CCDS(sys1, Box([-0.5], [0.5]), Box([-2.0], [2.0]), Box([1.5], [2.0]),
                name="decay1d")
    result = SNBC(
        prob,
        learner_config=LearnerConfig(b_hidden=(4,), epochs=300, seed=0),
        config=SNBCConfig(max_iterations=4, n_samples=200, seed=0),
    ).run()
    assert result.success

    path = tmp_path / "cert.json"
    save_certificate(result, str(path))
    loaded = load_certificate(str(path))
    assert loaded["success"]
    assert loaded["problem"] == "decay1d"
    assert loaded["barrier"].is_close(result.barrier, tol=1e-12)

    # the archived certificate re-verifies from scratch
    from repro.verifier import SOSVerifier

    assert SOSVerifier(prob, []).verify(loaded["barrier"]).ok
