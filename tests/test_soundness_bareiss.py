"""The exact recheck on integers: dyadic Gram quantization and the
fraction-free (Bareiss) LDLᵀ, checked against the rational reference
routines they replaced.

The reference routines live here, as the differential oracle: Gram
entries quantized with ``Fraction.limit_denominator`` and a pivoted
LDLᵀ over :class:`fractions.Fraction`.  The integer elimination must
agree with the rational one on every PSD verdict, and the whole recheck
must give the same verdicts, shifts and exact certified margins on
either path.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import repro.soundness.checker as checker
import repro.soundness.rational as rational
from repro.benchmarks import get_benchmark
from repro.cegis import SNBC
from repro.soundness import (
    DEFAULT_DELTA_LADDER,
    RationalPolynomial,
    SoundnessConfig,
    check_certificate,
    ldlt_psd,
    rationalize_matrix,
)
from repro.soundness import strategies as st
from repro.soundness.rational import shift_diagonal
from repro.soundness.scenarios import make_scenario
from repro.verifier import SOSVerifier
from tests.test_soundness_exact import decay_problem, verified_bundle

SEED = st.resolve_seed(0)


# ----------------------------------------------------------------------
# the rational oracle
# ----------------------------------------------------------------------
def fraction_ldlt_psd(Q):
    """Exact PSD decision by symmetric elimination over ℚ with
    greatest-diagonal pivoting (the reference for :func:`ldlt_psd`)."""
    n = len(Q)
    A = [row[:] for row in Q]
    for k in range(n):
        p = k
        for i in range(k + 1, n):
            if A[i][i] > A[p][p]:
                p = i
        if A[p][p] < 0:
            return False
        if A[p][p] == 0:
            for i in range(k, n):
                for j in range(k, n):
                    if A[i][j] != 0:
                        return False
            return True
        if p != k:
            A[k], A[p] = A[p], A[k]
            for row in A:
                row[k], row[p] = row[p], row[k]
        d = A[k][k]
        for i in range(k + 1, n):
            aik = A[i][k]
            if aik == 0:
                continue
            f = aik / d
            row_i, row_k = A[i], A[k]
            for j in range(k + 1, n):
                if row_k[j] != 0:
                    row_i[j] = row_i[j] - f * row_k[j]
    return True


def limit_denominator_rationalize(Q, max_denominator=None):
    """Symmetrized embedding quantized by ``limit_denominator`` (the
    reference for :func:`rationalize_matrix`)."""
    n = len(Q)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            f = (Fraction(float(Q[i][j])) + Fraction(float(Q[j][i]))) / 2
            if max_denominator is not None:
                f = f.limit_denominator(max_denominator)
            out[i][j] = out[j][i] = f
    return out


# ----------------------------------------------------------------------
# property: Bareiss agrees with the rational oracle
# ----------------------------------------------------------------------
def _gram_case(rng: random.Random):
    """A symmetric dyadic matrix of one structural kind (optionally
    symmetrically permuted); most sit near the PSD boundary so that the
    ladder rungs flip the verdict."""
    n = rng.randint(1, 7)
    kind = rng.choice(
        ["psd", "rank_deficient", "zero_diagonal", "indefinite", "near_psd"]
    )
    rank = n if kind in ("psd", "near_psd") else rng.randint(0, n)
    scale = Fraction(1, 2 ** rng.randint(0, 45))
    B = [[rng.randint(-9, 9) for _ in range(rank)] for _ in range(n)]
    Q = [
        [sum(B[i][t] * B[j][t] for t in range(rank)) * scale
         for j in range(n)]
        for i in range(n)
    ]
    if kind == "zero_diagonal" and n >= 2:
        i, j = rng.sample(range(n), 2)
        for t in range(n):
            Q[i][t] = Q[t][i] = Fraction(0)
        Q[i][j] = Q[j][i] = scale * rng.choice([-1, 1])
    elif kind == "indefinite":
        i = rng.randrange(n)
        Q[i][i] -= scale * rng.randint(1, 40)
    elif kind == "near_psd":
        eps = Fraction(1, 2 ** rng.randint(8, 64))
        for i in range(n):
            Q[i][i] -= eps
    if rng.random() < 0.5:
        perm = list(range(n))
        rng.shuffle(perm)
        Q = [[Q[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    return Q


def _principal_minors(Q):
    """Shrink by dropping one row/column pair (still symmetric)."""
    for drop in range(len(Q)):
        keep = [i for i in range(len(Q)) if i != drop]
        yield [[Q[i][j] for j in keep] for i in keep]


GRAM_CASES = st.Strategy(_gram_case, _principal_minors, name="gram_cases")


def _agrees_on_every_rung(Q):
    for delta in (Fraction(0),) + DEFAULT_DELTA_LADDER:
        shifted = shift_diagonal(Q, delta)
        want = fraction_ldlt_psd(shifted)
        assert ldlt_psd(shifted) == want, (
            f"Bareiss and rational LDLᵀ disagree at shift {delta} "
            f"(rational says PSD={want})"
        )


def test_bareiss_agrees_with_rational_oracle():
    st.run_property(
        "bareiss_vs_fraction_ldlt",
        GRAM_CASES,
        _agrees_on_every_rung,
        n_examples=st.fuzz_examples(300),
        seed=SEED,
    )


def test_bareiss_agrees_on_quantized_solver_grams():
    """Float PSD Grams with jitter, through the dyadic grid, with and
    without a near-boundary offset: the matrices the checker sees."""

    def prop(Q):
        M = np.asarray(Q, dtype=float)
        for offset in (0.0, -1e-9, -1e-3):
            R = rationalize_matrix(M + offset * np.eye(len(M)), 2 ** 40)
            _agrees_on_every_rung(R)

    sizes = st.sampled_from([2, 3, 4, 6])
    st.run_property(
        "bareiss_on_quantized_grams",
        st.Strategy(
            lambda rng: st.psd_matrices(sizes.generate(rng)).generate(rng),
            name="psd_grams",
        ),
        prop,
        n_examples=st.fuzz_examples(60),
        seed=SEED,
    )


def test_bareiss_edge_cases_match_oracle():
    one, zero = Fraction(1), Fraction(0)
    cases = [
        [],
        [[zero]],
        [[-one]],
        [[one, one], [one, one]],
        [[zero, one], [one, zero]],
        [[one, zero, zero], [zero, zero, zero], [zero, zero, one]],
        [[zero, zero], [zero, -one]],
    ]
    for Q in cases:
        assert ldlt_psd(Q) == fraction_ldlt_psd(Q), Q


# ----------------------------------------------------------------------
# the dyadic grid
# ----------------------------------------------------------------------
def test_quantized_entries_are_symmetric_on_the_grid():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(6, 6))
    S = A @ A.T + A  # asymmetric input: only the average is kept
    for D in (2 ** 10, 2 ** 40):
        R = rationalize_matrix(S, D)
        for i in range(6):
            for j in range(6):
                assert R[i][j] == R[j][i]
                assert (2 * D) % R[i][j].denominator == 0
                mean = (S[i, j] + S[j, i]) / 2
                assert abs(float(R[i][j]) - mean) <= 1.0 / D


@pytest.mark.parametrize("bad", [3, 10 ** 12, 2 ** 40 + 1, 0, -4, 2.0 ** 40])
def test_non_power_of_two_grid_raises(bad):
    with pytest.raises(ValueError):
        rationalize_matrix(np.eye(2), bad)
    with pytest.raises(ValueError):
        SoundnessConfig(max_denominator=bad)
    with pytest.raises(ValueError):
        RationalPolynomial.from_polynomial(
            RationalPolynomial.constant(1, 1).to_polynomial(), bad
        )


def test_no_grid_stays_lossless():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(5, 5)) * 1e-13
    S = A + A.T
    R = rationalize_matrix(S, None)
    for i in range(5):
        for j in range(5):
            assert R[i][j] == Fraction(float(S[i, j]))
    # and the polynomial embedding keeps every bit as well
    p = RationalPolynomial.constant(1, Fraction(1, 3)).to_polynomial()
    back = RationalPolynomial.from_polynomial(p, None).to_polynomial()
    assert back.coeffs == p.coeffs


def test_grid_rounds_half_to_even_exactly():
    D = 2 ** 4
    R = rationalize_matrix([[0.5 / D, 0.0], [0.0, 1.5 / D]], D)
    assert R[0][0] == 0 and R[1][1] == Fraction(2, D)


# ----------------------------------------------------------------------
# identity: the integer recheck equals the rational one
# ----------------------------------------------------------------------
VERDICT_FIELDS = (
    "name", "ok", "identity_ok", "psd_ok", "slack_shift",
    "multiplier_shifts", "certified_margin_exact",
)


def _verdicts(report):
    return [
        tuple(getattr(c, f) for f in VERDICT_FIELDS)
        for c in report.conditions
    ]


def _bundles():
    problem, verification = verified_bundle(decay_problem())
    yield "decay", problem, verification.certificate

    spec = get_benchmark("Q1")
    snbc = SNBC(
        spec.make_problem(),
        controller=spec.make_controller(),
        learner_config=spec.learner_config(),
        config=spec.snbc_config("smoke"),
    )
    result = snbc.run()
    assert result.success
    bundle = result.verification.certificate
    assert len(bundle.conditions) == 11  # per-cell certificates
    yield "Q1", snbc.problem, bundle

    for seed in range(20):
        sc = make_scenario(seed)
        verification = SOSVerifier(sc.problem, []).verify(sc.barrier)
        if verification.ok:
            yield f"scenario/{seed}", sc.problem, verification.certificate


def test_recheck_matches_rational_oracle(monkeypatch):
    cases = list(_bundles())
    assert sum(name.startswith("scenario/") for name, _, _ in cases) >= 10
    fast = [_verdicts(check_certificate(p, b)) for _, p, b in cases]
    monkeypatch.setattr(
        checker, "rationalize_matrix", limit_denominator_rationalize
    )
    monkeypatch.setattr(rational, "ldlt_psd", fraction_ldlt_psd)
    oracle = [_verdicts(check_certificate(p, b)) for _, p, b in cases]
    for (name, _, _), got, want in zip(cases, fast, oracle):
        assert got == want, name
