"""Tests for graded-lex monomial bookkeeping."""

import pytest

from repro.poly.monomials import (
    add_exponents,
    grlex_key,
    monomial_index_map,
    monomials_exact,
    monomials_upto,
    n_monomials_upto,
    total_degree,
)
from repro.soundness import strategies as st

SEED = st.resolve_seed(0)


def test_monomials_upto_matches_paper_ordering():
    # [x]_2 for n=2: [1, x1, x2, x1^2, x1 x2, x2^2]
    basis = monomials_upto(2, 2)
    assert basis == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def test_monomials_upto_degree_zero():
    assert monomials_upto(3, 0) == ((0, 0, 0),)


def test_monomials_exact_count():
    # exact degree d in n vars: C(n+d-1, d)
    assert len(monomials_exact(3, 2)) == 6
    assert len(monomials_exact(2, 5)) == 6


def test_n_monomials_upto_formula():
    for n in range(1, 6):
        for d in range(0, 5):
            assert len(monomials_upto(n, d)) == n_monomials_upto(n, d)


def test_index_map_consistent():
    idx = monomial_index_map(3, 3)
    basis = monomials_upto(3, 3)
    for i, alpha in enumerate(basis):
        assert idx[alpha] == i


def test_grlex_key_orders_degree_first():
    assert grlex_key((0, 2)) > grlex_key((1, 0))
    assert grlex_key((2, 0)) < grlex_key((1, 1))


def test_add_exponents():
    assert add_exponents((1, 2), (3, 0)) == (4, 2)


def test_total_degree():
    assert total_degree((2, 0, 3)) == 5


def test_monomials_invalid_args():
    with pytest.raises(ValueError):
        monomials_exact(0, 2)
    with pytest.raises(ValueError):
        monomials_exact(2, -1)


def test_basis_sorted_and_unique():
    def prop(case):
        n, d = case
        basis = monomials_upto(n, d)
        assert len(set(basis)) == len(basis)
        keys = [grlex_key(a) for a in basis]
        assert keys == sorted(keys)
        assert all(total_degree(a) <= d for a in basis)

    st.run_property(
        "monomials-sorted-unique",
        st.tuples(st.integers(1, 5), st.integers(0, 6)),
        prop,
        n_examples=st.fuzz_examples(30),
        seed=SEED,
    )
