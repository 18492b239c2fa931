"""Tests for symmetric vectorization utilities."""

import numpy as np
import pytest

from repro.sdp import smat, svec, svec_dim
from repro.sdp.svec import sym
from repro.soundness import strategies as st

SEED = st.resolve_seed(0)


def random_sym(n, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    return 0.5 * (A + A.T)


def test_svec_dim():
    assert svec_dim(1) == 1
    assert svec_dim(4) == 10


def test_svec_smat_roundtrip():
    for n in (1, 2, 5, 8):
        A = random_sym(n, seed=n)
        np.testing.assert_allclose(smat(svec(A), n), A, atol=1e-12)


def test_svec_inner_product_isometry():
    A = random_sym(4, seed=1)
    B = random_sym(4, seed=2)
    assert svec(A) @ svec(B) == pytest.approx(np.sum(A * B))


def test_svec_batch():
    mats = np.stack([random_sym(3, s) for s in range(5)])
    out = svec(mats)
    assert out.shape == (5, svec_dim(3))
    np.testing.assert_allclose(out[2], svec(mats[2]))


def test_svec_rejects_nonsquare():
    with pytest.raises(ValueError):
        svec(np.zeros((2, 3)))


def test_smat_rejects_bad_length():
    with pytest.raises(ValueError):
        smat(np.zeros(4), 3)


def test_sym():
    A = np.array([[1.0, 2.0], [0.0, 3.0]])
    S = sym(A)
    np.testing.assert_allclose(S, S.T)
    np.testing.assert_allclose(S, [[1.0, 1.0], [1.0, 3.0]])


def test_isometry_property():
    def prop(n):
        rng = np.random.default_rng(n)
        A = sym(rng.normal(size=(n, n)))
        assert np.linalg.norm(svec(A)) == pytest.approx(np.linalg.norm(A))

    st.run_property(
        "svec-isometry", st.integers(1, 6), prop,
        n_examples=st.fuzz_examples(30), seed=SEED,
    )
