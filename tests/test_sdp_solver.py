"""Tests for the interior-point SDP solver on problems with known answers."""

import numpy as np
import pytest

from repro.sdp import (
    InteriorPointOptions,
    SDPProblem,
    SDPStatus,
    solve_sdp,
)


def unit(n, i, j):
    """Symmetric unit matrix E_ij + E_ji (or E_ii)."""
    E = np.zeros((n, n))
    E[i, j] += 0.5
    E[j, i] += 0.5
    if i == j:
        E[i, i] = 1.0
    return E


# ----------------------------------------------------------------------
# basic problems
# ----------------------------------------------------------------------
def test_min_trace_with_fixed_entry():
    # min tr(X) s.t. X_11 = 2, X 2x2 PSD  ->  X = diag(2, 0), value 2
    prob = SDPProblem([2])
    prob.set_trace_objective()
    prob.add_constraint([unit(2, 0, 0)], 2.0)
    res = solve_sdp(prob)
    assert res.status == SDPStatus.OPTIMAL
    assert res.primal_objective == pytest.approx(2.0, abs=1e-5)
    assert res.X[0][0, 0] == pytest.approx(2.0, abs=1e-5)


def test_min_eigenvalue_formulation():
    # min <A, X> s.t. tr X = 1, X PSD  ->  lambda_min(A)
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 4))
    A = 0.5 * (A + A.T)
    prob = SDPProblem([4])
    prob.set_objective([A])
    prob.add_constraint([np.eye(4)], 1.0)
    res = solve_sdp(prob)
    assert res.status == SDPStatus.OPTIMAL
    lam_min = np.linalg.eigvalsh(A)[0]
    assert res.primal_objective == pytest.approx(lam_min, abs=1e-5)


def test_two_blocks():
    # min tr(X1) + tr(X2) with X1_11 = 1, X2_22 = 3
    prob = SDPProblem([2, 3])
    prob.set_trace_objective()
    prob.add_constraint([unit(2, 0, 0), None], 1.0)
    prob.add_constraint([None, unit(3, 1, 1)], 3.0)
    res = solve_sdp(prob)
    assert res.status == SDPStatus.OPTIMAL
    assert res.primal_objective == pytest.approx(4.0, abs=1e-5)


def test_feasibility_recovers_psd_completion():
    # X_12 = 1 with min trace => X = [[1,1],[1,1]] (rank-1, trace 2)
    prob = SDPProblem([2])
    prob.set_trace_objective()
    prob.add_constraint([unit(2, 0, 1)], 1.0)
    res = solve_sdp(prob)
    assert res.status == SDPStatus.OPTIMAL
    assert res.primal_objective == pytest.approx(2.0, abs=1e-4)
    assert np.linalg.eigvalsh(res.X[0])[0] >= -1e-7


def test_primal_infeasible_detected():
    # X_11 = -1 impossible for PSD X
    prob = SDPProblem([2])
    prob.set_trace_objective()
    prob.add_constraint([unit(2, 0, 0)], -1.0)
    res = solve_sdp(prob, InteriorPointOptions(max_iterations=200))
    assert res.status in (
        SDPStatus.PRIMAL_INFEASIBLE,
        SDPStatus.MAX_ITERATIONS,
        SDPStatus.NUMERICAL_ERROR,
    )
    assert not res.feasible


def test_inconsistent_constraints_detected():
    prob = SDPProblem([2])
    prob.add_constraint([unit(2, 0, 0)], 1.0)
    prob.add_constraint([unit(2, 0, 0)], 2.0)
    res = solve_sdp(prob)
    assert res.status == SDPStatus.INCONSISTENT


def test_redundant_constraints_presolved():
    prob = SDPProblem([2])
    prob.set_trace_objective()
    prob.add_constraint([unit(2, 0, 0)], 1.0)
    prob.add_constraint([unit(2, 0, 0)], 1.0)  # duplicate
    prob.add_constraint([2.0 * unit(2, 0, 0)], 2.0)  # scaled duplicate
    res = solve_sdp(prob)
    assert res.status == SDPStatus.OPTIMAL
    assert res.X[0][0, 0] == pytest.approx(1.0, abs=1e-5)
    assert res.y is not None and res.y.shape == (3,)


def test_no_constraints():
    prob = SDPProblem([3])
    res = solve_sdp(prob)
    assert res.status == SDPStatus.OPTIMAL
    np.testing.assert_allclose(res.X[0], np.zeros((3, 3)))


# ----------------------------------------------------------------------
# randomized problems with a constructed KKT-optimal pair
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n,m,seed", [(3, 4, 0), (5, 8, 1), (6, 10, 2), (8, 12, 3)])
def test_random_sdp_with_known_optimum(n, m, seed):
    rng = np.random.default_rng(seed)
    # strictly complementary optimal pair: X* = U diag(p, 0) U^T, Z* = U diag(0, q) U^T
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    r = n // 2
    p = rng.uniform(0.5, 2.0, size=r)
    q = rng.uniform(0.5, 2.0, size=n - r)
    X_star = U @ np.diag(np.concatenate([p, np.zeros(n - r)])) @ U.T
    Z_star = U @ np.diag(np.concatenate([np.zeros(r), q])) @ U.T
    y_star = rng.normal(size=m)
    A_mats = []
    for _ in range(m):
        Ai = rng.normal(size=(n, n))
        A_mats.append(0.5 * (Ai + Ai.T))
    C = Z_star + sum(y_star[i] * A_mats[i] for i in range(m))
    prob = SDPProblem([n])
    prob.set_objective([C])
    for Ai in A_mats:
        prob.add_constraint([Ai], float(np.sum(Ai * X_star)))
    res = solve_sdp(prob)
    assert res.status == SDPStatus.OPTIMAL
    expected = float(np.sum(C * X_star))
    assert res.primal_objective == pytest.approx(expected, abs=1e-4 * (1 + abs(expected)))
    assert res.dual_objective == pytest.approx(expected, abs=1e-4 * (1 + abs(expected)))


def test_result_diagnostics():
    prob = SDPProblem([2])
    prob.set_trace_objective()
    prob.add_constraint([unit(2, 0, 0)], 1.0)
    res = solve_sdp(prob)
    eigs = res.min_eigenvalues()
    assert len(eigs) == 1
    assert eigs[0] >= -1e-8
    assert res.gap < 1e-6
    assert res.iterations > 0


# ----------------------------------------------------------------------
# problem container validation
# ----------------------------------------------------------------------
def test_problem_validation():
    with pytest.raises(ValueError):
        SDPProblem([])
    with pytest.raises(ValueError):
        SDPProblem([0])
    prob = SDPProblem([2])
    with pytest.raises(ValueError):
        prob.add_constraint([np.zeros((3, 3))], 0.0)
    with pytest.raises(ValueError):
        prob.add_constraint([np.zeros((2, 2)), np.zeros((2, 2))], 0.0)
    with pytest.raises(ValueError):
        prob.set_objective([np.zeros((3, 3))])
    with pytest.raises(ValueError):
        prob.add_constraint_svec([np.zeros(5)], 0.0)


def test_constraint_matrix_and_split():
    prob = SDPProblem([2, 2])
    prob.add_constraint([unit(2, 0, 0), unit(2, 1, 1)], 1.0)
    mat = prob.constraint_matrix()
    assert mat.shape == (1, 6)
    parts = prob.split_svec(mat[0])
    assert len(parts) == 2 and parts[0].shape == (3,)


# ----------------------------------------------------------------------
# solver kernels against their scipy / broadcast-matmul references
# ----------------------------------------------------------------------
def _spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


def _sym(rng, n):
    A = rng.normal(size=(n, n))
    return 0.5 * (A + A.T)


def _not_pd(n):
    """Symmetric, finite and indefinite: every Cholesky must fail."""
    M = np.eye(n)
    M[-1, -1] = -1.0
    return M


KERNEL_CASES = [(3, 4, 0), (6, 9, 1), (8, 12, 2)]


@pytest.mark.parametrize("n,m,seed", KERNEL_CASES)
def test_potrf_potrs_bitwise_identical_to_cho_factor(n, m, seed):
    from scipy.linalg import cho_factor, cho_solve

    from repro.sdp.ipm import _potrf_upper, _potrs_upper

    rng = np.random.default_rng(seed)
    M = _spd(rng, n)
    c = _potrf_upper(M)
    c_ref, lower = cho_factor(M)
    assert not lower
    assert np.array_equal(c, c_ref)
    for rhs in (np.eye(n), rng.normal(size=n), rng.normal(size=(n, m))):
        assert np.array_equal(_potrs_upper(c, rhs), cho_solve((c_ref, False), rhs))
    with pytest.raises(np.linalg.LinAlgError):
        cho_factor(_not_pd(n))
    with pytest.raises(np.linalg.LinAlgError):
        _potrf_upper(_not_pd(n))


@pytest.mark.parametrize("n,m,seed", KERNEL_CASES)
def test_schur_block_bitwise_identical_to_broadcast_matmul(n, m, seed):
    from repro.sdp import smat_batch, svec
    from repro.sdp.ipm import _BlockData, _schur_block

    rng = np.random.default_rng(seed)
    svecs = np.stack([svec(_sym(rng, n)) for _ in range(m)])
    blk = _BlockData(n, svecs)
    dense = smat_batch(svecs, n)
    for X, Zinv in ((_spd(rng, n), _spd(rng, n)), (_not_pd(n), _spd(rng, n))):
        # reference: one batched 3-tensor matmul per block
        U = X[None, :, :] @ dense @ Zinv[None, :, :]
        U = 0.5 * (U + np.transpose(U, (0, 2, 1)))
        assert np.array_equal(_schur_block(X, Zinv, blk), svec(U) @ svecs.T)


def _max_step_reference(Mb, dMb):
    """Line search through scipy's ``cholesky`` + ``solve_triangular``."""
    from scipy.linalg import cholesky, solve_triangular

    from repro.sdp.svec import sym

    alpha = np.inf
    for Mk, dMk in zip(Mb, dMb):
        if not np.all(np.isfinite(dMk)):
            return 0.0
        try:
            L = cholesky(Mk, lower=True)
        except (np.linalg.LinAlgError, ValueError):
            return 0.0
        W = solve_triangular(L, dMk, lower=True)
        W = solve_triangular(L, W.T, lower=True)
        lam_min = float(np.linalg.eigvalsh(sym(W))[0])
        if lam_min < 0:
            alpha = min(alpha, -1.0 / lam_min)
    return float(alpha)


@pytest.mark.parametrize("n,m,seed", KERNEL_CASES)
def test_max_step_factored_bitwise_identical_to_scipy_cholesky(n, m, seed):
    from scipy.linalg import cholesky

    from repro.sdp.ipm import _chol_lower_or_none, _IPMState

    rng = np.random.default_rng(seed)
    Mb = [_spd(rng, n), _spd(rng, m)]
    dMb = [10.0 * _sym(rng, n), 10.0 * _sym(rng, m)]
    factors = [_chol_lower_or_none(Mk) for Mk in Mb]
    for L, Mk in zip(factors, Mb):
        assert np.array_equal(L, cholesky(Mk, lower=True))
    alpha = _IPMState._max_step_factored(factors, dMb)
    assert 0.0 < alpha < np.inf
    assert alpha == _max_step_reference(Mb, dMb)
    # a failed factor (non-PD or non-finite block) means a zero step
    for bad in (_not_pd(n), np.full((n, n), np.nan)):
        assert _chol_lower_or_none(bad) is None
        bad_factors = [_chol_lower_or_none(bad), factors[1]]
        assert _IPMState._max_step_factored(bad_factors, dMb) == 0.0
        assert _max_step_reference([bad, Mb[1]], dMb) == 0.0


def test_schur_regularization_guards():
    from repro.sdp.ipm import _schur_regularization

    # healthy: exact legacy float-op order
    M = np.diag([1.0, 2.0, 3.0])
    assert _schur_regularization(M, 3) == 1e-14 * np.trace(M) / 3
    # m == 0 (fully presolved constraint set)
    assert _schur_regularization(np.zeros((0, 0)), 0) == 0.0
    # nan / zero / negative trace fall back to a positive jitter
    bad = np.diag([np.nan, 1.0])
    assert _schur_regularization(bad, 2) > 0.0
    assert np.isfinite(_schur_regularization(bad, 2))
    assert _schur_regularization(np.zeros((2, 2)), 2) > 0.0
    assert _schur_regularization(np.diag([-1.0, -2.0]), 2) > 0.0


def test_smat_batch_matches_scalar_smat():
    from repro.sdp import smat, smat_batch, svec

    rng = np.random.default_rng(7)
    n = 5
    mats = []
    for _ in range(4):
        A = rng.normal(size=(n, n))
        mats.append(0.5 * (A + A.T))
    vecs = np.stack([svec(A) for A in mats])
    out = smat_batch(vecs, n)
    assert out.shape == (4, n, n)
    for k, A in enumerate(mats):
        assert np.array_equal(out[k], smat(vecs[k], n))
