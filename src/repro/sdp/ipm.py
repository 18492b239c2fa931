"""Primal-dual interior-point method for block-diagonal SDPs.

Implements the HKM (Helmberg-Kojima-Monteiro) search direction with a
Mehrotra predictor-corrector, the classic algorithm behind CSDP/SDPA.  For
the problem

    min  <C, X>   s.t.  A(X) = b,  X PSD (block diagonal)

each iteration linearizes the perturbed complementarity ``X Z = sigma mu I``
as ``dX Z + X dZ = K`` and eliminates ``dX`` and ``dZ`` through the Schur
complement ``M`` with entries ``M_ij = tr(A_i X A_j Z^{-1})``.

Solver fast path
----------------
There is one solver path.  The per-iteration loop lives in
:class:`_IPMState` and calls raw LAPACK (``dpotrf``/``dpotrs``/
``dtrtrs``) instead of the scipy wrappers, whose per-call overhead
dominates on the small blocks SOS programs produce.  X and Z are
factored once per iteration and the factors serve both line-search
calls.  Each block's Schur contribution is two reshaped GEMMs
(:func:`_schur_block`) instead of ``m`` batched 3-tensor matmuls.  Each
kernel is bitwise-identical to the scipy / broadcast reference it
replaced; ``tests/test_sdp_solver.py`` holds those references as
oracles.

Four opt-in variants were measured against this path and deleted,
because none of them won end to end (per-verify speed relative to this
path, below 1x is slower; 2 cores, medians):

* the scipy-wrapper kernels: 0.52-0.82x on passing candidates;
* a structured congruence Schur assembly ``M = Q Q^T``: 0.32-0.50x on
  C8/C9, and not bitwise;
* warm starts from a previous solve: faster only when the identical
  candidate was verified again, and summed CEGIS verifier time went
  from 6.44 s to 6.83 s over C1/C3/C6/Q1 x 6 seeds;
* a lockstep batch driver for the three condition LMIs: 0.00-0.14x on
  rejected candidates, because it solved every condition eagerly
  instead of stopping at the first failure.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import lapack as _lapack

from repro.resilience.faults import fault_point, fired
from repro.sdp.problem import PresolveInfo, SDPProblem
from repro.sdp.result import SDPResult, SDPStatus
from repro.sdp.svec import smat, smat_batch, svec, sym
from repro.sdp.trace import (
    DEFAULT_TRACE_CAPACITY,
    IPMTrace,
    classify_convergence,
    make_record,
)
from repro.telemetry import get_telemetry

logger = logging.getLogger(__name__)


@dataclass
class InteriorPointOptions:
    """Tuning knobs for :func:`solve_sdp`."""

    max_iterations: int = 100
    tolerance: float = 1e-8
    #: fraction-to-boundary factor keeping iterates strictly interior
    step_fraction: float = 0.98
    #: dual objective beyond which the primal is declared infeasible
    infeasibility_threshold: float = 1e8
    #: initial scaling floor for X and Z
    init_scale: float = 10.0
    #: wall-clock cap on the iteration loop; ``None`` disarms.  Checked
    #: once per IPM iteration, so one iteration may overshoot — the cap
    #: is cooperative, like the pipeline-level ``TimeBudget``
    time_limit_s: Optional[float] = None
    #: ring-buffer capacity for per-iteration trace records (the most
    #: recent window is kept; recording is always on — it is noise-level
    #: next to the per-iteration dense factorizations)
    trace_capacity: int = DEFAULT_TRACE_CAPACITY


# ----------------------------------------------------------------------
# raw LAPACK kernels (bitwise-identical to the scipy wrappers they
# replace — asserted by tests/test_sdp_solver.py — minus the per-call
# python overhead that dominates on SOS-sized blocks)
# ----------------------------------------------------------------------
def _chol_lower_or_none(M: np.ndarray) -> Optional[np.ndarray]:
    """Lower Cholesky factor, or ``None`` when ``M`` is not PD / not
    finite (the line search treats both as a zero step)."""
    if not np.all(np.isfinite(M)):
        return None
    c, info = _lapack.dpotrf(M, lower=1, clean=1)
    return c if info == 0 else None


def _potrf_upper(M: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor a la ``cho_factor`` (raises on non-PD)."""
    c, info = _lapack.dpotrf(M, lower=0, clean=0)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"matrix is not positive definite (dpotrf info={info})"
        )
    return c


def _potrs_upper(c: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve with an upper factor from :func:`_potrf_upper`."""
    x, info = _lapack.dpotrs(c, B, lower=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotrs failed (info={info})")
    return x


def _solve_lower(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Forward substitution ``L x = B`` (lower triangular)."""
    x, info = _lapack.dtrtrs(L, B, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dtrtrs failed (info={info})")
    return x


def _schur_regularization(M: np.ndarray, m: int) -> float:
    """Diagonal jitter for the Schur Cholesky.

    Healthy Schur complements (positive finite trace) get exactly the
    historical ``1e-14 * tr(M) / m`` value — same float operations, so
    default-on solves stay bitwise.  The guards fix the degenerate
    cases: ``m == 0`` and a zero/negative/non-finite trace used to
    produce a nan/zero jitter, turning a recoverable least-squares
    fallback into either a crash (``cho_factor`` raising ``ValueError``
    on nan) or a misleading ``schur_cholesky_ok=False``.
    """
    if m <= 0:
        return 0.0
    tr = float(np.trace(M))
    if np.isfinite(tr) and tr > 0.0:
        return 1e-14 * tr / m
    diag = np.abs(np.diag(M))
    fallback = (
        float(np.max(diag)) if diag.size and bool(np.all(np.isfinite(diag))) else 0.0
    )
    return 1e-14 * max(1.0, fallback)


class _BlockData:
    """Per-block constraint data used by the Schur assembly.

    Built once per solve from the (static) svec constraint rows.
    ``dense_h`` is the ``(n, m*n)`` horizontal concatenation
    ``[A_1 | A_2 | ...]`` of the constraint matrices, so one GEMM
    ``X @ dense_h`` computes every ``X A_i`` product.
    """

    def __init__(self, n: int, svec_rows: np.ndarray):
        self.n = n
        self.svecs = svec_rows  # (m, s)
        m = svec_rows.shape[0]
        if m:
            self.dense_h = np.ascontiguousarray(
                smat_batch(svec_rows, n).transpose(1, 0, 2).reshape(n, m * n)
            )
        else:
            self.dense_h = np.zeros((n, 0))


def _schur_block(Xk: np.ndarray, Zinv_k: np.ndarray, blk: _BlockData) -> np.ndarray:
    """One block's contribution ``tr(A_i X A_j Z^{-1})`` to the Schur
    complement, as two reshaped GEMMs.  Bitwise-identical to the
    per-block broadcast ``X @ A_i @ Z^{-1}`` 3-tensor matmul: that
    dispatches the same dgemm per slice."""
    n, m = blk.n, blk.svecs.shape[0]
    T = (Xk @ blk.dense_h).reshape(n, m, n).transpose(1, 0, 2)
    U = (np.ascontiguousarray(T).reshape(m * n, n) @ Zinv_k).reshape(m, n, n)
    U = 0.5 * (U + np.transpose(U, (0, 2, 1)))
    return svec(U) @ blk.svecs.T


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------
def solve_sdp(
    problem: SDPProblem,
    options: Optional[InteriorPointOptions] = None,
    rung: str = "base",
) -> SDPResult:
    """Solve a block-diagonal standard-form SDP.

    The problem is presolved to full row rank first.  Returns an
    :class:`SDPResult`; callers that only need feasibility should check
    ``result.status.ok`` *and* run their own a-posteriori validation of the
    primal blocks (see :mod:`repro.sos.validate`).

    ``rung`` labels which recovery-ladder strategy this solve belongs to
    (``"base"`` for a plain first attempt); it is stamped on the result
    and the emitted trace so cross-run analysis can attribute iterations
    to ladder rungs.
    """
    opts = options or InteriorPointOptions()
    tel = get_telemetry()
    with tel.span(
        "sdp.solve",
        n_constraints=problem.n_constraints,
        n_blocks=len(problem.block_dims),
        total_dim=problem.total_dim,
        rung=rung,
    ) as span:
        if fired("sdp.nonconvergence"):
            result = _injected_nonconvergence(opts, rung)
            span.set_attr("status", result.status.value)
            return result
        reduced, info = problem.presolved()
        if info.inconsistent:
            span.set_attr("status", SDPStatus.INCONSISTENT.value)
            return SDPResult(
                status=SDPStatus.INCONSISTENT,
                message="equality constraints are inconsistent (presolve)",
                recovery_rung=rung,
            )
        try:
            fault_point("sdp.solve")
            result = _solve_reduced(reduced, opts)
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            # dense linear algebra can still throw outside the guarded
            # factorizations (e.g. eigvalsh non-convergence); classify it
            # as a numerical failure instead of leaking a traceback
            tel.metrics.inc("sdp.status.exception")
            result = SDPResult(
                status=SDPStatus.NUMERICAL_ERROR,
                message=f"solver exception: {type(exc).__name__}: {exc}",
                convergence_class="ill_conditioned",
            )
        _finish_solve(problem, info, result, rung, tel)
        span.set_attrs(
            status=result.status.value,
            iterations=result.iterations,
            gap=result.gap,
            primal_residual=result.primal_residual,
            dual_residual=result.dual_residual,
            convergence=result.convergence_class,
        )
    return result


def _injected_nonconvergence(opts: InteriorPointOptions, rung: str) -> SDPResult:
    return SDPResult(
        status=SDPStatus.MAX_ITERATIONS,
        iterations=opts.max_iterations,
        message="injected non-convergence",
        recovery_rung=rung,
    )


def _finish_solve(
    problem: SDPProblem,
    info: PresolveInfo,
    result: SDPResult,
    rung: str,
    tel,
) -> None:
    """Post-solve bookkeeping: rung stamp, dual expansion back to the
    original constraint indexing, and telemetry emission."""
    result.recovery_rung = rung
    if result.y is not None and info.dropped_rows:
        y_full = np.zeros(problem.n_constraints)
        y_full[np.asarray(info.kept_rows, dtype=int)] = result.y
        result.y = y_full
    tel.status_update(
        ipm_convergence=result.convergence_class, recovery_rung=rung
    )
    if tel.enabled:
        tel.metrics.observe("sdp.iterations", result.iterations)
        tel.metrics.observe("sdp.final_gap", result.gap)
        tel.metrics.observe("sdp.primal_residual", result.primal_residual)
        tel.metrics.observe("sdp.dual_residual", result.dual_residual)
        tel.metrics.inc(f"sdp.status.{result.status.value}")
        tel.metrics.inc(f"sdp.convergence.{result.convergence_class}")
        tel.event(
            "sdp.ipm_trace",
            status=result.status.value,
            convergence=result.convergence_class,
            rung=rung,
            iterations=result.iterations,
            n_records=len(result.ipm_trace),
            dropped=result.ipm_trace_dropped,
            records=result.ipm_trace,
        )


def _zero_constraint_result(problem: SDPProblem) -> SDPResult:
    dims = problem.block_dims
    return SDPResult(
        status=SDPStatus.OPTIMAL,
        X=[np.zeros((n, n)) for n in dims],
        y=np.zeros(0),
        Z=[c.copy() for c in problem.C],
        primal_objective=0.0,
        dual_objective=0.0,
        gap=0.0,
        primal_residual=0.0,
        dual_residual=0.0,
        message="no constraints; returning X = 0",
        convergence_class="healthy",
    )


def _solve_reduced(problem: SDPProblem, opts: InteriorPointOptions) -> SDPResult:
    if problem.n_constraints == 0:
        return _zero_constraint_result(problem)
    state = _IPMState(problem, opts)
    while not state.finished and state.iteration < opts.max_iterations:
        state.step()
    return state.finalize()


# ----------------------------------------------------------------------
# the iteration engine
# ----------------------------------------------------------------------
class _IPMState:
    """The predictor-corrector iteration of one solve.

    The per-iteration work is split into named ``_phase`` methods so the
    sampling profiler attributes time to solver sub-phases instead of
    one opaque frame; the same boundaries feed the ``t_*`` sub-phase
    timers in the trace records (see :mod:`repro.sdp.trace`).
    """

    def __init__(self, problem: SDPProblem, opts: InteriorPointOptions):
        self.opts = opts
        self.dims = problem.block_dims
        self.n_blocks = len(self.dims)
        self.m = problem.n_constraints
        self.b = problem.rhs()
        self.C = [c.copy() for c in problem.C]
        A_full = problem.constraint_matrix()
        self.blocks: List[_BlockData] = []
        start = 0
        for n in self.dims:
            s = n * (n + 1) // 2
            self.blocks.append(_BlockData(n, A_full[:, start : start + s]))
            start += s
        self.total_n = problem.total_dim
        self.norm_b = float(np.linalg.norm(self.b))
        self.norm_C = float(
            np.sqrt(sum(np.linalg.norm(c) ** 2 for c in self.C))
        )

        # -- initialization (CSDP-style magnitude heuristics)
        row_norms = np.linalg.norm(A_full, axis=1)
        xi = max(
            opts.init_scale,
            float(np.max(np.abs(self.b) / (1.0 + row_norms))) * max(self.dims)
            if self.m
            else 0.0,
        )
        eta = max(opts.init_scale, self.norm_C)
        self.X = [xi * np.eye(n) for n in self.dims]
        self.Z = [eta * np.eye(n) for n in self.dims]
        self.y = np.zeros(self.m)

        self.status = SDPStatus.MAX_ITERATIONS
        self.message = ""
        self.iteration = 0
        self.rel_gap = np.inf
        self.prim_res = np.inf
        self.dual_res = np.inf
        self.t_start = time.perf_counter()
        self.trace = IPMTrace(capacity=opts.trace_capacity)
        self.finished = False
        self.tel = get_telemetry()
        # per-iteration scratch
        self.rp: Optional[np.ndarray] = None
        self.Rd: List[np.ndarray] = []
        self.mu = np.inf
        self.Zinv: List[np.ndarray] = []
        self._ls_X: Optional[List[Optional[np.ndarray]]] = None
        self._ls_Z: Optional[List[Optional[np.ndarray]]] = None

    # -- operators ------------------------------------------------------
    def _operator_A(self, Xb: Sequence[np.ndarray]) -> np.ndarray:
        out = np.zeros(self.m)
        for blk, Xk in zip(self.blocks, Xb):
            out += blk.svecs @ svec(Xk)
        return out

    def _operator_AT(self, yv: np.ndarray) -> List[np.ndarray]:
        return [smat(blk.svecs.T @ yv, blk.n) for blk in self.blocks]

    @staticmethod
    def _inner(Ab: Sequence[np.ndarray], Bb: Sequence[np.ndarray]) -> float:
        return float(sum(np.sum(a * bmat) for a, bmat in zip(Ab, Bb)))

    def _stop(self, status: SDPStatus, message: str) -> None:
        self.status = status
        self.message = message
        self.finished = True

    # -- sub-phases -----------------------------------------------------
    def _phase_residuals(self, rec: dict) -> bool:
        """Residuals, objectives and the termination tests; fills the
        head of the trace record.  Returns False when the solve ended."""
        opts = self.opts
        self.rp = self.b - self._operator_A(self.X)
        ATy = self._operator_AT(self.y)
        self.Rd = [
            self.C[k] - ATy[k] - self.Z[k] for k in range(self.n_blocks)
        ]
        mu = self._inner(self.X, self.Z) / self.total_n
        if fired("sdp.ipm.mu"):
            mu = float("nan")
        self.mu = mu
        pobj = self._inner(self.C, self.X)
        dobj = float(self.b @ self.y)
        self.rel_gap = self._inner(self.X, self.Z) / (
            1.0 + abs(pobj) + abs(dobj)
        )
        self.prim_res = float(np.linalg.norm(self.rp)) / (1.0 + self.norm_b)
        self.dual_res = float(
            np.sqrt(sum(np.linalg.norm(r) ** 2 for r in self.Rd))
        ) / (1.0 + self.norm_C)
        rec.update(
            mu=float(mu),
            rel_gap=float(self.rel_gap),
            primal_residual=float(self.prim_res),
            dual_residual=float(self.dual_res),
            primal_objective=float(pobj),
            dual_objective=float(dobj),
        )

        logger.debug(
            "ipm it=%3d mu=%9.2e gap=%9.2e pres=%9.2e dres=%9.2e pobj=%+.6e",
            self.iteration, mu, self.rel_gap, self.prim_res, self.dual_res,
            pobj,
        )

        if not np.isfinite(mu) or mu < 0:
            self._stop(SDPStatus.NUMERICAL_ERROR, "mu became invalid")
            return False
        if (
            self.rel_gap < opts.tolerance
            and self.prim_res < opts.tolerance
            and self.dual_res < opts.tolerance
        ):
            self._stop(SDPStatus.OPTIMAL, "converged")
            return False
        if (
            dobj > opts.infeasibility_threshold * (1.0 + self.norm_C)
            and self.dual_res < 1e-4
        ):
            self._stop(
                SDPStatus.PRIMAL_INFEASIBLE,
                "dual objective diverging; primal likely infeasible",
            )
            return False
        if (
            pobj < -opts.infeasibility_threshold * (1.0 + self.norm_b)
            and self.prim_res < 1e-4
        ):
            self._stop(
                SDPStatus.DUAL_INFEASIBLE,
                "primal objective diverging; dual likely infeasible",
            )
            return False
        return True

    def _phase_z_factor(self, rec: dict) -> bool:
        """Factor the Z blocks and form ``Z^{-1}``; False on breakdown."""
        t0 = time.perf_counter()
        self.Zinv = []
        failed = False
        for Zk in self.Z:
            try:
                fault_point("sdp.ipm.z_cholesky")
                cf = _potrf_upper(Zk)
            except np.linalg.LinAlgError:
                failed = True
                break
            self.Zinv.append(_potrs_upper(cf, np.eye(Zk.shape[0])))
        rec["t_z_factor"] = time.perf_counter() - t0
        if failed:
            rec["z_cholesky_ok"] = False
            self._stop(
                SDPStatus.NUMERICAL_ERROR, "Z lost positive definiteness"
            )
            return False
        return True

    def _phase_schur_assembly(self, rec: dict) -> Optional[np.ndarray]:
        """Assemble the Schur complement ``M_ij = tr(A_i X A_j Z^{-1})``."""
        t0 = time.perf_counter()
        m = self.m
        M = np.zeros((m, m))
        for k, blk in enumerate(self.blocks):
            if blk.n == 0 or blk.svecs.size == 0:
                continue
            M += _schur_block(self.X[k], self.Zinv[k], blk)
        M = 0.5 * (M + M.T)
        abs_diag = np.abs(np.diag(M))
        max_diag = float(np.max(abs_diag)) if m else 0.0
        min_diag = float(np.min(abs_diag)) if m else 0.0
        rec["schur_diag_ratio"] = (
            max_diag / min_diag if min_diag > 0.0 else float("inf")
        )
        rec["t_schur_assembly"] = time.perf_counter() - t0
        if not np.all(np.isfinite(M)):
            # a clean numerical-error verdict (rather than a ValueError
            # escaping the solver) keeps the recovery ladder in play
            # (see _schur_regularization)
            rec["schur_cholesky_ok"] = False
            self._stop(
                SDPStatus.NUMERICAL_ERROR, "Schur complement lost finiteness"
            )
            return None
        return M

    def _phase_schur_factor(self, M: np.ndarray, rec: dict):
        """Regularized Cholesky of ``M`` (least-squares fallback marker)."""
        t0 = time.perf_counter()
        jitter = _schur_regularization(M, self.m)
        try:
            M_factor = _potrf_upper(M + jitter * np.eye(self.m))
        except np.linalg.LinAlgError:
            M_factor = None
            rec["schur_cholesky_ok"] = False
        rec["t_schur_factor"] = time.perf_counter() - t0
        return M_factor

    def _solve_M(self, M, M_factor, rhs_vec: np.ndarray) -> np.ndarray:
        if M_factor is not None:
            return _potrs_upper(M_factor, rhs_vec)
        return np.linalg.lstsq(M, rhs_vec, rcond=None)[0]

    def _direction(
        self, M, M_factor, Kterm: List[np.ndarray]
    ) -> Tuple[List[np.ndarray], np.ndarray, List[np.ndarray]]:
        """Solve the Newton system for complementarity target ``Kterm``.

        ``dX Z + X dZ = Kterm - X Z`` together with the two feasibility
        equations; returns (dX, dy, dZ).
        """
        assert self.rp is not None
        rhs = self.b.copy()
        for k in range(self.n_blocks):
            rhs -= self.blocks[k].svecs @ svec(sym(Kterm[k] @ self.Zinv[k]))
            rhs += self.blocks[k].svecs @ svec(
                sym(self.X[k] @ self.Rd[k] @ self.Zinv[k])
            )
        dy = self._solve_M(M, M_factor, rhs)
        ATdy = self._operator_AT(dy)
        dZ = [self.Rd[k] - ATdy[k] for k in range(self.n_blocks)]
        dX = [
            sym(
                Kterm[k] @ self.Zinv[k]
                - self.X[k]
                - self.X[k] @ dZ[k] @ self.Zinv[k]
            )
            for k in range(self.n_blocks)
        ]
        return dX, dy, dZ

    # -- line search ----------------------------------------------------
    @staticmethod
    def _max_step_factored(
        factors: Sequence[Optional[np.ndarray]], dMb: Sequence[np.ndarray]
    ) -> float:
        """Largest alpha with ``M + alpha dM`` still PSD (per-block
        minimum), against precomputed lower factors of the ``M`` blocks.
        A ``None`` factor (failed Cholesky) or a non-finite ``dM`` gives
        a zero step."""
        alpha = np.inf
        for L, dMk in zip(factors, dMb):
            if not np.all(np.isfinite(dMk)):
                return 0.0
            if L is None:
                return 0.0
            W = _solve_lower(L, dMk)
            W = _solve_lower(L, W.T)
            lam_min = float(np.linalg.eigvalsh(sym(W))[0])
            if lam_min < 0:
                alpha = min(alpha, -1.0 / lam_min)
        return float(alpha)

    def _max_step(self, which: str, dMb: Sequence[np.ndarray]) -> float:
        """Line search for ``X`` or ``Z``.  One Cholesky of X and Z per
        iteration serves both the predictor and the corrector call (the
        iterates do not change in between)."""
        if self._ls_X is None:
            self._ls_X = [_chol_lower_or_none(Xk) for Xk in self.X]
            self._ls_Z = [_chol_lower_or_none(Zk) for Zk in self.Z]
        factors = self._ls_X if which == "X" else self._ls_Z
        return self._max_step_factored(factors, dMb)

    # -- one iteration --------------------------------------------------
    def step(self) -> None:
        """Advance one predictor-corrector iteration (or terminate)."""
        opts = self.opts
        self.iteration += 1
        # heartbeat: StatusWriter throttles, so this is one perf_counter
        # read per iteration on runs with a status file, a no-op otherwise
        self.tel.status_update(ipm_iteration=self.iteration)
        if (
            opts.time_limit_s is not None
            and time.perf_counter() - self.t_start > opts.time_limit_s
        ):
            self._stop(
                SDPStatus.MAX_ITERATIONS,
                f"time limit of {opts.time_limit_s:.3f}s reached",
            )
            return
        # a partially-filled record still lands in the trace on every
        # stop path below, so the classifier sees how the solve ended
        rec = self.trace.add(make_record(
            self.iteration, np.nan, np.nan, np.nan, np.nan, np.nan, np.nan,
            t=0.0,
        ))
        # per-iteration scratch reset (line-search factor cache)
        self._ls_X = None
        try:
            if not self._phase_residuals(rec):
                return
            if not self._phase_z_factor(rec):
                return
            M = self._phase_schur_assembly(rec)
            if M is None:
                return
            M_factor = self._phase_schur_factor(M, rec)

            # predictor (affine scaling)
            K_aff = [np.zeros((n, n)) for n in self.dims]
            dX_aff, dy_aff, dZ_aff = self._direction(M, M_factor, K_aff)
            if fired("sdp.ipm.direction"):
                dy_aff = np.full_like(dy_aff, np.nan)
            if not all(
                np.all(np.isfinite(d)) for d in dX_aff + dZ_aff
            ) or not np.all(np.isfinite(dy_aff)):
                self._stop(
                    SDPStatus.NUMERICAL_ERROR, "non-finite search direction"
                )
                return
            t_ls = time.perf_counter()
            ap_aff = min(1.0, opts.step_fraction * self._max_step("X", dX_aff))
            ad_aff = min(1.0, opts.step_fraction * self._max_step("Z", dZ_aff))
            rec["t_line_search"] = time.perf_counter() - t_ls
            gap_now = self._inner(self.X, self.Z)
            gap_aff = self._inner(
                [self.X[k] + ap_aff * dX_aff[k] for k in range(self.n_blocks)],
                [self.Z[k] + ad_aff * dZ_aff[k] for k in range(self.n_blocks)],
            )
            gap_aff = max(gap_aff, 0.0)
            sigma = min(1.0, max((gap_aff / max(gap_now, 1e-300)) ** 3, 1e-8))
            rec["sigma"] = float(sigma)

            # corrector
            K_corr = [
                sigma * self.mu * np.eye(self.dims[k])
                - dX_aff[k] @ dZ_aff[k]
                for k in range(self.n_blocks)
            ]
            dX, dy, dZ = self._direction(M, M_factor, K_corr)
            if not all(
                np.all(np.isfinite(d)) for d in dX + dZ
            ) or not np.all(np.isfinite(dy)):
                self._stop(
                    SDPStatus.NUMERICAL_ERROR, "non-finite search direction"
                )
                return
            t_ls = time.perf_counter()
            ap = min(1.0, opts.step_fraction * self._max_step("X", dX))
            ad = min(1.0, opts.step_fraction * self._max_step("Z", dZ))
            rec["t_line_search"] += time.perf_counter() - t_ls
            if fired("sdp.ipm.step"):
                ap = ad = 0.0
            rec["step_primal"] = float(ap)
            rec["step_dual"] = float(ad)
            if ap <= 1e-12 and ad <= 1e-12:
                self._stop(
                    SDPStatus.NUMERICAL_ERROR,
                    "step lengths collapsed (stalled)",
                )
                return

            self.X = [
                self.X[k] + ap * dX[k] for k in range(self.n_blocks)
            ]
            self.y = self.y + ad * dy
            self.Z = [
                self.Z[k] + ad * dZ[k] for k in range(self.n_blocks)
            ]
        finally:
            rec["t"] = time.perf_counter() - self.t_start

    def finalize(self) -> SDPResult:
        pobj = self._inner(self.C, self.X)
        dobj = float(self.b @ self.y)
        status, message = self.status, self.message
        # Loose-tolerance acceptance: if we stopped on iterations/stall but
        # the iterate is essentially optimal, report it as such.
        if status in (SDPStatus.MAX_ITERATIONS, SDPStatus.NUMERICAL_ERROR):
            tol = self.opts.tolerance
            if (
                self.rel_gap < 1e5 * tol
                and self.prim_res < 1e5 * tol
                and self.dual_res < 1e5 * tol
            ):
                status = SDPStatus.OPTIMAL
                message = (message + "; accepted at loose tolerance").strip("; ")
        return SDPResult(
            status=status,
            X=self.X,
            y=self.y,
            Z=self.Z,
            primal_objective=pobj,
            dual_objective=dobj,
            gap=self.rel_gap,
            primal_residual=self.prim_res,
            dual_residual=self.dual_res,
            iterations=self.iteration,
            message=message,
            convergence_class=classify_convergence(
                self.trace.records(), tolerance=self.opts.tolerance
            ),
            ipm_trace=self.trace.records(),
            ipm_trace_dropped=self.trace.dropped,
        )
