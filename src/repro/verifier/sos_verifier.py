"""SOS/LMI verification of barrier-certificate conditions.

One pipeline verifies a candidate: :meth:`SOSVerifier._plan` lists the
condition sub-problems (13)-(15) in serial order, still uncompiled;
:meth:`SOSVerifier._assemble` walks that plan, asks an *executor* for
each condition's SDP solve, and stops at the first failure.  The serial
executor compiles and solves on demand, so nothing after the first
failing condition is compiled or solved.  The pool executor
(``VerifierConfig.parallel``) compiles and solves the whole plan in a
process pool up front and hands back the precomputed results.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.dynamics import CCDS
from repro.poly import Polynomial, lie_derivative
from repro.resilience.faults import fault_point
from repro.resilience.recovery import RecoveryPolicy, solve_sdp_resilient
from repro.sdp import InteriorPointOptions, SDPProblem, SDPResult
from repro.sdp.svec import svec
from repro.sets import SemialgebraicSet
from repro.sos import SOSExpr, SOSProgram, validate_sos_identity
from repro.sos.program import GramBlock, SOSSolution
from repro.sos.workspace import ConditionWorkspace
from repro.soundness.certificate import (
    CertificateBundle,
    ConditionCertificate,
    MultiplierCertificate,
)
from repro.telemetry import get_telemetry
from repro.telemetry.context import (
    TraceContext,
    capture as capture_trace_context,
    merge_shard,
    worker_session,
)
from repro.telemetry.profiler import get_active_profiler


def _solve_sdp_task(
    sdp: SDPProblem,
    options: Optional[InteriorPointOptions],
    policy: Optional[RecoveryPolicy] = None,
    trace_ctx: Optional["TraceContext"] = None,
    shard_path: Optional[str] = None,
) -> SDPResult:
    """Process-pool worker: solve one compiled SDP (module-level so it
    pickles).  The recovery ladder runs inside the worker so a pool solve
    degrades exactly like a serial one.

    When the parent run is traced it ships a :class:`TraceContext` and a
    shard path: the solve then runs inside a worker-side telemetry
    session whose spans/metrics (and profiler samples, when the parent
    is profiling) land in the shard file for the parent to merge.  With
    ``trace_ctx=None`` (telemetry off) the pre-existing untraced path
    runs unchanged.
    """
    if trace_ctx is None or shard_path is None:
        return solve_sdp_resilient(sdp, options, policy)
    with worker_session(trace_ctx, shard_path):
        return solve_sdp_resilient(sdp, options, policy)


#: paper numbering of the three sub-problem families (conditions (13)-(15))
PAPER_CONDITION_NUMBERS = {"init": 13, "unsafe": 14, "lie": 15}


def _condition_base(name: str) -> str:
    """Family of a condition name: ``init``/``unsafe``/``lie``.

    Strips both endpoint tags (``lie[w=...]``) and per-cell suffixes
    (``init[cell1]``, ``lie[w=...][cell0]``) added for decomposed
    regions.
    """
    return name.split("[", 1)[0]


def _cell_name(name: str, idx: int, n_cells: int) -> str:
    """Per-cell condition name; single-cell regions keep the bare name
    so basic-set verifications are reported (and cached) exactly as
    before the region algebra existed."""
    return name if n_cells == 1 else f"{name}[cell{idx}]"


def _ws_key(base: str, idx: int, n_cells: int) -> Optional[str]:
    """Workspace-cache key for one cell of a condition's region.

    Single-cell regions keep the bare family key (``init``/``unsafe``/
    ``lie``) — the pre-region-algebra cache layout, byte for byte;
    decomposed regions get one workspace per cell because cells carry
    different constraint polynomials."""
    return None if n_cells == 1 else f"{base}#c{idx}"


#: reports appended when a condition of the key family fails: each
#: family after it in serial order is skipped as a whole
_SKIPPED_AFTER = {
    "init": (
        ("unsafe", "skipped (init failed)"),
        ("lie", "skipped (earlier failure)"),
    ),
    "unsafe": (("lie", "skipped (earlier failure)"),),
    "lie": (),
}


@dataclass
class VerifierConfig:
    """Knobs for the LMI feasibility sub-problems.

    ``eps_unsafe`` and ``eps_lie`` are the paper's strictness margins
    ``epsilon_1`` / ``epsilon_2``; ``eps_init`` adds a tiny margin to the
    non-strict condition (i) so the numerical validation has headroom.

    ``multiplier_degree`` is a *floor*: each SOS multiplier additionally
    gets at least the degree needed for its product to reach the target
    expression degree.  The default floor of 0 yields the S-procedure
    (constant multipliers) for quadratic certificates on quadratic sets —
    the cheapest sound choice, which matters in high dimension.

    Every condition SDP is solved cold by the one IPM path.  Batched
    condition solves and per-condition warm starts were measured against
    it and deleted: batching was 7-350x slower on rejected candidates
    (it solved conditions the serial walk never reaches), and warm
    starts raised summed CEGIS verifier time (6.44 s -> 6.83 s over
    C1/C3/C6/Q1 x 6 seeds).
    """

    multiplier_degree: int = 0
    lambda_degree: int = 1
    eps_init: float = 1e-4
    eps_unsafe: float = 1e-4
    eps_lie: float = 1e-4
    validate: bool = True
    psd_tolerance: float = 1e-6
    sdp_options: InteriorPointOptions = field(
        default_factory=lambda: InteriorPointOptions(max_iterations=100, tolerance=1e-8)
    )
    #: reuse the structural SOS workspace (monomial bases, Gram block
    #: layout, multiplier constraint rows) across CEGIS iterations; per
    #: candidate only the affine data is refreshed.  Result-identical to
    #: a fresh :class:`SOSProgram` build (see ``repro.sos.workspace``).
    workspace_cache: bool = True
    #: solve the independent condition SDPs (13)/(14)/(15-endpoints) in a
    #: process pool.  The pool executor compiles and solves every
    #: condition up front; the default serial executor stops at the
    #: first failing one.  Both feed the same assembly, so the
    #: :class:`VerificationResult` is identical.  Falls back to the
    #: serial executor when no pool is available.
    parallel: bool = False
    #: worker count for ``parallel`` (``None``: one per condition, capped
    #: at the CPU count)
    max_workers: Optional[int] = None
    #: SDP recovery ladder engaged when a condition solve ends in
    #: ``NUMERICAL_ERROR``/``MAX_ITERATIONS`` (see
    #: :mod:`repro.resilience.recovery`).  Healthy solves are untouched,
    #: so default-on recovery is bit-identical on converging instances.
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    #: attach a :class:`~repro.soundness.certificate.CertificateBundle`
    #: (Gram matrices, multipliers, lambda, margins, boxes) to passing
    #: verifications so :mod:`repro.soundness.checker` can re-prove the
    #: Putinar identities over ℚ.  Capture is pure bookkeeping — it never
    #: changes verdicts or solver behavior.
    capture_certificate: bool = True


@dataclass
class ConditionReport:
    """Outcome of one sub-problem (13), (14) or (15).

    Beyond the pass/fail verdict, the report carries the numerical state
    of the certificate: the a-posteriori validation numbers
    (``residual_bound``, ``min_gram_eigenvalue``) and the interior-point
    solver's final iterate (``sdp_gap`` / ``sdp_primal_residual`` /
    ``sdp_dual_residual`` / ``sdp_iterations``) so the certificate audit
    can report how close each sub-problem sits to the PSD boundary.
    """

    name: str
    feasible: bool
    validated: bool
    elapsed_seconds: float
    message: str = ""
    residual_bound: float = float("nan")
    min_gram_eigenvalue: float = float("nan")
    sdp_status: str = ""
    sdp_iterations: int = 0
    sdp_gap: float = float("nan")
    sdp_primal_residual: float = float("nan")
    sdp_dual_residual: float = float("nan")
    #: verdict of the IPM convergence classifier over the per-iteration
    #: trace (see :mod:`repro.sdp.trace`)
    sdp_convergence: str = ""
    #: which recovery-ladder rung produced the accepted solve
    sdp_recovery_rung: str = ""

    @property
    def ok(self) -> bool:
        return self.feasible and self.validated


@dataclass
class VerificationResult:
    """Aggregate outcome across all sub-problems.

    ``lambda_polys`` maps each Lie sub-problem name to the multiplier the
    SDP found for it.  A *different* lambda per inclusion-error endpoint is
    sound: the invariance argument only needs ``Bdot > 0`` on the zero
    level set of ``B``, where the ``lambda B`` term vanishes, and there the
    affine-in-``w`` derivative is positive at both endpoints hence for all
    intermediate ``w``.  The same argument covers a different lambda per
    decomposed-region *cell* (``lie[cell0]``, ``lie[cell1]``, ...): the
    pointwise requirement holds on every cell, and the cells cover Psi.
    """

    ok: bool
    conditions: List[ConditionReport]
    elapsed_seconds: float
    lambda_poly: Optional[Polynomial] = None
    lambda_polys: Optional[dict] = None
    #: Gram-level evidence for the exact rational recheck; present on
    #: passing verifications when ``VerifierConfig.capture_certificate``
    certificate: Optional[CertificateBundle] = None

    def failed_conditions(self) -> List[str]:
        return [c.name for c in self.conditions if not c.ok]


@dataclass
class _Condition:
    """One entry of the verification plan: the Putinar certificate
    ``expr_known - sum sigma_i g_i - margin (+ lambda * B) in SOS`` on
    ``region``, not yet compiled to an SDP."""

    name: str
    expr_known: Polynomial
    region: SemialgebraicSet
    margin: float
    #: the candidate ``B`` a free multiplier ``lambda`` multiplies
    #: (Lie condition (15) only)
    free_lambda_times: Optional[Polynomial] = None
    #: inclusion-error endpoint the Lie condition is certified at
    #: (empty for init/unsafe)
    endpoint: Tuple[float, ...] = ()
    #: workspace-cache key (see :func:`_ws_key`)
    ws_key: Optional[str] = None

    @property
    def base(self) -> str:
        return _condition_base(self.name)


@dataclass
class _PreparedCondition:
    """One compiled condition SDP, ready to solve (serially or in a pool)."""

    cond: _Condition
    prog: SOSProgram
    multipliers: List[SOSExpr]
    lam_expr: Optional[SOSExpr]
    slack: GramBlock
    sdp: SDPProblem
    Bf: np.ndarray
    r: np.ndarray
    G: np.ndarray


#: an executor: the (compiled condition, SDP solve) pair for one plan entry
_Executor = Callable[[_Condition], Tuple[_PreparedCondition, SDPResult]]


class SOSVerifier:
    """Checks Theorem 1's conditions for a *known* candidate ``B``.

    Parameters
    ----------
    problem:
        The CCDS safety instance (system + Theta/Psi/Xi).
    controller_polys:
        Polynomial inclusion ``h`` of the NN controller (one per input).
    sigma_star:
        Inclusion error bounds per input; the Lie condition is certified at
        every sign combination of the endpoints (2^m LMIs; m is 1 in all
        Table 1 benchmarks).
    """

    def __init__(
        self,
        problem: CCDS,
        controller_polys: Sequence[Polynomial],
        sigma_star: Optional[Sequence[float]] = None,
        config: Optional[VerifierConfig] = None,
    ):
        self.problem = problem
        self.controller_polys = list(controller_polys)
        m = problem.system.n_inputs
        if len(self.controller_polys) != m:
            raise ValueError(f"need {m} controller polynomials")
        self.sigma_star = (
            [0.0] * m if sigma_star is None else [float(s) for s in sigma_star]
        )
        if len(self.sigma_star) != m:
            raise ValueError("sigma_star length mismatch")
        if m > 4 and any(s > 0 for s in self.sigma_star):
            raise ValueError(
                "endpoint enumeration over >4 inputs is intractable; tighten "
                "the inclusion to sigma*=0 or reduce inputs"
            )
        self.config = config or VerifierConfig()
        #: condition base name -> cached :class:`ConditionWorkspace`
        self._workspaces: Dict[str, ConditionWorkspace] = {}

    # ------------------------------------------------------------------
    def _multiplier_degree(self, target: int, g: Polynomial) -> int:
        """Degree for an SOS multiplier of constraint ``g`` so the product
        reaches (at least) the target degree, floored by the config."""
        need = max(0, target - g.degree)
        need += need % 2  # SOS degrees are even
        return max(self.config.multiplier_degree, need)

    def _prepare(self, cond: _Condition) -> _PreparedCondition:
        """Build the SDP for ``expr - sum sigma_i g_i - margin (+ lambda *
        B) in SOS``, through the cached workspace when enabled.

        ``cond.ws_key`` scopes the workspace cache: cells of a decomposed
        region carry different constraint polynomials, so each cell gets
        its own workspace (endpoints of the same cell still share one).
        """
        cfg = self.config
        tel = get_telemetry()
        n = self.problem.n_vars
        target_deg = cond.expr_known.degree
        if cond.free_lambda_times is not None:
            target_deg = max(
                target_deg, cfg.lambda_degree + cond.free_lambda_times.degree
            )
        mult_degs = [
            self._multiplier_degree(target_deg, g)
            for g in cond.region.constraints
        ]
        if cfg.workspace_cache:
            lam_deg = (
                cfg.lambda_degree if cond.free_lambda_times is not None else None
            )
            cache_key = cond.ws_key if cond.ws_key is not None else cond.base
            ws = self._workspaces.get(cache_key)
            if ws is None or not ws.matches(mult_degs, lam_deg):
                ws = ConditionWorkspace(
                    n, cond.region.constraints, mult_degs, lam_deg
                )
                self._workspaces[cache_key] = ws
                tel.metrics.inc("verifier.workspace.misses")
            else:
                tel.metrics.inc("verifier.workspace.hits")
            varying = SOSExpr.from_polynomial(cond.expr_known - cond.margin)
            if ws.lam_expr is not None:
                varying = varying - ws.lam_expr * cond.free_lambda_times
            sdp, Bf, r, G = ws.compile(varying)
            assert ws.slack_block is not None
            return _PreparedCondition(
                cond, ws.program, ws.multipliers, ws.lam_expr, ws.slack_block,
                sdp, Bf, r, G,
            )
        prog = SOSProgram(n)
        expr = SOSExpr.from_polynomial(cond.expr_known - cond.margin)
        multipliers = []
        for g, deg in zip(cond.region.constraints, mult_degs):
            s = prog.sos_poly(deg, label="sigma")
            multipliers.append(s)
            expr = expr - s * g
        lam_expr = None
        if cond.free_lambda_times is not None:
            lam_expr = prog.free_poly(cfg.lambda_degree, label="lambda")
            expr = expr - lam_expr * cond.free_lambda_times
        # the slack degree must cover the full expression including the
        # multiplier products sigma_i * g_i (expr.degree accounts for them)
        slack = prog.require_sos(expr)
        sdp, Bf, r, G = prog.compile()
        return _PreparedCondition(
            cond, prog, multipliers, lam_expr, slack, sdp, Bf, r, G
        )

    def _condition_box(
        self, region: SemialgebraicSet
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Bounding box the region's validation grid / exact recheck use."""
        if region.bounding_box is not None:
            return region.bounding_box
        n = self.problem.n_vars  # pragma: no cover - all paper sets bounded
        return -np.ones(n) * 1e3, np.ones(n) * 1e3

    def _capture(
        self,
        prep: _PreparedCondition,
        sol: SOSSolution,
        lam_poly: Optional[Polynomial],
    ) -> ConditionCertificate:
        """Snapshot the Gram-level evidence of one passing condition."""
        cond = prep.cond
        multipliers: List[MultiplierCertificate] = []
        for s, g in zip(prep.multipliers, cond.region.constraints):
            # every monomial of an sos_poly expression references the same
            # Gram block, so any gram key identifies it
            bid = next(
                bid
                for lc in s.coeffs.values()
                for (bid, _i, _j) in lc.gram
            )
            block = prep.prog._blocks[bid]
            multipliers.append(
                MultiplierCertificate(
                    constraint=g,
                    basis=tuple(block.basis),
                    gram=np.array(sol.gram(bid), dtype=float),
                )
            )
        lo, hi = self._condition_box(cond.region)
        return ConditionCertificate(
            name=cond.name,
            base=cond.base,
            margin=float(cond.margin),
            endpoint=tuple(float(w) for w in cond.endpoint),
            slack_basis=tuple(prep.slack.basis),
            slack_gram=np.array(sol.gram(prep.slack.block_id), dtype=float),
            multipliers=multipliers,
            lambda_poly=lam_poly,
            box_lo=tuple(float(v) for v in lo),
            box_hi=tuple(float(v) for v in hi),
        )

    def _finish(
        self,
        prep: _PreparedCondition,
        result: SDPResult,
        t0: float,
        span=None,
    ) -> Tuple[
        ConditionReport, Optional[Polynomial], Optional[ConditionCertificate]
    ]:
        """Free-variable recovery, a-posteriori validation and reporting
        for one solved condition (mirrors :meth:`SOSProgram.solve`)."""
        cfg = self.config
        tel = get_telemetry()
        cond, prog = prep.cond, prep.prog
        name, base = cond.name, cond.base
        free_values = np.zeros(prog._n_free)
        if result.status.ok and prog._n_free > 0:
            q_flat = np.concatenate([svec(X) for X in result.X])
            resid = prep.r - prep.G @ q_flat
            free_values, *_ = np.linalg.lstsq(prep.Bf, resid, rcond=None)
        sol = SOSSolution(prog, result, free_values)
        elapsed = time.perf_counter() - t0
        sdp = sol.sdp_result
        sdp_stats = dict(
            sdp_status=sdp.status.value,
            sdp_iterations=sdp.iterations,
            sdp_gap=float(sdp.gap),
            sdp_primal_residual=float(sdp.primal_residual),
            sdp_dual_residual=float(sdp.dual_residual),
            sdp_convergence=getattr(sdp, "convergence_class", ""),
            sdp_recovery_rung=getattr(sdp, "recovery_rung", ""),
        )
        if span is not None:
            span.set_attrs(
                sdp_convergence=sdp_stats["sdp_convergence"],
                sdp_recovery_rung=sdp_stats["sdp_recovery_rung"],
            )
        if not sol.feasible:
            message = f"SDP status: {sol.status.value} ({sol.sdp_result.message})"
            if span is not None:
                span.set_attrs(feasible=False, validated=False, message=message)
            tel.metrics.inc(f"verifier.infeasible.{base}")
            return (
                ConditionReport(
                    name=name,
                    feasible=False,
                    validated=False,
                    elapsed_seconds=elapsed,
                    message=message,
                    **sdp_stats,
                ),
                None,
                None,
            )
        lam_poly = sol.value(prep.lam_expr) if prep.lam_expr is not None else None
        if not cfg.validate:
            if span is not None:
                span.set_attrs(feasible=True, validated=True)
            cert = (
                self._capture(prep, sol, lam_poly)
                if cfg.capture_certificate
                else None
            )
            return (
                ConditionReport(
                    name, True, True, elapsed, "validation skipped",
                    **sdp_stats,
                ),
                lam_poly,
                cert,
            )
        # rebuild the fully-substituted LHS and validate the identity
        realized = cond.expr_known - cond.margin
        for s, g in zip(prep.multipliers, cond.region.constraints):
            realized = realized - sol.value(s) * g
        if lam_poly is not None:
            realized = realized - lam_poly * cond.free_lambda_times
        lo, hi = self._condition_box(cond.region)
        report = validate_sos_identity(
            realized,
            prep.slack,
            sol.gram(prep.slack.block_id),
            lo,
            hi,
            margin=cond.margin if cond.margin > 0 else 1e-6,
            psd_tolerance=cfg.psd_tolerance,
            extra_grams=[
                sol.gram(b.block_id)
                for b in prog._blocks
                if b.block_id != prep.slack.block_id
            ],
        )
        elapsed = time.perf_counter() - t0
        if span is not None:
            span.set_attrs(
                feasible=True, validated=report.ok, message=report.notes
            )
        if not report.ok:
            tel.metrics.inc(f"verifier.validation_failed.{base}")
        cert = (
            self._capture(prep, sol, lam_poly)
            if (report.ok and cfg.capture_certificate)
            else None
        )
        return (
            ConditionReport(
                name=name,
                feasible=True,
                validated=report.ok,
                elapsed_seconds=elapsed,
                message=report.notes,
                residual_bound=report.residual_bound,
                min_gram_eigenvalue=report.min_eigenvalue,
                **sdp_stats,
            ),
            lam_poly,
            cert,
        )

    # ------------------------------------------------------------------
    def verify(self, B: Polynomial) -> VerificationResult:
        """Run all sub-problems for candidate ``B``; all must pass.

        ``B`` is normalized to unit max-coefficient first — barrier
        conditions are scale-invariant and learned candidates can carry
        badly-scaled coefficients that stall the interior-point solver.
        """
        if B.n_vars != self.problem.n_vars:
            raise ValueError("candidate dimension mismatch")
        from repro.poly import linf_norm

        scale = linf_norm(B)
        if scale > 0:
            B = B * (1.0 / scale)
        t0 = time.perf_counter()
        plan: Iterable[_Condition] = self._plan(B)
        execute: _Executor = self._solve_condition
        if self.config.parallel:
            plan = list(plan)
            pooled = self._pool_executor(plan)
            if pooled is not None:  # else: no pool -> the serial executor
                execute = pooled
        return self._assemble(plan, execute, B, t0, scale)

    def _bundle(
        self,
        B: Polynomial,
        scale: float,
        certs: List[ConditionCertificate],
    ) -> Optional[CertificateBundle]:
        """Assemble the per-candidate bundle from passing-condition
        certificates (``B`` is the normalized candidate they certify)."""
        if not self.config.capture_certificate or not certs:
            return None
        return CertificateBundle(
            barrier=B,
            barrier_scale=float(scale) if scale > 0 else 1.0,
            controller_polys=list(self.controller_polys),
            sigma_star=list(self.sigma_star),
            conditions=certs,
        )

    def _plan(self, B: Polynomial) -> Iterator[_Condition]:
        """The condition sub-problems for candidate ``B``, in serial order.

        (13) ``B >= 0`` on every Theta cell, (14) ``-B - eps1 >= 0`` on
        every Xi cell, then (15) the Lie condition at every
        inclusion-error endpoint on every Psi cell.  A composite region
        passes only when every cell does (the cells cover the region, so
        the conjunction implies the condition).  The plan is lazy: a
        region is decomposed, and a Lie derivative formed, only when the
        walk reaches it.
        """
        cfg = self.config
        theta_cells = self.problem.theta.decompose()
        for ci, cell in enumerate(theta_cells):
            yield _Condition(
                _cell_name("init", ci, len(theta_cells)), B, cell,
                cfg.eps_init, ws_key=_ws_key("init", ci, len(theta_cells)),
            )
        xi_cells = self.problem.xi.decompose()
        for ci, cell in enumerate(xi_cells):
            yield _Condition(
                _cell_name("unsafe", ci, len(xi_cells)), -1.0 * B, cell,
                cfg.eps_unsafe, ws_key=_ws_key("unsafe", ci, len(xi_cells)),
            )
        endpoints = self._error_endpoints()
        psi_cells = self.problem.psi.decompose()
        for w in endpoints:
            field_polys = self.problem.system.closed_loop(
                self.controller_polys, error=list(w)
            )
            lfb = lie_derivative(B, field_polys)
            ename = (
                "lie" if len(endpoints) == 1 else f"lie[w={np.round(w, 6).tolist()}]"
            )
            for ci, cell in enumerate(psi_cells):
                yield _Condition(
                    _cell_name(ename, ci, len(psi_cells)), lfb, cell,
                    cfg.eps_lie, free_lambda_times=B, endpoint=w,
                    ws_key=_ws_key("lie", ci, len(psi_cells)),
                )

    def _solve_condition(
        self, cond: _Condition
    ) -> Tuple[_PreparedCondition, SDPResult]:
        """The serial executor: compile ``cond`` and solve it now."""
        cfg = self.config
        prep = self._prepare(cond)
        return prep, solve_sdp_resilient(prep.sdp, cfg.sdp_options, cfg.recovery)

    def _pool_executor(self, plan: List[_Condition]) -> Optional[_Executor]:
        """The pool executor: compile every condition of ``plan`` and
        solve them all concurrently in a process pool, then serve the
        precomputed results.  ``None`` when the pool cannot be created or
        a worker dies — the caller then falls back to the serial
        executor."""
        cfg = self.config
        tel = get_telemetry()
        preps = [self._prepare(cond) for cond in plan]

        # trace propagation: when this run is traced, each submission
        # carries a TraceContext and a shard file the worker's session
        # writes; the shards are merged back below (also after a crash,
        # so completed workers' spans survive a broken pool).  Untraced
        # runs submit with ctx=None and the worker solves untraced.
        profile_workers = get_active_profiler() is not None
        shard_dir: Optional[str] = None
        shards: List[Tuple[Optional[TraceContext], Optional[str]]] = []
        if capture_trace_context() is not None:
            import tempfile

            shard_dir = tempfile.mkdtemp(prefix="repro-verify-shards-")
        for i, p in enumerate(preps):
            if shard_dir is None:
                shards.append((None, None))
            else:
                shards.append((
                    capture_trace_context(shard_index=i, profile=profile_workers),
                    os.path.join(shard_dir, f"shard-{i}.jsonl"),
                ))

        def merge_worker_shards() -> None:
            if shard_dir is None:
                return
            for _, shard_path in shards:
                if shard_path is not None:
                    merge_shard(tel, shard_path)
            try:
                os.rmdir(shard_dir)
            except OSError:
                pass

        try:
            import concurrent.futures
            from concurrent.futures.process import BrokenProcessPool

            max_workers = cfg.max_workers or min(len(preps), os.cpu_count() or 1)
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=max_workers
            ) as pool:
                futures = []
                for i, (p, (ctx, shard_path)) in enumerate(zip(preps, shards)):
                    tel.status_worker(i, state="submitted", task=p.cond.name)
                    futures.append(pool.submit(
                        _solve_sdp_task, p.sdp, cfg.sdp_options, cfg.recovery,
                        ctx, shard_path,
                    ))
                fault_point("verifier.pool")
                results = []
                for i, f in enumerate(futures):
                    results.append(f.result())
                    tel.status_worker(i, state="done")
        except BrokenProcessPool as exc:
            # a worker died mid-solve (e.g. OOM-killed): classify, then
            # degrade to the serial path — same result, just slower
            tel.metrics.inc("verifier.pool.worker_crashes")
            tel.metrics.inc("verifier.pool.fallbacks")
            tel.event(
                "verifier.worker_crash",
                error=f"{type(exc).__name__}: {exc}",
                n_conditions=len(preps),
            )
            merge_worker_shards()
            return None
        except Exception:
            tel.metrics.inc("verifier.pool.fallbacks")
            merge_worker_shards()
            return None
        merge_worker_shards()
        tel.metrics.inc("verifier.pool.tasks", len(preps))
        solved = {p.cond.name: (p, res) for p, res in zip(preps, results)}
        return lambda cond: solved[cond.name]

    def _assemble(
        self,
        plan: Iterable[_Condition],
        execute: _Executor,
        B: Polynomial,
        t0: float,
        scale: float,
    ) -> VerificationResult:
        """Walk ``plan`` in serial order, finishing each condition from
        the solve ``execute`` returns for it.

        The walk stops at the first failing condition; every family
        after it gets one "skipped" report (unsafe after an init
        failure, the Lie family after any earlier failure), so
        ``execute`` is never asked for a condition past the first
        failure.
        """
        tel = get_telemetry()
        reports: List[ConditionReport] = []
        certs: List[ConditionCertificate] = []
        lambda_poly: Optional[Polynomial] = None
        lambda_polys: dict = {}
        for cond in plan:
            t_cond = time.perf_counter()
            with tel.span(
                "verifier.condition",
                condition=cond.name,
                paper_condition=PAPER_CONDITION_NUMBERS.get(cond.base),
            ) as span:
                prep, result = execute(cond)
                rep, lam, cert = self._finish(prep, result, t_cond, span=span)
            reports.append(rep)
            if cert is not None:
                certs.append(cert)
            if lam is not None:
                lambda_polys[cond.name] = lam
                if lambda_poly is None:
                    lambda_poly = lam
            if not rep.ok:
                reports.extend(
                    ConditionReport(family, False, False, 0.0, message)
                    for family, message in _SKIPPED_AFTER[cond.base]
                )
                break
        ok = all(r.ok for r in reports)
        tel.metrics.inc("verifier.verifications")
        if not ok:
            tel.metrics.inc("verifier.rejections")
        return VerificationResult(
            ok=ok,
            conditions=reports,
            elapsed_seconds=time.perf_counter() - t0,
            lambda_poly=lambda_poly,
            lambda_polys=lambda_polys or None,
            certificate=self._bundle(B, scale, certs) if ok else None,
        )

    def _error_endpoints(self) -> List[Tuple[float, ...]]:
        """Sign combinations of the inclusion error endpoints (vertices of
        the ``w`` box); a single ``(0, ..., 0)`` when all errors vanish."""
        m = self.problem.system.n_inputs
        if m == 0 or all(s == 0.0 for s in self.sigma_star):
            return [tuple([0.0] * m)]
        out: List[Tuple[float, ...]] = []

        def rec(prefix: List[float], j: int) -> None:
            if j == m:
                out.append(tuple(prefix))
                return
            s = self.sigma_star[j]
            if s == 0.0:
                rec(prefix + [0.0], j + 1)
            else:
                rec(prefix + [-s], j + 1)
                rec(prefix + [+s], j + 1)

        rec([], 0)
        return out
