"""Result containers for the SDP solver."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np


class SDPStatus(enum.Enum):
    """Termination status of the interior-point solver."""

    OPTIMAL = "optimal"
    PRIMAL_INFEASIBLE = "primal_infeasible"
    DUAL_INFEASIBLE = "dual_infeasible"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_ERROR = "numerical_error"
    INCONSISTENT = "inconsistent_constraints"

    @property
    def ok(self) -> bool:
        """True when a (near-)optimal primal-dual pair was produced."""
        return self is SDPStatus.OPTIMAL


@dataclass
class SDPResult:
    """Primal-dual solution returned by :func:`repro.sdp.solve_sdp`.

    Attributes
    ----------
    status:
        Termination status.
    X:
        Primal PSD blocks (empty on hard failure).
    y:
        Dual multipliers for the equality constraints of the *presolved*
        problem, expanded back to the original row count (dropped rows get 0).
    Z:
        Dual slack blocks.
    primal_objective / dual_objective:
        Objective values at termination.
    gap:
        Normalized duality gap ``<X, Z> / (1 + |p_obj| + |d_obj|)``.
    primal_residual / dual_residual:
        Normalized equality / dual feasibility residuals.
    iterations:
        IPM iterations performed.
    convergence_class:
        Verdict of :func:`repro.sdp.trace.classify_convergence` over the
        per-iteration trace (``healthy`` / ``stalling`` / ``diverging`` /
        ``ill_conditioned`` / ``unknown``).
    recovery_rung:
        Which recovery-ladder rung produced this result (``"base"`` for
        the unmodified first solve; see
        :func:`repro.resilience.recovery.solve_sdp_resilient`).
    ipm_trace:
        Per-IPM-iteration records from the ring buffer (most recent
        window; see :mod:`repro.sdp.trace` for the record schema).
    ipm_trace_dropped:
        Records evicted by the ring bound before termination.
    """

    status: SDPStatus
    X: List[np.ndarray] = field(default_factory=list)
    y: Optional[np.ndarray] = None
    Z: List[np.ndarray] = field(default_factory=list)
    primal_objective: float = float("nan")
    dual_objective: float = float("nan")
    gap: float = float("inf")
    primal_residual: float = float("inf")
    dual_residual: float = float("inf")
    iterations: int = 0
    message: str = ""
    convergence_class: str = "unknown"
    recovery_rung: str = "base"
    ipm_trace: List[Dict[str, Any]] = field(default_factory=list)
    ipm_trace_dropped: int = 0

    @property
    def feasible(self) -> bool:
        """Convenience alias for ``status.ok``."""
        return self.status.ok

    def min_eigenvalues(self) -> List[float]:
        """Smallest eigenvalue of each primal block (diagnostics)."""
        return [float(np.linalg.eigvalsh(Xk)[0]) for Xk in self.X]
