"""Certificate audit: independent numerical recheck of a synthesized BC.

A successful SNBC run ends with an SOS feasibility certificate for each
of conditions (13)-(15).  The audit answers "how much numerical headroom
does that certificate have":

* the **Gram margins** carried by the verifier's condition reports — the
  minimum Gram-matrix eigenvalue and the SOS decomposition residual
  bound of each sub-problem (how close the certificate sits to the PSD
  boundary);
* the **IPM endgame** — the interior-point solver's final duality gap and
  primal/dual residuals per sub-problem;
* a fresh **dense-grid margin** — the minimum of ``B`` over Θ, of ``-B``
  over Ξ, and of the Lie margin ``L_f B - λB`` over Ψ at every inclusion
  error endpoint, evaluated on a deterministic grid+sample point cloud.
  This recheck is independent of the SOS machinery: it evaluates the
  *polynomials* the run produced, so a bookkeeping bug anywhere in the
  SOS pipeline would surface here as a negative margin.

The artifact is a flat JSON document written next to the run's trace
(``<trace>.audit.json``) and consumed by the report CLI and the bench
regression gate.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.poly import Polynomial, lie_derivative, linf_norm
from repro.telemetry import write_json_atomic

AUDIT_SCHEMA_VERSION = 1

#: paper numbering of the condition families (matches the verifier)
PAPER_CONDITION_NUMBERS = {"init": 13, "unsafe": 14, "lie": 15}


def _base_condition(name: str) -> str:
    return "lie" if name.startswith("lie") else name


def region_points(
    region: Any, max_points: int, rng: np.random.Generator
) -> np.ndarray:
    """Deterministic evaluation cloud for one region: a regular grid over
    the bounding box filtered to the set, densified with set samples up to
    ``max_points`` (grids alone are useless past ~6 dimensions)."""
    pts_list: List[np.ndarray] = []
    bbox = getattr(region, "bounding_box", None)
    if bbox is not None:
        lo, hi = np.asarray(bbox[0], dtype=float), np.asarray(bbox[1], dtype=float)
        n = len(lo)
        per_dim = max(2, int(math.floor(max_points ** (1.0 / n))))
        axes = [np.linspace(lo[i], hi[i], per_dim) for i in range(n)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        mesh = mesh[region.contains(mesh, tol=1e-12)]
        if len(mesh):
            pts_list.append(mesh)
    n_have = sum(len(p) for p in pts_list)
    if n_have < max_points:
        pts_list.append(region.sample(max_points - n_have, rng=rng))
    return np.vstack(pts_list)


def _error_endpoints(sigma_star: Sequence[float]) -> List[Tuple[float, ...]]:
    """Sign combinations of the inclusion error bounds (the ``w`` box
    vertices the verifier certifies); ``[()]``-like single zero vector
    when every bound vanishes."""
    m = len(sigma_star)
    if m == 0 or all(s == 0.0 for s in sigma_star):
        return [tuple([0.0] * m)]
    out: List[Tuple[float, ...]] = [()]
    for s in sigma_star:
        step = [(0.0,)] if s == 0.0 else [(-s,), (+s,)]
        out = [prefix + delta for prefix in out for delta in step]
    return out


def grid_margins(
    result: Any,
    problem: Any,
    max_grid_points: int = 4096,
    seed: int = 0,
) -> Dict[str, Any]:
    """Dense-grid margins of the final candidate on Θ / Ξ / Ψ.

    The candidate is normalized to unit max-coefficient exactly like
    :meth:`repro.verifier.sos_verifier.SOSVerifier.verify`, so the margins
    are on the same scale as the verifier's ``eps`` knobs.  Positive
    margins mean the condition holds strictly on every evaluated point.
    """
    B = result.barrier
    if B is None:
        return {}
    scale = linf_norm(B)
    if scale > 0:
        B = B * (1.0 / scale)
    rng = np.random.default_rng(seed)
    out: Dict[str, Any] = {}

    theta_pts = region_points(problem.theta, max_grid_points, rng)
    out["init"] = {
        "margin": float(np.min(B(theta_pts))),
        "n_points": int(len(theta_pts)),
    }
    xi_pts = region_points(problem.xi, max_grid_points, rng)
    out["unsafe"] = {
        "margin": float(np.min(-B(xi_pts))),
        "n_points": int(len(xi_pts)),
    }

    # Lie margin at every inclusion-error endpoint, using the lambda the
    # SDP found for that endpoint's sub-problem (they may differ).
    inclusion = getattr(result, "inclusion", None)
    h_polys = inclusion.polynomials if inclusion is not None else []
    sigma = inclusion.sigma_star if inclusion is not None else []
    verification = getattr(result, "verification", None)
    lambda_polys = (
        getattr(verification, "lambda_polys", None) or {}
    ) if verification is not None else {}
    default_lam = result.lambda_poly or Polynomial.zero(B.n_vars)
    psi_pts = region_points(problem.psi, max_grid_points, rng)
    endpoints = _error_endpoints([float(s) for s in sigma])
    lie_margin = float("inf")
    for w in endpoints:
        field_polys = problem.system.closed_loop(h_polys, error=list(w))
        lfb = lie_derivative(B, field_polys)
        name = (
            "lie"
            if len(endpoints) == 1
            else f"lie[w={np.round(np.asarray(w), 6).tolist()}]"
        )
        lam = lambda_polys.get(name, default_lam)
        margin = float(np.min(lfb(psi_pts) - lam(psi_pts) * B(psi_pts)))
        lie_margin = min(lie_margin, margin)
    out["lie"] = {
        "margin": lie_margin,
        "n_points": int(len(psi_pts)),
        "n_endpoints": len(endpoints),
    }
    return out


def audit_certificate(
    result: Any,
    problem: Any,
    max_grid_points: int = 4096,
    seed: int = 0,
) -> Dict[str, Any]:
    """Build the audit artifact for one finished SNBC run.

    ``result`` is an :class:`~repro.cegis.snbc.SNBCResult` (duck-typed to
    keep this package import-light); ``problem`` the CCDS it ran on.
    Works for failed runs too — grid margins are then the margins of the
    last (rejected) candidate, which is exactly what one wants to see
    when asking why a run did not converge.
    """
    conditions: List[Dict[str, Any]] = []
    verification = getattr(result, "verification", None)
    if verification is not None:
        for rep in verification.conditions:
            conditions.append(
                {
                    "name": rep.name,
                    "paper_condition": PAPER_CONDITION_NUMBERS.get(
                        _base_condition(rep.name)
                    ),
                    "feasible": bool(rep.feasible),
                    "validated": bool(rep.validated),
                    "min_gram_eigenvalue": float(rep.min_gram_eigenvalue),
                    "residual_bound": float(rep.residual_bound),
                    "elapsed_seconds": float(rep.elapsed_seconds),
                    "sdp": {
                        "status": rep.sdp_status,
                        "iterations": int(rep.sdp_iterations),
                        "gap": float(rep.sdp_gap),
                        "primal_residual": float(rep.sdp_primal_residual),
                        "dual_residual": float(rep.sdp_dual_residual),
                        "convergence": getattr(rep, "sdp_convergence", ""),
                        "recovery_rung": getattr(rep, "sdp_recovery_rung", ""),
                    },
                }
            )
    margins = grid_margins(
        result, problem, max_grid_points=max_grid_points, seed=seed
    )

    def _finite(values: List[float], pick, default=None):
        vals = [v for v in values if math.isfinite(v)]
        return pick(vals) if vals else default

    summary = {
        "min_gram_eigenvalue": _finite(
            [c["min_gram_eigenvalue"] for c in conditions], min
        ),
        "max_residual_bound": _finite(
            [c["residual_bound"] for c in conditions], max
        ),
        "max_sdp_gap": _finite([c["sdp"]["gap"] for c in conditions], max),
        "min_grid_margin": _finite(
            [m["margin"] for m in margins.values()], min
        ),
    }
    lineage = getattr(result, "counterexamples", []) or []
    soundness = getattr(result, "soundness", None)
    return {
        "schema_version": AUDIT_SCHEMA_VERSION,
        "kind": "certificate_audit",
        "problem": getattr(result, "problem_name", "") or problem.name,
        "success": bool(result.success),
        "iterations": int(result.iterations),
        "stalled": bool(getattr(result, "stalled", False)),
        "barrier_degree": (
            int(result.barrier.degree) if result.barrier is not None else None
        ),
        "grid": {"max_points": int(max_grid_points), "seed": int(seed)},
        "conditions": conditions,
        "grid_margins": margins,
        "counterexamples": {
            "total": len(lineage),
            "resolved": sum(1 for c in lineage if c.satisfied_by_final),
        },
        # exact rational recheck (schema-additive; absent on runs that
        # never reached the soundness gate)
        "soundness": soundness.to_dict() if soundness is not None else None,
        "summary": summary,
    }


def write_audit(path: str, audit: Dict[str, Any]) -> str:
    """Atomically write an audit artifact as pretty JSON; returns the path."""
    return write_json_atomic(path, audit)


def load_audit(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        audit = json.load(fh)
    if audit.get("schema_version") != AUDIT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported audit schema_version {audit.get('schema_version')!r}"
        )
    return audit
