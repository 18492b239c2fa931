"""Differential oracles: independent implementations must agree.

A cross-check pairing a fast/structured implementation with a
slower/simpler one on the *same* input:

* **SOS vs interval** — when :class:`~repro.verifier.sos_verifier.
  SOSVerifier` accepts a candidate barrier, the branch-and-prune
  interval verifier must not find a concrete *violation* of any of the
  conditions (13)-(15) on the same candidate with the same multipliers.
  The check is one-sided by design: SOS acceptance is a proof, so a
  concrete counterexample refutes the pipeline; interval UNKNOWN /
  delta-sat outcomes and SOS *rejections* are not disagreements (the two
  verifiers have incomparable incompleteness).

Disagreements are minimized (via :func:`repro.soundness.strategies.
greedy_shrink` when a shrinker is available) and dumped as JSON repro
cases under ``results/soundness_repros/``.

This module imports ``repro.verifier`` — import it explicitly
(``from repro.soundness import oracles``); it is deliberately NOT
re-exported from ``repro.soundness.__init__`` (import cycle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.poly import Polynomial
from repro.soundness.strategies import describe, dump_repro

__all__ = [
    "OracleDisagreement",
    "VerifierComparison",
    "compare_verifiers",
    "numeric_gradient",
]


def numeric_gradient(
    fn: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of a scalar function — the slowest,
    simplest reference every autodiff oracle ultimately anchors to."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        g[idx] = (fn(xp) - fn(xm)) / (2 * eps)
        it.iternext()
    return g


@dataclass
class OracleDisagreement:
    """One cross-implementation conflict, with enough context to replay."""

    oracle: str
    detail: str
    payload: Dict[str, Any] = field(default_factory=dict)
    dump_path: Optional[str] = None

    def __str__(self) -> str:  # pragma: no cover - message formatting
        msg = f"[{self.oracle}] {self.detail}"
        if self.dump_path:
            msg += f" (repro: {self.dump_path})"
        return msg


# ----------------------------------------------------------------------
# SOS verifier  vs  interval verifier
# ----------------------------------------------------------------------
@dataclass
class VerifierComparison:
    """Outcome of one SOS-vs-interval differential run."""

    sos_ok: bool
    interval_outcomes: Dict[str, str]
    disagreements: List[OracleDisagreement]

    @property
    def ok(self) -> bool:
        return not self.disagreements


def compare_verifiers(
    problem: Any,
    B: Polynomial,
    controller_polys: Sequence[Polynomial] = (),
    sigma_star: Optional[Sequence[float]] = None,
    sos_config: Any = None,
    interval_config: Any = None,
    dump: bool = True,
    dump_tag: str = "",
) -> VerifierComparison:
    """Run both verifiers on the same candidate and reconcile verdicts.

    A disagreement is recorded when the SOS verifier *accepts* ``B`` but
    branch-and-prune finds a VIOLATED condition — i.e. a concrete point
    refuting a claimed proof.  The interval pass reuses the SOS run's
    synthesized ``lambda`` so both check the identical Lie inequality.
    """
    from repro.smt.bnp import CheckStatus
    from repro.verifier.interval_verifier import IntervalVerifier
    from repro.verifier.sos_verifier import SOSVerifier

    sos = SOSVerifier(
        problem, controller_polys, sigma_star=sigma_star, config=sos_config
    )
    verification = sos.verify(B)

    lam = None
    lambda_polys = getattr(verification, "lambda_polys", None) or {}
    if lambda_polys:
        lam = next(iter(lambda_polys.values()))

    interval = IntervalVerifier(
        problem,
        controller_polys=controller_polys,
        sigma_star=sigma_star,
        config=interval_config,
    )
    iv = interval.verify(B, lambda_poly=lam)

    outcomes = {
        name: out.status.name for name, out in iv.outcomes.items()
    }
    disagreements: List[OracleDisagreement] = []
    if verification.ok:
        for name, out in iv.outcomes.items():
            if out.status is not CheckStatus.VIOLATED:
                continue
            detail = (
                f"SOS proved candidate but interval verifier found a "
                f"violation of {name!r} at {out.witness} "
                f"(value {out.witness_value})"
            )
            payload = {
                "oracle": "sos_vs_interval",
                "condition": name,
                "witness": describe(out.witness),
                "witness_value": out.witness_value,
                "barrier": describe(B),
                "controller_polys": describe(list(controller_polys)),
                "sigma_star": list(sigma_star or ()),
                "problem": getattr(problem, "name", ""),
                "interval_outcomes": outcomes,
            }
            path = None
            if dump:
                tag = dump_tag or getattr(problem, "name", "case")
                path = dump_repro(f"sos-vs-interval-{tag}-{name}", payload)
            disagreements.append(
                OracleDisagreement(
                    oracle="sos_vs_interval",
                    detail=detail,
                    payload=payload,
                    dump_path=path,
                )
            )
    return VerifierComparison(
        sos_ok=bool(verification.ok),
        interval_outcomes=outcomes,
        disagreements=disagreements,
    )
