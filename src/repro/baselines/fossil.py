"""FOSSIL-style baseline: NN Learner + SMT-style interval Verifier.

FOSSIL (Abate et al., HSCC'21) runs a CEGIS loop where a neural barrier
candidate is checked by an SMT solver over nonlinear real arithmetic; the
solver's models become counterexamples.  This reimplementation keeps the
same Learner as SNBC (the candidate is still an exactly-polynomial
quadratic network) but verifies with the branch-and-prune delta-decision
engine — and, faithfully to FOSSIL, reasons about the *actual NN
controller* inside the Lie derivative rather than a polynomial inclusion.

The interval verifier's cost grows exponentially with dimension, which is
exactly the Table 1 phenomenon (FOSSIL rows time out for ``n_x >= 5``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.common import BaselineResult, BaselineStatus
from repro.controllers import NNController
from repro.dynamics import CCDS
from repro.learner import BarrierLearner, LearnerConfig, TrainingData
from repro.poly import Polynomial, lie_derivative
from repro.sets import SemialgebraicSet
from repro.smt import (
    BranchAndPrune,
    CheckStatus,
    Interval,
    MeanValueEnclosure,
    mlp_interval_forward,
    poly_enclosure,
)


@dataclass
class FossilConfig:
    """Budget and precision knobs for the FOSSIL-style loop."""

    max_iterations: int = 10
    n_samples: int = 500
    delta: float = 1e-2
    max_boxes_per_check: int = 60_000
    time_limit: float = 300.0  # overall wall-clock budget (the paper's OT)
    n_cex_points: int = 30
    cex_radius: float = 0.1
    seed: int = 0


class FossilBaseline:
    """CEGIS with an interval/SMT-style verifier (dReal substitute)."""

    def __init__(
        self,
        problem: CCDS,
        controller: Optional[NNController] = None,
        learner_config: Optional[LearnerConfig] = None,
        config: Optional[FossilConfig] = None,
    ):
        self.problem = problem
        self.controller = controller
        if problem.system.n_inputs > 0 and controller is None:
            raise ValueError("a controlled system needs a controller")
        self.config = config or FossilConfig()
        self.learner_config = learner_config or LearnerConfig(seed=self.config.seed)
        self.rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------
    def _lie_enclosure_fn(self, B: Polynomial, lam: Polynomial):
        """Interval extension of the Lie margin with the NN in the loop."""
        system = self.problem.system
        grad = B.grad()
        drift_term = Polynomial.zero(B.n_vars)
        for i, g in enumerate(grad):
            drift_term = drift_term + g * system.f0[i]
        gain_polys = system.input_gain_polys(grad)
        margin_base = drift_term - lam * B
        base_enclosure = MeanValueEnclosure(margin_base)

        def enclosure(lo: np.ndarray, hi: np.ndarray) -> Interval:
            total = base_enclosure(lo, hi)
            if system.n_inputs:
                u_lo, u_hi = mlp_interval_forward(self.controller.net, lo, hi)
                for j, gp in enumerate(gain_polys):
                    total = total + poly_enclosure(gp, lo, hi) * Interval(
                        float(u_lo[j]), float(u_hi[j])
                    )
            return total

        def point_eval(pts: np.ndarray) -> np.ndarray:
            vals = margin_base(pts)
            if system.n_inputs:
                u = self.controller(pts)
                for j, gp in enumerate(gain_polys):
                    vals = vals + gp(pts) * u[:, j]
            return vals

        return enclosure, point_eval

    def _region_callbacks(self, region: SemialgebraicSet):
        enclosures = [
            (lambda a, b, g=g: poly_enclosure(g, a, b)) for g in region.constraints
        ]
        return enclosures, lambda pts: region.contains(pts)

    def _check_condition(
        self, name: str, B: Polynomial, lam: Polynomial, engine: BranchAndPrune
    ):
        if name == "init":
            region = self.problem.theta
            enc = MeanValueEnclosure(B)
            pe = lambda pts: B(pts)
        elif name == "unsafe":
            region = self.problem.xi
            minus_b = -1.0 * B - 1e-6
            enc = MeanValueEnclosure(minus_b)
            pe = lambda pts: minus_b(pts)
        else:  # lie
            region = self.problem.psi
            enc, pe = self._lie_enclosure_fn(B, lam)
        region_encs, region_pt = self._region_callbacks(region)
        lo, hi = region.bounding_box
        return engine.check_forall(
            enc, pe, lo, hi, region_enclosures=region_encs, region_point=region_pt
        )

    # ------------------------------------------------------------------
    def run(self) -> BaselineResult:
        cfg = self.config
        t_start = time.perf_counter()
        data = TrainingData.sample(self.problem, cfg.n_samples, rng=self.rng)
        learner = BarrierLearner(self.problem.n_vars, self.learner_config)

        t_learn = 0.0
        t_verify = 0.0
        for iteration in range(1, cfg.max_iterations + 1):
            if time.perf_counter() - t_start > cfg.time_limit:
                return BaselineResult(
                    tool="fossil",
                    status=BaselineStatus.TIMEOUT,
                    iterations=iteration - 1,
                    learn_seconds=t_learn,
                    verify_seconds=t_verify,
                    total_seconds=time.perf_counter() - t_start,
                    message="time budget exhausted",
                )
            t0 = time.perf_counter()
            terms = self._fit(learner, data)
            t_learn += time.perf_counter() - t0

            B, lam = learner.candidate()
            t0 = time.perf_counter()
            remaining = max(1.0, cfg.time_limit - (time.perf_counter() - t_start))
            engine = BranchAndPrune(
                delta=cfg.delta,
                max_boxes=cfg.max_boxes_per_check,
                time_limit=remaining / 3.0,
                rng=self.rng,
            )
            outcomes = {}
            for cond in ("init", "unsafe", "lie"):
                outcomes[cond] = self._check_condition(cond, B, lam, engine)
                if outcomes[cond].status is not CheckStatus.PROVED:
                    break
            t_verify += time.perf_counter() - t0

            if all(
                o.status is CheckStatus.PROVED for o in outcomes.values()
            ) and len(outcomes) == 3:
                return BaselineResult(
                    tool="fossil",
                    status=BaselineStatus.SUCCESS,
                    barrier=B,
                    degree=B.degree,
                    iterations=iteration,
                    learn_seconds=t_learn,
                    verify_seconds=t_verify,
                    total_seconds=time.perf_counter() - t_start,
                )

            # counterexamples: SMT witnesses (or unknown -> treat as timeout)
            progressed = False
            for cond, outcome in outcomes.items():
                if outcome.status in (CheckStatus.VIOLATED, CheckStatus.DELTA_SAT):
                    if outcome.witness is None:
                        continue
                    points = self._cex_ball(outcome.witness, cond)
                    if cond == "init":
                        data.add_init(points)
                    elif cond == "unsafe":
                        data.add_unsafe(points)
                    else:
                        data.add_domain(points)
                    progressed = True
                elif outcome.status is CheckStatus.UNKNOWN:
                    return BaselineResult(
                        tool="fossil",
                        status=BaselineStatus.TIMEOUT,
                        iterations=iteration,
                        learn_seconds=t_learn,
                        verify_seconds=t_verify,
                        total_seconds=time.perf_counter() - t_start,
                        message=f"verifier exhausted on {cond}: {outcome.message}",
                    )
            if not progressed:
                data_extra = TrainingData.sample(
                    self.problem, cfg.n_samples // 4, rng=self.rng
                )
                data.add_domain(data_extra.s_domain)

        return BaselineResult(
            tool="fossil",
            status=BaselineStatus.FAILED,
            iterations=cfg.max_iterations,
            learn_seconds=t_learn,
            verify_seconds=t_verify,
            total_seconds=time.perf_counter() - t_start,
            message="max iterations without certificate",
        )

    # ------------------------------------------------------------------
    def _fit(self, learner: BarrierLearner, data: TrainingData):
        """Train on the true NN closed loop: field values computed with the
        controller's outputs at the sample points."""
        system = self.problem.system
        pts = data.s_domain
        if system.n_inputs:
            u = self.controller(pts)
        else:
            u = np.zeros((len(pts), 0))
        f_vals = system.rhs(pts, u)

        # the learner's loss kernel, on precomputed true-closed-loop values
        kernel = learner.loss_kernel(data, f_vals)
        last = None
        for _ in range(learner.config.epochs):
            learner.optimizer.zero_grad()
            last = kernel()
            learner.optimizer.step()
        return last

    def _cex_ball(self, center: np.ndarray, cond: str) -> np.ndarray:
        cfg = self.config
        region = {
            "init": self.problem.theta,
            "unsafe": self.problem.xi,
            "lie": self.problem.psi,
        }[cond]
        pts = center + cfg.cex_radius * self.rng.normal(
            size=(cfg.n_cex_points, center.shape[0])
        )
        keep = pts[region.contains(pts, tol=1e-9)]
        return np.vstack([center[None, :], keep])
