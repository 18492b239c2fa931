"""The hot-path microbench suite behind ``BENCH_perf.json``.

Each microbench times one hot path of the pipeline twice — with the
performance layer enabled (``seconds``) and with every optimization
disabled (``reference_seconds``) — and records whether the two paths
produced *identical* results.  The four benches:

* ``train_epoch`` — Learner epochs (the coefficient-space loss kernel)
  with the compile-field cache on vs off;
* ``verify_iteration`` — repeated verification of one candidate with
  the default verifier (cached SOS workspaces) against a fresh symbolic
  build per call.  Both run the one solver path, so identity is bitwise
  (every condition report field, timings aside);
* ``cex_search`` — counterexample ascent with/without compiled batched
  kernels (the one opt-in path: not bitwise, so identity is reported as
  a tolerance check, and the optimization defaults off);
* ``e2e_c1`` — the full C1 CEGIS loop, with the CEGIS outcome,
  iteration count and final certificate compared across variants.

The suite's ``BENCH_perf`` document (envelope and loader in
:mod:`repro.diagnostics.bench`) carries one ``benches`` row per bench::

    "<name>": {
      "seconds": <optimized>,
      "reference_seconds": <all optimizations off>,
      "speedup": <reference/optimized>,
      "identical": true,          # hard-gated by regress
      "correctness": {...} | null # e2e only: outcome/iterations/...
    }

``python -m repro.diagnostics.regress`` gates two such documents: loose
on timings (they are machine-dependent), hard on ``identical`` flags
and on the e2e correctness row.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.diagnostics.bench import bench_document


def _timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _row(
    t_opt: float, t_ref: float, identical: bool, correctness: Optional[dict] = None
) -> Dict[str, Any]:
    return {
        "seconds": round(t_opt, 6),
        "reference_seconds": round(t_ref, 6),
        "speedup": round(t_ref / t_opt, 3) if t_opt > 0 else None,
        "identical": bool(identical),
        "correctness": correctness,
    }


# ----------------------------------------------------------------------
# the benches
# ----------------------------------------------------------------------
def bench_train_epoch(epochs: int = 200) -> Dict[str, Any]:
    """Learner epochs on a C1-sized problem with the compile-field cache
    on vs off; both run the one loss kernel, so identity is bitwise."""
    from repro.benchmarks import get_benchmark
    from repro.learner import BarrierLearner, LearnerConfig, TrainingData
    from repro.poly import Polynomial
    from repro.poly.fast_eval import clear_compile_cache, set_compile_cache_enabled

    spec = get_benchmark("C1")
    problem = spec.make_problem()
    data = TrainingData.sample(problem, 300, rng=np.random.default_rng(0))
    zero = Polynomial.constant(problem.n_vars, 0.0)
    field = problem.system.closed_loop([zero] * problem.system.n_inputs)

    def run(cache: bool):
        old = set_compile_cache_enabled(cache)
        clear_compile_cache()
        try:
            learner = BarrierLearner(
                problem.n_vars, config=LearnerConfig(epochs=epochs, seed=3)
            )
            learner.fit(data, field)
            return learner
        finally:
            set_compile_cache_enabled(old)

    t_opt, a = _timed(lambda: run(True))
    t_ref, b = _timed(lambda: run(False))
    identical = all(
        np.array_equal(p.data, q.data) for p, q in zip(a._params, b._params)
    ) and [t.total for t in a.loss_history] == [t.total for t in b.loss_history]
    return _row(t_opt, t_ref, identical)


def bench_verify_iteration(repeats: int = 5) -> Dict[str, Any]:
    """Repeated verification of a fixed candidate: the default verifier
    (workspace cache) vs a fresh symbolic build per call.  Bitwise
    identity is required."""
    from repro.benchmarks import get_benchmark
    from repro.cegis import SNBC
    from repro.verifier import SOSVerifier, VerifierConfig

    spec = get_benchmark("C1")
    problem = spec.make_problem()
    result = SNBC(problem, controller=spec.make_controller()).run()
    B = result.barrier
    h_polys = result.inclusion.polynomials
    sigma = result.inclusion.sigma_star

    def run(optimized: bool):
        config = VerifierConfig(workspace_cache=optimized)
        v = SOSVerifier(problem, h_polys, sigma, config=config)
        v.verify(B)  # fill the workspace cache off the clock
        return v

    def measure(v):
        return [v.verify(B) for _ in range(repeats)]

    v_opt, v_ref = run(True), run(False)
    t_opt, rs_a = _timed(lambda: measure(v_opt))
    t_ref, rs_b = _timed(lambda: measure(v_ref))
    identical = all(
        _verification_identical(x, y) for x, y in zip(rs_a, rs_b)
    )
    return _row(t_opt, t_ref, identical)


def bench_cex_search(repeats: int = 3) -> Dict[str, Any]:
    """Counterexample ascent on a failing candidate: compiled batched
    kernels vs the sparse per-polynomial loops.  Not bitwise — identity
    here means the worst violation magnitudes agree to 1e-9."""
    from repro.benchmarks import get_benchmark
    from repro.cegis.counterexamples import CexConfig, CounterexampleGenerator
    from repro.poly import Polynomial

    spec = get_benchmark("C1")
    problem = spec.make_problem()
    n = problem.n_vars
    # deliberately bad candidate so every condition yields a search
    B = Polynomial.constant(n, 0.1)
    for i in range(n):
        B = B - 0.8 * Polynomial.variable(n, i) ** 2
    lam = Polynomial.constant(n, -0.1)

    h_zero = [Polynomial.constant(n, 0.0)] * problem.system.n_inputs

    def run(compiled: bool):
        gen = CounterexampleGenerator(
            problem, h_zero, config=CexConfig(seed=0, compiled_kernels=compiled)
        )
        out = []
        for _ in range(repeats):
            out.extend(gen.generate(B, lam, ["init", "unsafe", "lie"]))
        return out

    t_opt, cex_a = _timed(lambda: run(True))
    t_ref, cex_b = _timed(lambda: run(False))
    identical = len(cex_a) == len(cex_b) and all(
        x.condition == y.condition
        and abs(x.worst_violation - y.worst_violation) < 1e-9
        for x, y in zip(cex_a, cex_b)
    )
    return _row(t_opt, t_ref, identical)


def bench_e2e_c1() -> Dict[str, Any]:
    """Full C1 CEGIS loop with the performance layer on vs off; the
    outcome, iteration count and final certificate must agree."""
    from repro.benchmarks import get_benchmark
    from repro.cegis import SNBC
    from repro.learner import LearnerConfig
    from repro.poly.fast_eval import clear_compile_cache, set_compile_cache_enabled
    from repro.verifier import VerifierConfig

    def run(optimized: bool):
        old = set_compile_cache_enabled(optimized)
        clear_compile_cache()
        try:
            spec = get_benchmark("C1")
            snbc = SNBC(
                spec.make_problem(),
                controller=spec.make_controller(),
                verifier_config=VerifierConfig(
                    lambda_degree=1, workspace_cache=optimized
                ),
                learner_config=LearnerConfig(
                    seed=0, incremental_field_values=optimized
                ),
            )
            return snbc.run()
        finally:
            set_compile_cache_enabled(old)

    t_opt, r_opt = _timed(lambda: run(True))
    t_ref, r_ref = _timed(lambda: run(False))
    identical = (
        r_opt.success == r_ref.success
        and r_opt.iterations == r_ref.iterations
        and (r_opt.barrier is None) == (r_ref.barrier is None)
        and (
            r_opt.barrier is None
            or r_opt.barrier.coeffs == r_ref.barrier.coeffs
        )
        and _verification_identical(r_opt.verification, r_ref.verification)
    )
    correctness = {
        "outcome": "success" if r_opt.success else "failure",
        "reference_outcome": "success" if r_ref.success else "failure",
        "iterations": int(r_opt.iterations),
        "reference_iterations": int(r_ref.iterations),
        "certificate_identical": bool(
            r_opt.barrier is not None
            and r_ref.barrier is not None
            and r_opt.barrier.coeffs == r_ref.barrier.coeffs
        ),
    }
    return _row(t_opt, t_ref, identical, correctness)


def _verification_identical(a: Any, b: Any) -> bool:
    """Field-by-field VerificationResult equality, timings aside."""
    if a is None or b is None:
        return a is b
    if a.ok != b.ok or len(a.conditions) != len(b.conditions):
        return False
    for x, y in zip(a.conditions, b.conditions):
        if (
            x.name != y.name
            or x.feasible != y.feasible
            or x.validated != y.validated
            or x.message != y.message
            or x.sdp_status != y.sdp_status
            or x.sdp_iterations != y.sdp_iterations
        ):
            return False
        for f in (
            "residual_bound",
            "min_gram_eigenvalue",
            "sdp_gap",
            "sdp_primal_residual",
            "sdp_dual_residual",
        ):
            xa, ya = getattr(x, f), getattr(y, f)
            if not (xa == ya or (np.isnan(xa) and np.isnan(ya))):
                return False
    return True


def run_suite(scale: str = "smoke") -> Dict[str, Any]:
    """Run every microbench; returns the full BENCH_perf document."""
    benches = {
        "train_epoch": bench_train_epoch(),
        "verify_iteration": bench_verify_iteration(),
        "cex_search": bench_cex_search(),
        "e2e_c1": bench_e2e_c1(),
    }
    return bench_document("BENCH_perf", scale, benches=benches)
