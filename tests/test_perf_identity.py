"""Result-identity tests for the hot-path performance layer.

Every default-on optimization (SOS workspace cache, flat Adam,
compile-field memoization, incremental field values, vectorized design
matrix) must be *bitwise* identical to its reference path; parallel
verification must reproduce the serial :class:`VerificationResult`, and
the serial verifier must stop at the first failing condition.  Training
in coefficient space is the one change that is not bitwise (float
summation order differs from the autodiff graph), so it is held to the
graph oracle within a tolerance instead.
"""

import hashlib
import math

import numpy as np
import pytest

from repro.cegis.counterexamples import _ViolationFn
from repro.dynamics import CCDS, ControlAffineSystem
from repro.learner import BarrierLearner, LearnerConfig, TrainingData
from repro.learner.loss import field_values
from repro.nn import Adam
from repro.poly import Polynomial
from repro.poly.fast_eval import (
    clear_compile_cache,
    compile_field,
    monomial_features,
    set_compile_cache_enabled,
)
from repro.poly.monomials import monomials_upto
from repro.sets import Box, UnionSet
from repro.telemetry import InMemorySink, configure, disable
from repro.verifier import SOSVerifier, VerifierConfig
from tests.learner_oracles import ReferenceAdam, barrier_loss


def decay_problem(n=2):
    xs = Polynomial.variables(n)
    sys_n = ControlAffineSystem.autonomous([-1.0 * x for x in xs])
    return CCDS(
        sys_n,
        theta=Box.cube(n, -0.5, 0.5, name="theta"),
        psi=Box.cube(n, -2.0, 2.0, name="psi"),
        xi=Box.cube(n, 1.5, 2.0, name="xi"),
    )


def radial_barrier(n, c=1.0, scale=0.5):
    B = Polynomial.constant(n, c)
    for i in range(n):
        B = B - scale * Polynomial.variable(n, i) ** 2
    return B


FLOAT_FIELDS = (
    "residual_bound",
    "min_gram_eigenvalue",
    "sdp_gap",
    "sdp_primal_residual",
    "sdp_dual_residual",
)


def assert_results_identical(a, b):
    """Field-by-field equality of two VerificationResults, wall-clock
    timings aside — including the SDP endgame stats of every report."""
    assert a.ok == b.ok
    assert len(a.conditions) == len(b.conditions)
    for x, y in zip(a.conditions, b.conditions):
        assert x.name == y.name
        assert x.feasible == y.feasible
        assert x.validated == y.validated
        assert x.message == y.message
        assert x.sdp_status == y.sdp_status
        assert x.sdp_iterations == y.sdp_iterations
        for f in FLOAT_FIELDS:
            xa, ya = getattr(x, f), getattr(y, f)
            assert (math.isnan(xa) and math.isnan(ya)) or xa == ya, (
                x.name,
                f,
                xa,
                ya,
            )
    if a.lambda_poly is None:
        assert b.lambda_poly is None
    else:
        assert a.lambda_poly.coeffs == b.lambda_poly.coeffs
    la = a.lambda_polys or {}
    lb = b.lambda_polys or {}
    assert la.keys() == lb.keys()
    for k in la:
        assert la[k].coeffs == lb[k].coeffs


def assert_certificates_identical(a, b):
    """Bitwise equality of two CertificateBundles."""
    if a is None or b is None:
        assert a is b
        return
    assert a.barrier.coeffs == b.barrier.coeffs
    assert a.barrier_scale == b.barrier_scale
    assert len(a.conditions) == len(b.conditions)
    for ca, cb in zip(a.conditions, b.conditions):
        assert ca.name == cb.name
        assert ca.margin == cb.margin
        assert np.array_equal(ca.slack_gram, cb.slack_gram)
        assert len(ca.multipliers) == len(cb.multipliers)
        for ma, mb in zip(ca.multipliers, cb.multipliers):
            assert np.array_equal(ma.gram, mb.gram)


# ----------------------------------------------------------------------
# SOS workspace cache
# ----------------------------------------------------------------------
def test_workspace_cached_verify_identical_to_fresh():
    prob = decay_problem()
    B = radial_barrier(2)
    cached = SOSVerifier(prob, [], config=VerifierConfig(workspace_cache=True))
    fresh = SOSVerifier(prob, [], config=VerifierConfig(workspace_cache=False))
    # repeated verifies exercise the warm (hit) path of the cache
    for candidate in (B, B * 1.7 - 0.05 * Polynomial.variable(2, 0), B):
        assert_results_identical(cached.verify(candidate), fresh.verify(candidate))


def test_workspace_cached_verify_identical_on_failing_candidate():
    prob = decay_problem()
    bad = -1.0 * radial_barrier(2)
    cached = SOSVerifier(prob, [], config=VerifierConfig(workspace_cache=True))
    fresh = SOSVerifier(prob, [], config=VerifierConfig(workspace_cache=False))
    ra, rb = cached.verify(bad), fresh.verify(bad)
    assert not ra.ok
    assert_results_identical(ra, rb)


def test_workspace_reused_across_verifies():
    prob = decay_problem()
    v = SOSVerifier(prob, [], config=VerifierConfig(workspace_cache=True))
    v.verify(radial_barrier(2))
    workspaces_after_first = dict(v._workspaces)
    v.verify(radial_barrier(2, c=0.9))
    assert v._workspaces.keys() == {"init", "unsafe", "lie"}
    for key, ws in workspaces_after_first.items():
        assert v._workspaces[key] is ws  # same cached object, only affine refresh


# ----------------------------------------------------------------------
# parallel verification
# ----------------------------------------------------------------------
def test_parallel_verify_equals_serial():
    prob = decay_problem()
    serial = SOSVerifier(prob, [], config=VerifierConfig(parallel=False))
    par = SOSVerifier(
        prob, [], config=VerifierConfig(parallel=True, max_workers=2)
    )
    for candidate in (radial_barrier(2), -1.0 * radial_barrier(2)):
        ra, rb = par.verify(candidate), serial.verify(candidate)
        assert_results_identical(ra, rb)
        assert_certificates_identical(ra.certificate, rb.certificate)


def test_parallel_verify_c1_smoke_equals_serial():
    from repro.benchmarks import get_benchmark
    from repro.cegis import SNBC, SNBCConfig

    def run(parallel):
        spec = get_benchmark("C1")
        snbc = SNBC(
            spec.make_problem(),
            controller=spec.make_controller(),
            config=SNBCConfig(parallel_verify=parallel),
        )
        return snbc.run()

    r_ser, r_par = run(False), run(True)
    assert r_ser.success == r_par.success
    assert r_ser.iterations == r_par.iterations
    assert r_ser.barrier.coeffs == r_par.barrier.coeffs
    assert_results_identical(r_ser.verification, r_par.verification)


# ----------------------------------------------------------------------
# coefficient-space training vs the autodiff graph
# ----------------------------------------------------------------------
@pytest.mark.parametrize("lambda_hidden", [(5,), None])
@pytest.mark.parametrize("arch", ["quadratic", "square"])
def test_kernel_training_matches_graph_oracle(arch, lambda_hidden):
    """40 epochs through the loss kernel + flat Adam track 40 epochs
    through the autodiff-graph loss + per-parameter Adam.  Not bitwise:
    the two sum in different orders, so the weights agree to rounding."""
    prob = decay_problem()
    data = TrainingData.sample(prob, 60, rng=np.random.default_rng(0))
    field = prob.system.closed_loop([])
    cfg = LearnerConfig(
        epochs=40, seed=7, b_architecture=arch, lambda_hidden=lambda_hidden
    )
    kernel_run = BarrierLearner(2, config=cfg)
    kernel_run.fit(data, field)

    graph_run = BarrierLearner(2, config=cfg)
    opt = ReferenceAdam(graph_run._params, lr=cfg.lr)
    f_vals = field_values(field, data.s_domain)
    history = []
    for _ in range(cfg.epochs):
        opt.zero_grad()
        loss, terms = barrier_loss(
            graph_run.b_net, graph_run.lambda_net, data, f_vals, eps=cfg.eps
        )
        loss.backward()
        opt.step()
        history.append(terms.total)

    for p, q in zip(kernel_run._params, graph_run._params):
        np.testing.assert_allclose(p.data, q.data, rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(
        [t.total for t in kernel_run.loss_history], history, rtol=1e-9, atol=1e-12
    )


# ----------------------------------------------------------------------
# flat Adam vs the per-parameter loop
# ----------------------------------------------------------------------
def test_flat_adam_bitwise_equals_per_parameter_loop():
    from repro.nn.layers import Parameter

    rng = np.random.default_rng(2)
    shapes = [(3, 4), (4,), (4, 1), (1,)]
    flat = [Parameter(rng.normal(size=s)) for s in shapes]
    ref = [Parameter(p.data.copy()) for p in flat]
    a = Adam(flat, lr=0.05, weight_decay=0.01)
    b = ReferenceAdam(ref, lr=0.05, weight_decay=0.01)
    for step in range(25):
        for i, (p, q) in enumerate(zip(flat, ref)):
            # parameter 1 sits out every third step (no gradient)
            g = None if (i == 1 and step % 3 == 0) else rng.normal(size=p.data.shape)
            p.grad, q.grad = g, None if g is None else g.copy()
        a.step()
        b.step()
    for p, q in zip(flat, ref):
        assert np.array_equal(p.data, q.data)
    state = a.state_dict()
    assert [np.asarray(m).shape for m in state["m"]] == shapes
    for m, want in zip(state["m"], b._m):
        assert np.array_equal(np.asarray(m), want)


#: sha256 of each cloned benchmark controller's weights; behaviour cloning
#: trains with Adam, and the flat update reproduces these bit for bit
CLONED_CONTROLLER_SHA256 = {
    "C1": "c2731cee80c3f3c5fbc85fb5fa21da8fb7710f5c5ac83016d8e7f7fcf9311429",
    "C3": "c2731cee80c3f3c5fbc85fb5fa21da8fb7710f5c5ac83016d8e7f7fcf9311429",
    "C6": "37d23bd35d101ca53cf7f0d92ea142a5e03de30a7929a6066ac07ad2e84d23be",
    "Q1": "0cd4969860e65fb0be20dbcc7debfdc09342e1e26085da9e9ae387212b463c0e",
}


@pytest.mark.parametrize("name", sorted(CLONED_CONTROLLER_SHA256))
def test_cloned_controller_weights_bitwise_unchanged(name):
    from repro.benchmarks import get_benchmark

    controller = get_benchmark(name).make_controller()
    h = hashlib.sha256()
    for p in controller.net.parameters():
        h.update(np.ascontiguousarray(p.data, dtype=np.float64).tobytes())
    assert h.hexdigest() == CLONED_CONTROLLER_SHA256[name]


def test_ddpg_updates_bitwise_equal_reference_adam():
    from repro.benchmarks import get_benchmark
    from repro.controllers.ddpg import DDPGConfig, DDPGTrainer

    problem = get_benchmark("C1").make_problem()

    def run(reference):
        trainer = DDPGTrainer(problem, DDPGConfig(seed=0, batch_size=16))
        if reference:
            trainer.actor_opt = ReferenceAdam(
                trainer.actor.net.parameters(), lr=trainer.cfg.actor_lr
            )
            trainer.critic_opt = ReferenceAdam(
                trainer.critic.parameters(), lr=trainer.cfg.critic_lr
            )
        rng = np.random.default_rng(5)
        m = problem.system.n_inputs
        for s in problem.psi.sample(40, rng=rng):
            trainer.buffer.push(s, rng.normal(size=m), float(rng.normal()), 0.9 * s, False)
        for _ in range(5):
            trainer._update_networks()
        return trainer.actor.net.parameters() + trainer.critic.parameters()

    for p, q in zip(run(False), run(True)):
        assert np.array_equal(p.data, q.data)


# ----------------------------------------------------------------------
# compile_field memoization + incremental field values
# ----------------------------------------------------------------------
def test_compile_field_memoized_object_reused():
    clear_compile_cache()
    xs = Polynomial.variables(2)
    field = [-1.0 * xs[0] + 0.5 * xs[1], xs[0] * xs[1]]
    c1 = compile_field(field)
    # structurally identical fresh Polynomial objects hit the same entry
    field2 = [-1.0 * xs[0] + 0.5 * xs[1], xs[0] * xs[1]]
    assert compile_field(field2) is c1
    old = set_compile_cache_enabled(False)
    try:
        assert compile_field(field) is not c1
    finally:
        set_compile_cache_enabled(old)
        clear_compile_cache()


def test_incremental_field_values_bitwise_on_grown_dataset():
    prob = decay_problem()
    field = prob.system.closed_loop([])
    rng = np.random.default_rng(5)
    pts = prob.psi.sample(80, rng=rng)
    grown = np.vstack([pts, prob.psi.sample(17, rng=rng)])

    learner = BarrierLearner(
        2, config=LearnerConfig(incremental_field_values=True)
    )
    ref = compile_field(field)
    first = learner._field_values(field, pts)
    assert np.array_equal(first, ref(pts))
    second = learner._field_values(field, grown)  # prefix reused
    assert np.array_equal(second, ref(grown))


# ----------------------------------------------------------------------
# satellite kernels
# ----------------------------------------------------------------------
def test_design_matrix_matches_reference_loop():
    def reference(points, degree):
        m, n = points.shape
        basis = monomials_upto(n, degree)
        pows = np.ones((degree + 1, m, n))
        for k in range(1, degree + 1):
            pows[k] = pows[k - 1] * points
        cols = []
        for alpha in basis:
            col = np.ones(m)
            for i, a in enumerate(alpha):
                if a:
                    col = col * pows[a][:, i]
            cols.append(col)
        return np.stack(cols, axis=1)

    rng = np.random.default_rng(11)
    for n, d in [(1, 4), (2, 2), (3, 3), (5, 2)]:
        pts = 2.0 * rng.normal(size=(23, n))
        assert np.array_equal(monomial_features(pts, d), reference(pts, d))


def test_compiled_violation_kernels_match_reference():
    p1 = Polynomial(2, {(0, 0): 1.0, (1, 0): 2.0, (1, 1): -0.5, (0, 2): 1.0})
    p2 = Polynomial(2, {(0, 0): 0.3, (2, 0): -1.0, (0, 1): 0.7})
    q = Polynomial(2, {(1, 0): 1.0, (0, 2): -0.2})
    pts = np.random.default_rng(3).normal(size=(64, 2))
    ref = _ViolationFn([p1, p2], [(0.4, q)])
    fast = _ViolationFn([p1, p2], [(0.4, q)], compiled=True)
    np.testing.assert_allclose(ref.value(pts), fast.value(pts), rtol=1e-12)
    np.testing.assert_allclose(
        ref.gradient(pts), fast.gradient(pts), rtol=1e-12, atol=1e-14
    )


# ----------------------------------------------------------------------
# serial short-circuit: nothing past the first failure is compiled
# ----------------------------------------------------------------------
def _two_cell_theta_problem():
    """Decay problem whose Theta is two boxes; ``-radial_barrier`` fails
    (13) on the first one already."""
    prob = decay_problem()
    return CCDS(
        prob.system,
        theta=UnionSet(
            [Box.cube(2, -0.5, 0.0, name="a"), Box.cube(2, 0.0, 0.5, name="b")],
            name="theta",
        ),
        psi=prob.psi,
        xi=prob.xi,
    )


def _q1_problem():
    from repro.benchmarks import get_benchmark

    return get_benchmark("Q1").make_problem()


@pytest.mark.parametrize(
    "make_problem,init_names",
    [
        (decay_problem, ["init"]),
        (_two_cell_theta_problem, ["init[cell0]"]),
        (_q1_problem, ["init"]),
    ],
    ids=["decay", "decay-two-cell-theta", "Q1"],
)
def test_serial_verify_stops_at_first_failing_init_cell(make_problem, init_names):
    prob = make_problem()
    h = [Polynomial.constant(2, 0.0)] * prob.system.n_inputs
    v = SOSVerifier(prob, h)
    sink = InMemorySink()
    tel = configure(sink)
    try:
        result = v.verify(-1.0 * radial_barrier(2))
        counters = tel.metrics.summary()["counters"]
    finally:
        disable()
    assert not result.ok
    n_init = len(init_names)
    assert [c.name for c in result.conditions] == init_names + ["unsafe", "lie"]
    assert not result.conditions[n_init - 1].ok
    assert [c.message for c in result.conditions[n_init:]] == [
        "skipped (init failed)",
        "skipped (earlier failure)",
    ]
    # only the init cells up to the failing one were compiled ...
    assert counters.get("verifier.workspace.misses") == n_init
    assert "verifier.workspace.hits" not in counters
    # ... and solved: every SDP solve (recovery rungs included) ran
    # inside one of their condition spans
    conditions = sink.spans("verifier.condition")
    assert [e["attrs"]["condition"] for e in conditions] == init_names
    solves = sink.spans("sdp.solve")
    assert solves
    assert {e["parent_id"] for e in solves} <= {e["span_id"] for e in conditions}
