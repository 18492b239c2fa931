"""Tests for datasets, the barrier loss and the Learner."""

import numpy as np
import pytest

from repro.dynamics import CCDS, ControlAffineSystem
from repro.diagnostics import faultinject as fi
from repro.learner import BarrierLearner, BarrierLossKernel, LearnerConfig, TrainingData
from repro.learner.loss import field_values
from repro.poly.fast_eval import monomial_features
from repro.resilience.errors import LearnerDivergence
from repro.poly import Polynomial, lie_derivative
from repro.sets import Ball, Box


def decay_problem(n=2):
    xs = Polynomial.variables(n)
    sys_n = ControlAffineSystem.autonomous([-1.0 * x for x in xs])
    return CCDS(
        sys_n,
        theta=Box.cube(n, -0.5, 0.5, name="theta"),
        psi=Box.cube(n, -2.0, 2.0, name="psi"),
        xi=Box.cube(n, 1.5, 2.0, name="xi"),
        name=f"decay{n}d",
    )


# ----------------------------------------------------------------------
# datasets
# ----------------------------------------------------------------------
def test_training_data_sampling():
    prob = decay_problem()
    data = TrainingData.sample(prob, 100, rng=np.random.default_rng(0))
    assert data.sizes() == (100, 100, 100)
    assert np.all(prob.theta.contains(data.s_init))
    assert np.all(prob.xi.contains(data.s_unsafe))
    assert np.all(prob.psi.contains(data.s_domain))


def test_training_data_boundary_fraction_ball():
    xs = Polynomial.variables(2)
    sys2 = ControlAffineSystem.autonomous([-1.0 * x for x in xs])
    prob = CCDS(
        sys2,
        theta=Ball([0.0, 0.0], 0.5, name="theta"),
        psi=Box.cube(2, -2, 2, name="psi"),
        xi=Ball([1.5, 1.5], 0.3, name="xi"),
    )
    data = TrainingData.sample(
        prob, 100, rng=np.random.default_rng(1), boundary_fraction=0.5
    )
    radii = np.linalg.norm(data.s_init, axis=1)
    n_on_boundary = int(np.sum(np.abs(radii - 0.5) < 1e-9))
    assert n_on_boundary == 50


def test_training_data_boundary_fraction_box():
    prob = decay_problem()
    data = TrainingData.sample(
        prob, 60, rng=np.random.default_rng(2), boundary_fraction=0.5
    )
    on_face = np.any(
        (np.abs(data.s_init - (-0.5)) < 1e-12) | (np.abs(data.s_init - 0.5) < 1e-12),
        axis=1,
    )
    assert int(np.sum(on_face)) >= 30


def test_training_data_add():
    prob = decay_problem()
    data = TrainingData.sample(prob, 10, rng=np.random.default_rng(0))
    data.add_init(np.zeros((3, 2)))
    data.add_unsafe(np.zeros((2, 2)))
    data.add_domain(np.zeros(2))  # single point broadcast
    assert data.sizes() == (13, 12, 11)
    assert "TrainingData" in repr(data)


def test_training_data_validation():
    prob = decay_problem()
    with pytest.raises(ValueError):
        TrainingData.sample(prob, 0)
    with pytest.raises(ValueError):
        TrainingData.sample(prob, 10, boundary_fraction=2.0)


# ----------------------------------------------------------------------
# loss
# ----------------------------------------------------------------------
def test_loss_zero_for_perfect_certificate():
    """A warm-started perfect certificate yields (near-)zero hinge loss."""
    prob = decay_problem()
    cfg = LearnerConfig(b_hidden=(4,), eps=0.01, seed=0)
    learner = BarrierLearner(2, cfg)
    # B = 1 - 0.5 |x|^2: >= 0.875 on Theta, <= -1.25 on Xi
    learner.b_net.init_from_quadratic_form(0.5 * np.eye(2), 1.0, noise=0.0)
    field = prob.system.closed_loop([])
    data = TrainingData.sample(prob, 200, rng=np.random.default_rng(0))
    f_vals = field_values(field, data.s_domain)
    # lambda = -0.1 const: margin = |x|^2 + 0.1(1 - 0.5|x|^2) >= 0.1 > eps
    terms = BarrierLossKernel(
        learner.b_net, learner.lambda_net, data, f_vals, eps=0.01
    )()
    assert terms.total == pytest.approx(0.0, abs=1e-9)


def test_loss_positive_for_bad_certificate():
    prob = decay_problem()
    learner = BarrierLearner(2, LearnerConfig(b_hidden=(4,), seed=0))
    # B = -1 + |x|^2: negative on Theta -> init loss positive
    learner.b_net.init_from_quadratic_form(-1.0 * np.eye(2), -1.0, noise=0.0)
    field = prob.system.closed_loop([])
    data = TrainingData.sample(prob, 100, rng=np.random.default_rng(0))
    f_vals = field_values(field, data.s_domain)
    terms = BarrierLossKernel(
        learner.b_net, learner.lambda_net, data, f_vals, eps=0.01
    )()
    assert terms.init > 0


def test_loss_robust_gain_term_lowers_margin():
    prob = decay_problem()
    learner = BarrierLearner(2, LearnerConfig(b_hidden=(4,), seed=0))
    learner.b_net.init_from_quadratic_form(np.eye(2), 1.0, noise=0.0)
    field = prob.system.closed_loop([])
    data = TrainingData.sample(prob, 100, rng=np.random.default_rng(0))
    f_vals = field_values(field, data.s_domain)
    gain = [np.ones((100, 2))]
    no_robust = BarrierLossKernel(
        learner.b_net, learner.lambda_net, data, f_vals, eps=0.01
    )()
    robust = BarrierLossKernel(
        learner.b_net,
        learner.lambda_net,
        data,
        f_vals,
        eps=0.01,
        gain_field_values=gain,
        sigma_star=[10.0],
    )()
    assert robust.domain >= no_robust.domain


def test_loss_printed_form_differs():
    prob = decay_problem()
    learner = BarrierLearner(2, LearnerConfig(b_hidden=(4,), seed=1))
    field = prob.system.closed_loop([])
    data = TrainingData.sample(prob, 50, rng=np.random.default_rng(3))
    f_vals = field_values(field, data.s_domain)
    a = BarrierLossKernel(learner.b_net, learner.lambda_net, data, f_vals)()
    b = BarrierLossKernel(
        learner.b_net, learner.lambda_net, data, f_vals, paper_printed_form=True
    )()
    # both compute; they generally disagree (lambda vs lambda*B)
    assert isinstance(a.domain, float) and isinstance(b.domain, float)


# ----------------------------------------------------------------------
# trainer
# ----------------------------------------------------------------------
def test_learner_converges_on_decay_system():
    prob = decay_problem()
    field = prob.system.closed_loop([])
    data = TrainingData.sample(prob, 300, rng=np.random.default_rng(0))
    learner = BarrierLearner(2, LearnerConfig(b_hidden=(5,), epochs=600, seed=0, warm_start=False))
    terms = learner.fit(data, field)
    assert terms.total < 0.01
    assert learner.empirical_violations(data, field) == (0, 0, 0)


def test_learner_candidate_is_polynomial_pair():
    learner = BarrierLearner(3, LearnerConfig(b_hidden=(5,), seed=0))
    B, lam = learner.candidate()
    assert B.n_vars == 3 and B.degree <= 2
    assert lam.n_vars == 3 and lam.degree <= 1


def test_learner_constant_multiplier():
    learner = BarrierLearner(2, LearnerConfig(b_hidden=(4,), lambda_hidden=None))
    lam = learner.lambda_net.to_polynomial()
    assert lam.degree == 0


def test_learner_square_architecture():
    learner = BarrierLearner(2, LearnerConfig(b_hidden=(4,), b_architecture="square"))
    B, _ = learner.candidate()
    assert B.degree <= 2


def test_learner_invalid_architecture():
    with pytest.raises(ValueError):
        BarrierLearner(2, LearnerConfig(b_architecture="cubic"))


def test_loss_history_recorded():
    prob = decay_problem()
    field = prob.system.closed_loop([])
    data = TrainingData.sample(prob, 50, rng=np.random.default_rng(0))
    learner = BarrierLearner(2, LearnerConfig(b_hidden=(4,), epochs=10, seed=0))
    learner.fit(data, field)
    assert len(learner.loss_history) == 10


@pytest.mark.parametrize(
    "arch,b_hidden", [("quadratic", (5,)), ("quadratic", (3, 2)), ("square", (4,))]
)
def test_candidate_equals_trained_coefficients(arch, b_hidden):
    """The verifier receives exactly the polynomial the kernel trains:
    ``candidate()`` at the training points equals ``Phi c``."""
    prob = decay_problem()
    data = TrainingData.sample(prob, 40, rng=np.random.default_rng(4))
    learner = BarrierLearner(
        2, LearnerConfig(b_hidden=b_hidden, b_architecture=arch, epochs=20, seed=2)
    )
    learner.fit(data, prob.system.closed_loop([]))
    B, _ = learner.candidate()
    c, _ = learner.b_net.coefficient_map()
    for pts in (data.s_init, data.s_unsafe, data.s_domain):
        phi_c = monomial_features(pts, learner.b_net.output_degree) @ c
        np.testing.assert_allclose(B(pts), phi_c, rtol=1e-12, atol=1e-12)


def test_nan_gradient_fault_raises_before_the_step():
    prob = decay_problem()
    data = TrainingData.sample(prob, 30, rng=np.random.default_rng(0))
    learner = BarrierLearner(2, LearnerConfig(b_hidden=(4,), epochs=5, seed=0))
    before = learner.snapshot()
    with fi.inject(fi.nan_gradients()) as plan:
        with pytest.raises(LearnerDivergence) as err:
            learner.fit(data, prob.system.closed_loop([]))
    assert plan.fired_sites() == ["learner.gradients"]
    assert err.value.details["epoch"] == 1
    # the poisoned gradient never reached the weights
    assert learner.snapshot()["params"] == before["params"]


def test_snbc_recovers_from_nan_gradient_fault():
    from repro.cegis import SNBC, SNBCConfig

    with fi.inject(fi.nan_gradients()) as plan:
        res = SNBC(decay_problem(), config=SNBCConfig(seed=0)).run()
    assert plan.fired_sites() == ["learner.gradients"]
    assert res.success
    assert res.soundness is not None and res.soundness.ok
