"""Differential oracles: SOS vs interval verification, and the Learner's
coefficient-space loss kernel vs the autodiff-graph loss, must agree;
disagreements must be detected and dumped."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.dynamics import CCDS, ControlAffineSystem
from repro.learner import BarrierLossKernel, TrainingData
from repro.nn import ConstantMultiplier, LinearMultiplier, QuadraticNetwork, SquareNetwork
from repro.poly import Polynomial
from repro.sets import Box
from repro.soundness import oracles
from repro.soundness import strategies as st
from repro.verifier.interval_verifier import IntervalVerifierConfig
from tests.learner_oracles import assert_kernel_matches_graph, barrier_loss

SEED = st.resolve_seed(0)

FAST_INTERVAL = IntervalVerifierConfig(
    max_boxes_per_check=10_000, time_limit_per_check=20.0
)


def decay_problem():
    x, y = Polynomial.variables(2)
    system = ControlAffineSystem.autonomous([-1.0 * x, -1.0 * y])
    return CCDS(
        system,
        theta=Box.cube(2, -0.3, 0.3, name="theta"),
        psi=Box.cube(2, -2.0, 2.0, name="psi"),
        xi=Box.cube(2, 1.5, 2.0, name="xi"),
        name="decay",
    )


def decay_barrier():
    x, y = Polynomial.variables(2)
    return Polynomial.constant(2, 1.0) - 0.5 * (x * x + y * y)


# ----------------------------------------------------------------------
# SOS vs interval
# ----------------------------------------------------------------------
def test_verifiers_agree_on_valid_barrier():
    cmp = oracles.compare_verifiers(
        decay_problem(), decay_barrier(),
        interval_config=FAST_INTERVAL, dump=False,
    )
    assert cmp.sos_ok
    assert cmp.ok
    assert cmp.interval_outcomes.get("init") == "PROVED"


def test_sos_rejection_is_not_a_disagreement():
    # -B is negative on Theta: both verifiers reject, which the oracle
    # must NOT flag (it is one-sided by design)
    cmp = oracles.compare_verifiers(
        decay_problem(), -1.0 * decay_barrier(),
        interval_config=FAST_INTERVAL, dump=False,
    )
    assert not cmp.sos_ok
    assert cmp.ok  # no disagreement recorded


def test_controlled_system_comparison():
    x, y = Polynomial.variables(2)
    system = ControlAffineSystem.single_input(
        [-1.0 * x, -1.0 * y], [0.0, 1.0]
    )
    prob = CCDS(
        system,
        theta=Box.cube(2, -0.3, 0.3, name="theta"),
        psi=Box.cube(2, -2.0, 2.0, name="psi"),
        xi=Box.cube(2, 1.5, 2.0, name="xi"),
        name="decay-controlled",
    )
    h = [Polynomial.zero(2)]
    cmp = oracles.compare_verifiers(
        prob, decay_barrier(), controller_polys=h, sigma_star=[0.05],
        interval_config=FAST_INTERVAL, dump=False,
    )
    assert cmp.sos_ok
    assert cmp.ok


# ----------------------------------------------------------------------
# loss kernel vs graph oracle
# ----------------------------------------------------------------------
#: network/loss configurations; every example of a case draws fresh
#: dimensions, weights and data
KERNEL_CASES = {
    "quadratic-d1-linear1": dict(net=(QuadraticNetwork, (4,), True), lam=(3,)),
    "quadratic-d2-linear2": dict(net=(QuadraticNetwork, (3, 2), True), lam=(3, 2)),
    "quadratic-no-bias-constant": dict(net=(QuadraticNetwork, (3,), False), lam=None),
    "square-d1-constant": dict(net=(SquareNetwork, (4,), True), lam=None),
    "square-d2-linear1": dict(net=(SquareNetwork, (2, 2), True), lam=(2,)),
    "robust-gain-fields": dict(
        net=(QuadraticNetwork, (4,), True), lam=(3,), sigma=(0.7, 0.0, 0.2)
    ),
    "printed-form": dict(
        net=(QuadraticNetwork, (3,), True), lam=(2, 2), paper_printed_form=True
    ),
    "leaky-slope": dict(
        net=(SquareNetwork, (3,), True), lam=(3,), negative_slope=0.1,
        etas=(2.0, 0.5, 1.5),
    ),
}


def _kernel_instance(case, example):
    """Networks, data and loss kwargs for one ``(n_vars, seed, m)`` draw."""
    n, seed, m = example
    rng = np.random.default_rng(seed)
    cls, hidden, bias = case["net"]
    b_net = cls([n, *hidden], output_bias=bias, rng=rng)
    lam = case["lam"]
    lambda_net = (
        ConstantMultiplier(n, init=float(rng.normal()))
        if lam is None
        else LinearMultiplier([n, *lam, 1], rng=rng)
    )
    data = TrainingData(
        s_init=0.5 * rng.normal(size=(m, n)),
        s_unsafe=1.5 + rng.normal(size=(m + 1, n)),
        s_domain=rng.normal(size=(m + 2, n)),
    )
    kwargs = {
        k: v for k, v in case.items()
        if k in ("paper_printed_form", "negative_slope", "etas")
    }
    kwargs["eps"] = float(rng.uniform(0.01, 1.0))
    if "sigma" in case:
        kwargs["sigma_star"] = list(case["sigma"])
        kwargs["gain_field_values"] = [
            rng.normal(size=(m + 2, n)) for _ in case["sigma"]
        ]
    f_vals = rng.normal(size=(m + 2, n))
    return b_net, lambda_net, data, f_vals, kwargs


KERNEL_EXAMPLES = st.tuples(
    st.integers(1, 3), st.integers(0, 2**31 - 1), st.integers(1, 12)
)


@pytest.mark.parametrize("case_name", sorted(KERNEL_CASES))
def test_kernel_matches_graph_oracle(case_name):
    case = KERNEL_CASES[case_name]

    def prop(example):
        b_net, lambda_net, data, f_vals, kwargs = _kernel_instance(case, example)
        assert_kernel_matches_graph(b_net, lambda_net, data, f_vals, **kwargs)

    st.run_property(
        f"kernel-vs-graph-{case_name}",
        KERNEL_EXAMPLES,
        prop,
        n_examples=st.fuzz_examples(15),
        seed=SEED,
    )


def test_kernel_loss_matches_central_differences():
    """Anchor the kernel itself: its gradient of the total loss matches
    central differences of the graph oracle's loss value."""
    b_net, lambda_net, data, f_vals, kwargs = _kernel_instance(
        KERNEL_CASES["robust-gain-fields"], (2, 7, 6)
    )
    params = b_net.parameters() + lambda_net.parameters()
    BarrierLossKernel(b_net, lambda_net, data, f_vals, **kwargs)()
    for p in params:
        def total(value, p=p):
            old, p.data = p.data, value
            try:
                return barrier_loss(b_net, lambda_net, data, f_vals, **kwargs)[1].total
            finally:
                p.data = old

        num = oracles.numeric_gradient(total, p.data.copy())
        np.testing.assert_allclose(p.grad, num, rtol=1e-5, atol=1e-6)


def test_gradient_disagreement_is_detected(tmp_path, monkeypatch):
    """A kernel with a corrupted gradient must fail the differential
    property, and the minimized example must be dumped for replay."""
    monkeypatch.setenv(st.DUMP_DIR_ENV, str(tmp_path))

    class DriftingKernel(BarrierLossKernel):
        def __call__(self):
            terms = super().__call__()
            w = self.b_net.W_out
            w.grad = w.grad * (1.0 + 1e-9)
            return terms

    case = KERNEL_CASES["quadratic-d1-linear1"]

    def prop(example):
        b_net, lambda_net, data, f_vals, kwargs = _kernel_instance(case, example)
        assert_kernel_matches_graph(
            b_net, lambda_net, data, f_vals, kernel_cls=DriftingKernel, **kwargs
        )

    with pytest.raises(st.PropertyFailure) as err:
        st.run_property("kernel-drift", KERNEL_EXAMPLES, prop, n_examples=5, seed=SEED)
    assert "gradient" in err.value.cause
    assert err.value.dump_path and err.value.dump_path.startswith(str(tmp_path))


def test_polynomial_gradient_matches_numeric():
    # anchor the autodiff oracle itself against central differences once
    W = Tensor(np.array([[0.5], [-1.25]]), requires_grad=True)
    X = Tensor(np.array([[1.0, 2.0], [0.5, -1.0]]))

    def loss_value(w):
        return float(np.sum((X.data @ w) ** 3))

    loss = ((X @ W) ** 3.0).sum()
    loss.backward()
    eps = 1e-6
    for i in range(2):
        w_hi = W.data.copy()
        w_lo = W.data.copy()
        w_hi[i, 0] += eps
        w_lo[i, 0] -= eps
        numeric = (loss_value(w_hi) - loss_value(w_lo)) / (2 * eps)
        assert W.grad[i, 0] == pytest.approx(numeric, rel=1e-5)
