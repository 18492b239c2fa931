"""Reference implementations the Learner is tested against.

* :func:`barrier_loss` builds loss (10) as a reverse-mode autodiff graph
  over the network activations, with the Lie term from
  :func:`forward_with_tangent` — the differential oracle for
  :class:`repro.learner.kernel.BarrierLossKernel`, which computes the same
  loss and gradients in coefficient space.
* :func:`assert_kernel_matches_graph` runs both on the same weights and
  data and compares loss terms and every parameter gradient.
* :class:`ReferenceAdam` updates each parameter on its own — the oracle
  for the flat vectorised :class:`repro.nn.Adam`.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.autodiff import Tensor
from repro.learner import BarrierLossKernel, BarrierLossTerms, TrainingData


def forward_with_tangent(net, x: Tensor, xdot: Tensor) -> Tuple[Tensor, Tensor]:
    """Jointly evaluate ``B(x)`` and ``L_f B(x) = grad B(x) . xdot`` of a
    product network by propagating the tangent through the same layer
    recursion (``zdot -> adot * b + a * bdot``), so backprop through the
    result trains the Lie term without second-order autodiff."""
    z, zdot = x, xdot
    for Wa, ba, Wb, bb in net._factors():
        a, adot = z @ Wa + ba, zdot @ Wa
        b, bdot = z @ Wb + bb, zdot @ Wb
        z, zdot = a * b, adot * b + a * bdot
    out = z @ net.W_out
    if net.b_out is not None:
        out = out + net.b_out
    return out.reshape(-1), (zdot @ net.W_out).reshape(-1)


def barrier_loss(
    b_net,
    lambda_net,
    data: TrainingData,
    domain_field_values: np.ndarray,
    eps: float = 0.01,
    etas: Tuple[float, float, float] = (1.0, 1.0, 1.0),
    negative_slope: float = 0.0,
    paper_printed_form: bool = False,
    gain_field_values: Sequence[np.ndarray] = (),
    sigma_star: Sequence[float] = (),
) -> Tuple[Tensor, BarrierLossTerms]:
    """Loss (10) as a differentiable graph; ``backward()`` on the
    returned total fills every parameter's ``grad``."""
    eta_d, eta_i, eta_u = etas

    b_init = b_net(Tensor(data.s_init))
    loss_i = (Tensor(np.full(len(data.s_init), eps)) - b_init).leaky_relu(
        negative_slope
    ).mean()

    b_unsafe = b_net(Tensor(data.s_unsafe))
    loss_u = (b_unsafe + eps).leaky_relu(negative_slope).mean()

    b_dom, lie = forward_with_tangent(
        b_net, Tensor(data.s_domain), Tensor(domain_field_values)
    )
    lam = lambda_net(Tensor(data.s_domain))
    margin = lie - lam if paper_printed_form else lie - lam * b_dom
    for g_vals, s in zip(gain_field_values, sigma_star):
        if s <= 0.0:
            continue
        _, gain = forward_with_tangent(b_net, Tensor(data.s_domain), Tensor(g_vals))
        margin = margin - gain.abs() * float(s)
    loss_d = (Tensor(np.full(len(data.s_domain), eps)) - margin).leaky_relu(
        negative_slope
    ).mean()

    total = loss_d * eta_d + loss_i * eta_i + loss_u * eta_u
    terms = BarrierLossTerms(
        total=total.item(),
        init=loss_i.item(),
        unsafe=loss_u.item(),
        domain=loss_d.item(),
    )
    return total, terms


def assert_kernel_matches_graph(
    b_net,
    lambda_net,
    data: TrainingData,
    domain_field_values: np.ndarray,
    rtol: float = 1e-12,
    kernel_cls=BarrierLossKernel,
    **loss_kwargs,
) -> None:
    """Kernel and graph oracle agree on the loss terms and on every
    parameter gradient, to ``rtol`` relative to the magnitude of the
    oracle's total loss and of its largest gradient entry (floored at 1:
    entries that cancel to ~0 in one summation order need not be exactly
    0 in the other)."""
    params = b_net.parameters() + lambda_net.parameters()
    for p in params:
        p.grad = None
    got_terms = kernel_cls(b_net, lambda_net, data, domain_field_values, **loss_kwargs)()
    got = [np.array(p.grad, copy=True) for p in params]
    for p in params:
        p.grad = None
    loss, want_terms = barrier_loss(
        b_net, lambda_net, data, domain_field_values, **loss_kwargs
    )
    loss.backward()
    want = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]

    scale = max(1.0, abs(want_terms.total))
    for name in ("total", "init", "unsafe", "domain"):
        a, b = getattr(got_terms, name), getattr(want_terms, name)
        assert abs(a - b) <= rtol * scale, f"loss term {name}: kernel {a!r} vs graph {b!r}"
    g_scale = max([1.0] + [float(np.max(np.abs(w))) for w in want])
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape, f"parameter {i}: shape {a.shape} vs {b.shape}"
        err = float(np.max(np.abs(a - b)))
        assert err <= rtol * g_scale, (
            f"parameter {i} gradient: max |kernel - graph| = {err:.3e} "
            f"(scale {g_scale:.3e})"
        )


class ReferenceAdam:
    """Adam with one moment buffer per parameter and a per-parameter
    update loop."""

    def __init__(self, parameters, lr=1e-3, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** self._t)
            v_hat = v / (1.0 - b2 ** self._t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
