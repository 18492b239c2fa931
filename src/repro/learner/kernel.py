"""Loss (10) and its gradient in coefficient space.

The quadratic network outputs *exactly* a polynomial ``B = [x]_d . c``
(``d = 2^l``), and the multiplier is exactly affine, ``lambda = w . x +
c_0``.  So every quantity loss (10) reads at a sample point is linear in
the coefficients, with features that depend only on the data:

* ``B(s) = Phi(s) . c`` with ``Phi`` the ``[x]_d`` monomials at ``s``;
* ``L_f B(s) = Psi_0(s) . c`` with ``Psi_0 = sum_j f_j d/dx_j Phi``;
* the robust terms ``grad B(s) . G_j(s) = Psi_j(s) . c``.

:class:`BarrierLossKernel` stacks these features once per ``fit``; each
epoch is then a forward matvec, the hinge terms, a transposed matvec for
``dL/dc`` and the networks' coefficient-map VJPs back to the weights.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.learner.datasets import TrainingData
from repro.learner.loss import BarrierLossTerms
from repro.poly.fast_eval import directional_features, monomial_features


class BarrierLossKernel:
    """Closed-form loss (10) for fixed training data.

    ``domain_field_values`` are the closed-loop field at ``data.s_domain``;
    ``gain_field_values``/``sigma_star`` add the robust Lie margin
    ``L_f B - sum_j sigma*_j |grad B . G_j| - lambda B`` for controllers
    with a nonzero inclusion error (terms with ``sigma*_j <= 0`` drop out).
    ``paper_printed_form`` trains ``L_f B - lambda`` as printed in (10)
    instead of the product form of condition (iii).
    """

    def __init__(
        self,
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
    ):
        self.b_net = b_net
        self.lambda_net = lambda_net
        self.eps = float(eps)
        self.etas = tuple(float(e) for e in etas)
        self.negative_slope = float(negative_slope)
        self.paper_printed_form = bool(paper_printed_form)
        degree = b_net.output_degree
        n_i, n_u, n_d = len(data.s_init), len(data.s_unsafe), len(data.s_domain)
        self._sizes = (n_i, n_u, n_d)
        phi = monomial_features(
            np.vstack([data.s_init, data.s_unsafe, data.s_domain]), degree
        )
        phi_d = phi[n_i + n_u:]
        robust = [
            (float(s), g) for g, s in zip(gain_field_values, sigma_star) if s > 0.0
        ]
        self._sigma = np.array([s for s, _ in robust])
        # rows: B on S_I, S_U, S_D; then L_f B; then one block per gain field
        self._features = np.ascontiguousarray(np.vstack(
            [phi, directional_features(phi_d, degree, domain_field_values)]
            + [directional_features(phi_d, degree, g) for _, g in robust]
        ))
        self._x_d = data.s_domain
        # hinge arguments are h = sign * B + eps on S_I (sign -1) and S_U
        # (sign +1), and h = eps - margin on S_D; a set weighs eta / size
        eta_d, eta_i, eta_u = self.etas
        self._sign = np.repeat([-1.0, 1.0], [n_i, n_u])
        self._weight = np.repeat([eta_i / n_i, eta_u / n_u, eta_d / n_d], [n_i, n_u, n_d])
        self._starts = np.array([0, n_i, n_i + n_u])

    def __call__(self) -> BarrierLossTerms:
        """Evaluate the loss at the current weights and accumulate its
        gradient into every parameter's ``grad``."""
        n_i, n_u, n_d = self._sizes
        n_iu = n_i + n_u
        n_b = n_iu + n_d
        c, c_vjp = self.b_net.coefficient_map()
        w, c0, lam_vjp = self.lambda_net.affine_map()
        v = self._features @ c
        b_dom = v[n_iu:n_b]
        lam = self._x_d @ w + c0
        margin = v[n_b:n_b + n_d] - (lam if self.paper_printed_form else lam * b_dom)
        gains = v[n_b + n_d:].reshape(len(self._sigma), n_d)
        if len(gains):
            margin = margin - self._sigma @ np.abs(gains)

        # LeakyReLU surrogate of max(0, h): slope d(h) = 1 where h > 0
        h = np.empty(n_b)
        h[:n_iu] = self._sign * v[:n_iu]
        h[n_iu:] = -margin
        h += self.eps
        d = np.where(h > 0.0, 1.0, self.negative_slope)
        # (+ 0.0 turns the -0.0 of all-satisfied sets into 0.0)
        loss_i, loss_u, loss_d = np.add.reduceat(d * h, self._starts) / self._sizes + 0.0
        g_h = d * self._weight  # dL/dh
        g_d = g_h[n_iu:]  # = -dL/dmargin

        g_v = np.empty_like(v)
        g_v[:n_iu] = self._sign * g_h[:n_iu]
        g_v[n_b:n_b + n_d] = -g_d
        if self.paper_printed_form:
            g_v[n_iu:n_b] = 0.0
            g_lam = g_d
        else:
            g_v[n_iu:n_b] = g_d * lam
            g_lam = g_d * b_dom
        if len(gains):
            g_v[n_b + n_d:] = (self._sigma[:, None] * np.sign(gains) * g_d).ravel()
        c_vjp(self._features.T @ g_v)
        lam_vjp(self._x_d.T @ g_lam, float(g_lam.sum()))
        eta_d, eta_i, eta_u = self.etas
        return BarrierLossTerms(
            total=float(loss_d * eta_d + loss_i * eta_i + loss_u * eta_u),
            init=float(loss_i),
            unsafe=float(loss_u),
            domain=float(loss_d),
        )
