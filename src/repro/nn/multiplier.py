"""Multiplier networks for the auxiliary polynomial ``lambda(x)``.

The paper trains ``lambda(x)`` with a *linear* NN (Table 1 column
``NN_lambda``, e.g. ``5-5(2)-1``); a stack of bias-carrying linear layers
collapses to a single affine function, so :meth:`to_polynomial` returns a
degree-1 polynomial exactly.  The ``c`` entries of Table 1 use
:class:`ConstantMultiplier`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff import Tensor
from repro.nn.layers import Dense, Module, Parameter, Sequential
from repro.poly import Polynomial


class LinearMultiplier(Module):
    """Linear (activation-free) network; exactly an affine function."""

    def __init__(
        self,
        layer_sizes: Sequence[int],
        rng: Optional[np.random.Generator] = None,
        init_output: Optional[float] = None,
    ):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if layer_sizes[-1] != 1:
            raise ValueError("multiplier network must have scalar output")
        rng = rng or np.random.default_rng()
        self.layer_sizes = list(layer_sizes)
        self.net = Sequential(
            *[
                Dense(layer_sizes[i], layer_sizes[i + 1], rng=rng)
                for i in range(len(layer_sizes) - 1)
            ]
        )
        if init_output is not None:
            # start near the constant function `init_output`: shrink the
            # final layer's slope and set its bias to the target
            last = self.net.modules[-1]
            last.W.data = 0.1 * last.W.data
            last.b.data = np.array([float(init_output)])

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x).reshape(-1)

    def affine_coefficients(self) -> "tuple[np.ndarray, float]":
        """Collapse the layer stack: returns ``(w, c)`` with
        ``lambda(x) = w . x + c``."""
        w, c, _ = self.affine_map()
        return w, c

    def affine_map(
        self,
    ) -> Tuple[np.ndarray, float, Callable[[np.ndarray, float], None]]:
        """``(w, c, vjp)``: the collapsed affine coefficients and their
        vector-Jacobian product, which accumulates the gradient of
        ``g_w . w + g_c * c`` into every layer's ``W``/``b``."""
        n = self.layer_sizes[0]
        W_eff = np.eye(n)
        b_eff = np.zeros(n)
        saved = []
        for layer in self.net:
            saved.append((W_eff, b_eff))
            W_eff = W_eff @ layer.W.data
            b_eff = b_eff @ layer.W.data + layer.b.data

        def vjp(g_w: np.ndarray, g_c: float) -> None:
            g_W, g_b = g_w[:, None], np.array([float(g_c)])
            for layer, (W_in, b_in) in zip(reversed(self.net.modules), reversed(saved)):
                W = layer.W.data
                layer.W.accumulate_grad(W_in.T @ g_W + b_in[:, None] * g_b)
                layer.b.accumulate_grad(g_b)
                g_W, g_b = g_W @ W.T, W @ g_b

        return W_eff[:, 0], float(b_eff[0]), vjp

    def to_polynomial(self) -> Polynomial:
        """The affine polynomial realized by the network."""
        w, c = self.affine_coefficients()
        n = self.layer_sizes[0]
        p = Polynomial.constant(n, c)
        for i in range(n):
            p = p + Polynomial.variable(n, i) * float(w[i])
        return p

    def __repr__(self) -> str:
        shape = "-".join(str(s) for s in self.layer_sizes)
        return f"LinearMultiplier({shape})"


class ConstantMultiplier(Module):
    """A single trainable constant (Table 1's ``c`` multiplier)."""

    def __init__(self, n_vars: int, init: float = -1.0):
        self.n_vars = int(n_vars)
        self.value = Parameter(np.array([float(init)]))

    def affine_map(
        self,
    ) -> Tuple[np.ndarray, float, Callable[[np.ndarray, float], None]]:
        """``(0, value, vjp)`` — the same interface as
        :meth:`LinearMultiplier.affine_map`."""

        def vjp(g_w: np.ndarray, g_c: float) -> None:
            self.value.accumulate_grad(np.array([float(g_c)]))

        return np.zeros(self.n_vars), float(self.value.data[0]), vjp

    def forward(self, x: Tensor) -> Tensor:
        batch = x.shape[0]
        ones = Tensor(np.ones((batch, 1)))
        return (ones @ self.value.reshape(1, 1)).reshape(-1)

    def to_polynomial(self) -> Polynomial:
        return Polynomial.constant(self.n_vars, float(self.value.data[0]))

    def __repr__(self) -> str:
        return f"ConstantMultiplier(value={float(self.value.data[0]):.4g})"
