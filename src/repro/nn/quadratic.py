"""Quadratic (cross-product) networks — the neural BC architecture of §4.1.

Each hidden layer computes the Hadamard product of two affine maps,

    x^(i) = (W1^(i) x^(i-1) + b1^(i)) (*) (W2^(i) x^(i-1) + b2^(i)),

so a network with ``l`` hidden layers outputs *exactly* a polynomial of
degree ``2^l`` in the input — which is what lets the Verifier consume the
learned candidate symbolically.  Compared to the Square activation
``(W x + b)^2`` (kept here as :class:`SquareNetwork` for the ablation
study), the cross-product doubles the parameters at equal output degree and
removes the nonnegativity restriction of each unit.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff import Tensor
from repro.nn.layers import Module, Parameter
from repro.poly import Polynomial
from repro.poly.monomials import add_exponents, monomial_index_map, monomials_upto


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    scale = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-scale, scale, size=(fan_in, fan_out))


@lru_cache(maxsize=None)
def _product_plan(n_vars: int, degree: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the product of two ``[x]_degree`` coefficient rows lands in
    ``[x]_{2 degree}``: ``target[p * t + q]`` is the index of monomial
    ``p`` times monomial ``q``; ``order``/``starts`` group the pairs by
    target for one ``np.add.reduceat``."""
    basis = monomials_upto(n_vars, degree)
    index = monomial_index_map(n_vars, 2 * degree)
    target = np.array([index[add_exponents(a, b)] for a in basis for b in basis])
    order = np.argsort(target, kind="stable")
    starts = np.searchsorted(target[order], np.arange(len(index)))
    return target, order, starts


class _ProductNetwork(Module):
    """Shared machinery of the product-activated networks: each hidden
    unit multiplies two affine maps of the previous layer (tied for the
    square activation), so the output is a polynomial of degree ``2^l``
    whose coefficients are an explicit function of the weights."""

    layer_sizes: List[int]
    W_out: Parameter
    b_out: Optional[Parameter]

    def _factors(self) -> List[Tuple[Parameter, Parameter, Parameter, Parameter]]:
        """Per hidden layer ``(W_a, b_a, W_b, b_b)``; the unit computes
        ``(z W_a + b_a) * (z W_b + b_b)``, tied when ``W_b is W_a``."""
        raise NotImplementedError  # pragma: no cover - interface

    @property
    def output_degree(self) -> int:
        """Polynomial degree of the output: ``2^l``."""
        return 2 ** len(self._factors())

    def forward(self, x: Tensor) -> Tensor:
        """Evaluate ``B(x)`` for a batch; returns shape ``(batch,)``."""
        z = x
        for Wa, ba, Wb, bb in self._factors():
            a = z @ Wa + ba
            z = a * a if Wb is Wa else a * (z @ Wb + bb)
        out = z @ self.W_out
        if self.b_out is not None:
            out = out + self.b_out
        return out.reshape(-1)

    def gradient(self, points: np.ndarray) -> np.ndarray:
        """Input-gradient ``grad B`` at a batch of points (numpy, no graph).

        Uses the closed-form layer recursion (paper's equation (9)).
        """
        z = np.atleast_2d(np.asarray(points, dtype=float))
        batch, n = z.shape
        # J holds dz/dx, shape (batch, width, n)
        J = np.broadcast_to(np.eye(n), (batch, n, n)).copy()
        for Wa, ba, Wb, bb in self._factors():
            a = z @ Wa.data + ba.data
            bv = z @ Wb.data + bb.data
            Ja = np.einsum("io,bin->bon", Wa.data, J)
            Jb = np.einsum("io,bin->bon", Wb.data, J)
            J = a[:, :, None] * Jb + bv[:, :, None] * Ja
            z = a * bv
        return np.einsum("bon,oq->bnq", J, self.W_out.data)[:, :, 0]

    # ------------------------------------------------------------------
    def coefficient_map(self) -> Tuple[np.ndarray, Callable[[np.ndarray], None]]:
        """The output's coefficient vector ``c`` over ``[x]_{2^l}``
        (grlex), and its vector-Jacobian product.

        Each unit's coefficient row is an affine combination of the
        previous layer's rows (the bias lands on the constant monomial);
        a product of two rows is scattered into the doubled-degree basis
        through the precomputed monomial product index.  ``vjp(g_c)``
        accumulates ``(dc/dtheta)^T g_c`` into every parameter's
        ``grad``.
        """
        n = self.layer_sizes[0]
        factors = self._factors()
        Z = np.eye(n + 1)[1:]  # x_i over [x]_1 = [1, x_1, ..., x_n]
        degree = 1
        saved = []
        for Wa, ba, Wb, bb in factors:
            A = Wa.data.T @ Z
            A[:, 0] += ba.data
            if Wb is Wa:
                B = A
            else:
                B = Wb.data.T @ Z
                B[:, 0] += bb.data
            _, order, starts = _product_plan(n, degree)
            P = (A[:, :, None] * B[:, None, :]).reshape(len(A), -1)
            saved.append((Z, A, B, degree))
            Z = np.add.reduceat(P[:, order], starts, axis=1)
            degree *= 2
        c = self.W_out.data[:, 0] @ Z
        if self.b_out is not None:
            c[0] += self.b_out.data[0]

        def vjp(g_c: np.ndarray) -> None:
            self.W_out.accumulate_grad((Z @ g_c)[:, None])
            if self.b_out is not None:
                self.b_out.accumulate_grad(g_c[:1])
            g_Z = self.W_out.data * g_c  # (width, t): outer product
            for k in range(len(factors) - 1, -1, -1):
                Wa, ba, Wb, bb = factors[k]
                Zin, A, B, deg = saved[k]
                target = _product_plan(n, deg)[0]
                g_P = g_Z[:, target].reshape(len(A), A.shape[1], A.shape[1])
                g_A = (g_P @ B[:, :, None])[:, :, 0]
                g_B = (A[:, None, :] @ g_P)[:, 0, :]
                sides = [(Wa, ba, g_A + g_B)] if Wb is Wa else [
                    (Wa, ba, g_A), (Wb, bb, g_B)
                ]
                for W, b, g in sides:
                    W.accumulate_grad(Zin @ g.T)
                    b.accumulate_grad(g[:, 0])
                if k:  # the input layer's rows are constant
                    g_Z = sum(W.data @ g for W, _, g in sides)

        return c, vjp

    def to_polynomial(self) -> Polynomial:
        """Exact symbolic expansion of the network output (the same
        coefficient map the Learner trains through)."""
        c, _ = self.coefficient_map()
        return Polynomial.from_coeff_vector(self.layer_sizes[0], self.output_degree, c)

    def __repr__(self) -> str:
        shape = "-".join(str(s) for s in self.layer_sizes + [1])
        return f"{type(self).__name__}({shape}, degree={self.output_degree})"


class QuadraticNetwork(_ProductNetwork):
    """Cross-product activated network producing a scalar polynomial output.

    Parameters
    ----------
    layer_sizes:
        ``[n_in, h_1, ..., h_l]`` — input width followed by one width per
        hidden layer; a Table 1 entry like ``3-5-1`` is
        ``layer_sizes=[3, 5]`` (the trailing 1 is the linear output).
    output_bias:
        Include a constant offset in the output layer (adds the degree-0
        coefficient of ``B``).
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        output_bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        if len(layer_sizes) < 2:
            raise ValueError("need an input width and at least one hidden layer")
        rng = rng or np.random.default_rng()
        self.layer_sizes = list(int(s) for s in layer_sizes)
        self.W1: List[Parameter] = []
        self.b1: List[Parameter] = []
        self.W2: List[Parameter] = []
        self.b2: List[Parameter] = []
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            self.W1.append(Parameter(_glorot(rng, n_in, n_out)))
            self.b1.append(Parameter(rng.uniform(-0.1, 0.1, size=n_out)))
            self.W2.append(Parameter(_glorot(rng, n_in, n_out)))
            self.b2.append(Parameter(rng.uniform(-0.1, 0.1, size=n_out)))
        self.W_out = Parameter(_glorot(rng, self.layer_sizes[-1], 1))
        self.b_out = Parameter(np.zeros(1)) if output_bias else None

    # ------------------------------------------------------------------
    @property
    def n_hidden_layers(self) -> int:
        return len(self.W1)

    def init_from_quadratic_form(
        self,
        P: np.ndarray,
        constant: float,
        noise: float = 1e-2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Warm-start a one-hidden-layer net to ``B(x) = constant - x^T P x``.

        Each eigencomponent ``lambda_i (v_i . x)^2`` of ``P`` maps onto one
        cross-product unit via ``W1_col = v_i``, ``W2_col = -lambda_i v_i``.
        Spare units (width beyond ``n``) get small random weights so they
        stay trainable.  A Lyapunov-shaped start drastically reduces CEGIS
        rounds in higher dimensions (used by :class:`repro.cegis.SNBC`).
        """
        if self.n_hidden_layers != 1:
            raise ValueError("warm start supports exactly one hidden layer")
        if self.b_out is None:
            raise ValueError("warm start needs an output bias for the constant")
        rng = rng or np.random.default_rng(0)
        n, h = self.layer_sizes[0], self.layer_sizes[1]
        P = np.asarray(P, dtype=float)
        if P.shape != (n, n):
            raise ValueError(f"P must be {n}x{n}")
        eigvals, eigvecs = np.linalg.eigh(0.5 * (P + P.T))
        order = np.argsort(-np.abs(eigvals))
        W1 = noise * rng.normal(size=(n, h))
        W2 = noise * rng.normal(size=(n, h))
        for j, idx in enumerate(order[: min(h, n)]):
            W1[:, j] = eigvecs[:, idx]
            W2[:, j] = -float(eigvals[idx]) * eigvecs[:, idx]
        self.W1[0].data = W1
        self.W2[0].data = W2
        self.b1[0].data = np.zeros(h)
        self.b2[0].data = np.zeros(h)
        self.W_out.data = np.ones((h, 1))
        self.b_out.data = np.array([float(constant)])

    def _factors(self):
        return list(zip(self.W1, self.b1, self.W2, self.b2))


class SquareNetwork(_ProductNetwork):
    """Square-activation network ``x^(i) = (W x^(i-1) + b)^2`` (ablation).

    Same output degree ``2^l`` as :class:`QuadraticNetwork` with half the
    parameters, but every hidden unit is nonnegative, which restricts the
    function class (the paper's motivation for the cross-product form).
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        output_bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        if len(layer_sizes) < 2:
            raise ValueError("need an input width and at least one hidden layer")
        rng = rng or np.random.default_rng()
        self.layer_sizes = list(int(s) for s in layer_sizes)
        self.W: List[Parameter] = []
        self.b: List[Parameter] = []
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            self.W.append(Parameter(_glorot(rng, n_in, n_out)))
            self.b.append(Parameter(rng.uniform(-0.1, 0.1, size=n_out)))
        self.W_out = Parameter(_glorot(rng, self.layer_sizes[-1], 1))
        self.b_out = Parameter(np.zeros(1)) if output_bias else None

    def init_from_quadratic_form(
        self,
        P: np.ndarray,
        constant: float,
        noise: float = 1e-2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Warm-start to ``constant - x^T P x``; the sign-indefinite part
        lands in the output weights since squared units are nonnegative."""
        if len(self.W) != 1:
            raise ValueError("warm start supports exactly one hidden layer")
        if self.b_out is None:
            raise ValueError("warm start needs an output bias for the constant")
        rng = rng or np.random.default_rng(0)
        n, h = self.layer_sizes[0], self.layer_sizes[1]
        P = np.asarray(P, dtype=float)
        if P.shape != (n, n):
            raise ValueError(f"P must be {n}x{n}")
        eigvals, eigvecs = np.linalg.eigh(0.5 * (P + P.T))
        order = np.argsort(-np.abs(eigvals))
        W = noise * rng.normal(size=(n, h))
        W_out = noise * rng.normal(size=(h, 1))
        for j, idx in enumerate(order[: min(h, n)]):
            W[:, j] = eigvecs[:, idx]
            W_out[j, 0] = -float(eigvals[idx])
        self.W[0].data = W
        self.b[0].data = np.zeros(h)
        self.W_out.data = W_out
        self.b_out.data = np.array([float(constant)])

    def _factors(self):
        return [(W, b, W, b) for W, b in zip(self.W, self.b)]
