"""Exact rational polynomial arithmetic and PSD certification over ℚ.

Everything in this module computes exactly — :class:`fractions.Fraction`
coefficients and Python integers, no floats anywhere past the
constructors.  The two facts that make an exact a-posteriori
certificate check possible:

* every IEEE-754 double is a dyadic rational, so ``Fraction(float)`` is
  a *lossless* embedding of the solver's output into ℚ (and rounding a
  double to a ``2^-k`` grid is one exact float scaling plus ``round``);
* positive semidefiniteness of a rational symmetric matrix is decidable
  by a pivoted LDLᵀ elimination (:func:`ldlt_psd`): the matrix is PSD
  iff the elimination never meets a negative pivot and every zero pivot
  heads an all-zero trailing block.  The elimination runs fraction-free
  on integers (Bareiss), which decides the same signs as the rational
  one.

On top of those, :class:`RationalPolynomial` mirrors the float
:class:`repro.poly.Polynomial` API closely enough to recompute the
Putinar identities (13)-(15) symbolically (see
:mod:`repro.soundness.checker`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.poly.monomials import Exponent, add_exponents, grlex_key
from repro.poly.polynomial import Polynomial

RationalLike = Union[int, Fraction]

#: dyadic diagonal shifts tried (smallest first) to restore PSD-ness of a
#: near-singular Gram matrix; each is charged against the strictness
#: margin through the basis bound (see ``checker``)
DEFAULT_DELTA_LADDER: Tuple[Fraction, ...] = tuple(
    Fraction(1, 2 ** k) for k in (60, 52, 44, 36, 30, 24, 18, 12)
)


def _as_fraction(value) -> Fraction:
    """Exact embedding of ints/floats/Fractions into ℚ."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(float(value))


def _check_grid(max_denominator: Optional[int]) -> None:
    """Reject a quantization grid that is not ``1/2^k``."""
    d = max_denominator
    if d is not None and (not isinstance(d, int) or d < 1 or d & (d - 1)):
        raise ValueError(
            f"max_denominator must be a power of two or None, got {d!r}"
        )


def _on_grid(x: float, scale: int) -> int:
    """``round(x * scale)`` (ties to even) for a power-of-two ``scale``:
    the float product is exact unless it leaves the double range."""
    try:
        return round(x * scale)
    except OverflowError:
        return round(Fraction(x) * scale)  # re-raises for an infinite x


class RationalPolynomial:
    """A sparse multivariate polynomial over ℚ (immutable by convention)."""

    __slots__ = ("n_vars", "coeffs")

    def __init__(
        self,
        n_vars: int,
        coeffs: Optional[Mapping[Exponent, RationalLike]] = None,
    ):
        if n_vars < 1:
            raise ValueError("a polynomial needs at least one variable")
        self.n_vars = int(n_vars)
        cleaned: Dict[Exponent, Fraction] = {}
        if coeffs:
            for alpha, c in coeffs.items():
                alpha = tuple(int(a) for a in alpha)
                if len(alpha) != n_vars:
                    raise ValueError(
                        f"exponent {alpha} has {len(alpha)} entries, "
                        f"expected {n_vars}"
                    )
                c = _as_fraction(c)
                if c != 0:
                    cleaned[alpha] = cleaned.get(alpha, Fraction(0)) + c
        self.coeffs = {a: c for a, c in cleaned.items() if c != 0}

    @classmethod
    def _make(
        cls, n_vars: int, coeffs: Dict[Exponent, Fraction]
    ) -> "RationalPolynomial":
        """Internal constructor for already-validated exponents and
        exact coefficients: only drops the zero ones."""
        self = object.__new__(cls)
        self.n_vars = n_vars
        self.coeffs = {a: c for a, c in coeffs.items() if c}
        return self

    # ------------------------------------------------------------------
    @classmethod
    def from_polynomial(
        cls, p: Polynomial, max_denominator: Optional[int] = None
    ) -> "RationalPolynomial":
        """Embed a float polynomial into ℚ.

        Without ``max_denominator`` the embedding is exact (doubles are
        dyadic rationals); with it (a power of two), every coefficient
        is rounded to the ``1/max_denominator`` grid — the quantization
        error then lands in the residual the checker absorbs, so
        exactness of the final identity is unaffected.
        """
        _check_grid(max_denominator)
        if max_denominator is None:
            coeffs = {a: Fraction(c) for a, c in p.coeffs.items()}
        else:
            coeffs = {
                a: Fraction(_on_grid(float(c), max_denominator),
                            max_denominator)
                for a, c in p.coeffs.items()
            }
        return cls(p.n_vars, coeffs)

    @classmethod
    def zero(cls, n_vars: int) -> "RationalPolynomial":
        return cls(n_vars, {})

    @classmethod
    def constant(cls, n_vars: int, value: RationalLike) -> "RationalPolynomial":
        return cls(n_vars, {(0,) * n_vars: _as_fraction(value)})

    # ------------------------------------------------------------------
    @property
    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(alpha) for alpha in self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, alpha: Exponent) -> Fraction:
        return self.coeffs.get(tuple(alpha), Fraction(0))

    def support(self) -> Tuple[Exponent, ...]:
        return tuple(sorted(self.coeffs, key=grlex_key))

    # ------------------------------------------------------------------
    def __add__(self, other) -> "RationalPolynomial":
        if isinstance(other, (int, Fraction)):
            other = RationalPolynomial.constant(self.n_vars, other)
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        if self.n_vars != other.n_vars:
            raise ValueError("variable count mismatch")
        coeffs = dict(self.coeffs)
        for alpha, c in other.coeffs.items():
            prev = coeffs.get(alpha)
            coeffs[alpha] = c if prev is None else prev + c
        return RationalPolynomial._make(self.n_vars, coeffs)

    __radd__ = __add__

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial._make(
            self.n_vars, {a: -c for a, c in self.coeffs.items()}
        )

    def __sub__(self, other) -> "RationalPolynomial":
        if isinstance(other, (int, Fraction)):
            other = RationalPolynomial.constant(self.n_vars, other)
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other) -> "RationalPolynomial":
        return (-self).__add__(other)

    def __mul__(self, other) -> "RationalPolynomial":
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            return RationalPolynomial._make(
                self.n_vars, {a: c * f for a, c in self.coeffs.items()}
            )
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        if self.n_vars != other.n_vars:
            raise ValueError("variable count mismatch")
        coeffs: Dict[Exponent, Fraction] = {}
        for a1, c1 in self.coeffs.items():
            for a2, c2 in other.coeffs.items():
                alpha = add_exponents(a1, a2)
                prev = coeffs.get(alpha)
                coeffs[alpha] = c1 * c2 if prev is None else prev + c1 * c2
        return RationalPolynomial._make(self.n_vars, coeffs)

    __rmul__ = __mul__

    def diff(self, index: int) -> "RationalPolynomial":
        if not 0 <= index < self.n_vars:
            raise ValueError(f"variable index {index} out of range")
        coeffs: Dict[Exponent, Fraction] = {}
        for alpha, c in self.coeffs.items():
            a = alpha[index]
            if a == 0:
                continue
            beta = tuple(
                ai - 1 if i == index else ai for i, ai in enumerate(alpha)
            )
            coeffs[beta] = coeffs.get(beta, Fraction(0)) + c * a
        return RationalPolynomial(self.n_vars, coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.n_vars == other.n_vars and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.n_vars, frozenset(self.coeffs.items())))

    def to_polynomial(self) -> Polynomial:
        """Nearest float polynomial (for reporting only — lossy)."""
        return Polynomial(
            self.n_vars, {a: float(c) for a, c in self.coeffs.items()}
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RationalPolynomial(n_vars={self.n_vars}, {self.coeffs!r})"


# ----------------------------------------------------------------------
# field / Lie-derivative helpers
# ----------------------------------------------------------------------
def rational_lie_derivative(
    B: RationalPolynomial, field: Sequence[RationalPolynomial]
) -> RationalPolynomial:
    """Exact ``L_f B = sum_i dB/dx_i * f_i`` over ℚ."""
    if len(field) != B.n_vars:
        raise ValueError("field dimension mismatch")
    out = RationalPolynomial.zero(B.n_vars)
    for i, fi in enumerate(field):
        out = out + B.diff(i) * fi
    return out


def rational_closed_loop(
    system,
    controller_polys: Sequence[Polynomial],
    error: Sequence[float],
    max_denominator: Optional[int] = None,
) -> List[RationalPolynomial]:
    """Exact closed-loop field ``f0 + G (h + w)`` over ℚ, recomputed from
    the system's own polynomials (independent of the float pipeline)."""
    h = [
        RationalPolynomial.from_polynomial(p, max_denominator)
        for p in controller_polys
    ]
    w = [_as_fraction(float(e)) for e in error]
    if system.n_inputs and len(h) != system.n_inputs:
        raise ValueError("controller polynomial count mismatch")
    out: List[RationalPolynomial] = []
    for i in range(system.n_vars):
        fi = RationalPolynomial.from_polynomial(system.f0[i], max_denominator)
        for j in range(system.n_inputs):
            Gij = RationalPolynomial.from_polynomial(
                system.G[i][j], max_denominator
            )
            fi = fi + Gij * (h[j] + RationalPolynomial.constant(
                system.n_vars, w[j]
            ))
        out.append(fi)
    return out


# ----------------------------------------------------------------------
# Gram matrices over ℚ
# ----------------------------------------------------------------------
RationalMatrix = List[List[Fraction]]


def rationalize_matrix(
    Q, max_denominator: Optional[int] = None
) -> RationalMatrix:
    """Symmetrized exact (or quantized) embedding of a float matrix.

    The IPM returns numerically-symmetric matrices, but only the average
    ``(Q_ij + Q_ji) / 2`` is guaranteed symmetric in ℚ.  With
    ``max_denominator = 2^k`` each float is first rounded to the ``2^-k``
    grid (an exact float scaling plus ``round``), so every entry has a
    denominator dividing ``2 * max_denominator``; ``None`` keeps every
    bit of the solver's output.
    """
    _check_grid(max_denominator)
    M = np.asarray(Q, dtype=float).tolist()
    n = len(M)
    if max_denominator is None:
        num = [[Fraction(x) for x in row] for row in M]
        den = 2
    else:
        num = [[_on_grid(x, max_denominator) for x in row] for row in M]
        den = 2 * max_denominator
    out: RationalMatrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            out[i][j] = out[j][i] = Fraction(num[i][j] + num[j][i], den)
    return out


def shift_diagonal(Q: RationalMatrix, delta: Fraction) -> RationalMatrix:
    """``Q + delta * I`` (fresh copy)."""
    n = len(Q)
    out = [row[:] for row in Q]
    for i in range(n):
        out[i][i] = out[i][i] + delta
    return out


def gram_polynomial(
    basis: Sequence[Exponent], Q: RationalMatrix, n_vars: int
) -> RationalPolynomial:
    """Exact expansion of ``m(x)^T Q m(x)`` over ℚ."""
    coeffs: Dict[Exponent, Fraction] = {}
    for i, bi in enumerate(basis):
        row = Q[i]
        for j, bj in enumerate(basis):
            q = row[j]
            if q == 0:
                continue
            alpha = add_exponents(bi, bj)
            prev = coeffs.get(alpha)
            coeffs[alpha] = q if prev is None else prev + q
    return RationalPolynomial._make(n_vars, coeffs)


def ldlt_psd(Q: RationalMatrix) -> bool:
    """Exact PSD decision for a symmetric rational matrix.

    Symmetric Gaussian elimination with greatest-diagonal pivoting:

    * a negative maximal diagonal pivot disproves PSD-ness;
    * a zero maximal diagonal pivot requires the whole trailing block to
      vanish (a PSD matrix with ``Q_ii = 0`` has zero row/column ``i``);
    * completing all eliminations with positive pivots proves
      ``Q = L D Lᵀ`` with ``D >= 0``, hence PSD.

    The elimination is fraction-free (Bareiss): ``Q`` is scaled to an
    integer matrix by the LCM of its denominators, and each step forms
    ``(d * a_ij - a_ik * a_kj) // prev`` with ``d`` the current and
    ``prev`` the previous pivot — an exact division, since every entry
    is a minor of the scaled matrix.  The trailing block after a step is
    the rational Schur complement times a product of the pivots so far
    and the scale, all positive, so every pivot sign, argmax and
    zero-block test decides exactly as rational elimination would.  No
    tolerance and no gcd anywhere.
    """
    scale = math.lcm(*(q.denominator for row in Q for q in row))
    A = [[q.numerator * (scale // q.denominator) for q in row] for row in Q]
    prev = 1
    while A:
        diag = [row[i] for i, row in enumerate(A)]
        d = max(diag)
        if d <= 0:
            # a negative largest diagonal disproves PSD-ness; a zero one
            # is PSD iff the whole trailing block is exactly zero
            return d == 0 and not any(any(row) for row in A)
        p = diag.index(d)
        # rational elimination swaps the pivot into the lead position;
        # the remaining rows keep that order, so ties break the same way
        rest = list(range(1, len(A)))
        if p:
            rest[p - 1] = 0
        pivot_row = A[p]
        col = [pivot_row[r] for r in rest]
        block: List[List[int]] = []
        for a, r in enumerate(rest):
            row_r, c = A[r], col[a]
            # symmetric: the part left of the diagonal is already known
            block.append(
                [block[b][a] for b in range(a)]
                + [
                    (d * row_r[s] - c * cs) // prev
                    for s, cs in zip(rest[a:], col[a:])
                ]
            )
        A, prev = block, d
    return True


EPS = float(np.finfo(float).eps)
TINY = 5e-324  # smallest positive subnormal double


def _float_min_eig(Q: RationalMatrix) -> Tuple[float, float]:
    """Float estimate of the smallest eigenvalue of ``Q`` and a bound
    ``tau`` on its error: ``lambda_min(Q) <= estimate + tau``.

    ``tau = (64 n + 2) eps ||M||_F + n u`` with ``M`` the rounded float
    copy and ``u`` the smallest subnormal: rounding each entry moves every
    eigenvalue by at most ``||M - Q||_2 <= eps ||Q||_F + n u`` (Weyl), and
    the backward-stable
    symmetric eigensolver by at most ``p(n) eps ||M||_2`` with LAPACK's
    modest ``p(n)``, taken here as ``64 n``.  Returns ``(-inf, inf)``
    (no information) when the conversion or the solver fails; a
    non-finite ``tau`` never proves anything either.
    """
    try:
        M = np.array([[x.numerator / x.denominator for x in row] for row in Q])
        estimate = float(np.linalg.eigvalsh(M)[0])
    except Exception:  # pragma: no cover - overflow / no convergence
        return float("-inf"), float("inf")
    n = len(Q)
    return estimate, (64 * n + 2) * EPS * math.sqrt(float(np.vdot(M, M))) + n * TINY


def find_psd_shift(
    Q: RationalMatrix,
    ladder: Sequence[Fraction] = DEFAULT_DELTA_LADDER,
) -> Optional[Fraction]:
    """Smallest shift ``delta`` in ``{0} ∪ ladder`` with ``Q + delta I``
    exactly PSD, or ``None`` when even the largest rung fails.

    A float eigenvalue estimate skips work that cannot succeed: the
    unshifted exact pass when the estimate is below ``-tau`` (its error
    bound, so ``Q`` is provably indefinite), and ladder rungs that
    obviously cannot restore PSD-ness.  The accepted rung is always
    certified by exact LDLᵀ.
    """
    min_eig, tau = _float_min_eig(Q)
    if not min_eig < -tau and ldlt_psd(Q):
        return Fraction(0)
    for delta in sorted(ladder):
        # a shift below ~|min eig| cannot restore PSD-ness; the float
        # screen only ever *skips* rungs, acceptance is exact
        if min_eig < 0 and float(delta) < -min_eig * 0.5:
            continue
        if ldlt_psd(shift_diagonal(Q, delta)):
            return delta
    return None


# ----------------------------------------------------------------------
# box bounds over ℚ
# ----------------------------------------------------------------------
def monomial_box_bound(
    alpha: Exponent, lo: Sequence[float], hi: Sequence[float]
) -> Fraction:
    """Exact bound ``max |x^alpha|`` over the box, via
    ``prod_i max(|lo_i|, |hi_i|)^alpha_i``."""
    out = Fraction(1)
    for a, l, h in zip(alpha, lo, hi):
        if a:
            m = max(abs(_as_fraction(float(l))), abs(_as_fraction(float(h))))
            out *= m ** a
    return out


def basis_square_bound(
    basis: Iterable[Exponent], lo: Sequence[float], hi: Sequence[float]
) -> Fraction:
    """Exact bound ``S >= max_x sum_k m_k(x)^2`` over the box — the price
    of a diagonal Gram shift: ``m^T (Q + delta I) m <= m^T Q m + delta S``."""
    total = Fraction(0)
    for beta in basis:
        total += monomial_box_bound(tuple(2 * b for b in beta), lo, hi)
    return total
