"""The empirical barrier-violation loss (paper eq. (10)).

``L = L_D + L_I + L_U`` penalizes, with LeakyReLU standing in for
``max(eps, .)``:

* ``L_I``: ``B(s) < eps`` on the initial set (condition (i)),
* ``L_U``: ``B(s) > -eps`` on the unsafe set (condition (ii)),
* ``L_D``: ``L_f B(s) - lambda(s) B(s) < eps`` on the domain
  (condition (iii)).

Note: equation (10) as printed uses ``L_f B(s) - lambda(s)``; condition
(iii) of Theorem 1 subtracts the *product* ``lambda(x) B(x)``.  The product
form is the default here (it is what the Verifier certifies); the printed
form is available via ``paper_printed_form=True`` for comparison.

The loss and its gradient are computed in coefficient space by
:class:`repro.learner.kernel.BarrierLossKernel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.poly import Polynomial


@dataclass
class BarrierLossTerms:
    """The three sub-losses and their weighted total (floats, for logging)."""

    total: float
    init: float
    unsafe: float
    domain: float


def field_values(field: Sequence[Polynomial], points: np.ndarray) -> np.ndarray:
    """Evaluate a polynomial vector field on a batch: shape ``(m, n)``."""
    from repro.poly.fast_eval import compile_field

    return compile_field(field)(points)
