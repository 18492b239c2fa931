"""The SNBC Learner: joint training of the neural BC and multiplier (§4.1).

* :mod:`repro.learner.datasets` — the sampled training sets ``S_I``, ``S_U``,
  ``S_D`` and their augmentation with counterexamples;
* :mod:`repro.learner.loss` — the loss terms of the empirical violation
  loss (10) with the LeakyReLU surrogate for ``max(eps, .)``;
* :mod:`repro.learner.kernel` — loss (10) and its closed-form gradient in
  coefficient space: the quadratic network is exactly a polynomial, so
  every term is linear in its monomial coefficients over features that
  are precomputed once per fit;
* :mod:`repro.learner.trainer` — Adam-based joint training of the quadratic
  network ``B(x)`` and the multiplier network ``lambda(x)``.
"""

from repro.learner.datasets import TrainingData
from repro.learner.loss import BarrierLossTerms
from repro.learner.kernel import BarrierLossKernel
from repro.learner.trainer import BarrierLearner, LearnerConfig

__all__ = [
    "TrainingData",
    "BarrierLossKernel",
    "BarrierLossTerms",
    "BarrierLearner",
    "LearnerConfig",
]
