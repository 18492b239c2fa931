"""A minimal reverse-mode automatic differentiation engine on numpy.

Stands in for PyTorch for the generic networks: NN controllers, behaviour
cloning and DDPG.  Only first-order gradients are supported.  The barrier
Learner does not build graphs at all — its network is exactly a
polynomial, so it trains in coefficient space with closed-form gradients
(:mod:`repro.learner.kernel`).
"""

from repro.autodiff.tensor import Tensor, no_grad

__all__ = ["Tensor", "no_grad"]
