"""First-order optimizers (SGD with momentum, Adam)."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.nn.layers import Parameter


class Optimizer:
    """Base optimizer over a fixed parameter list."""

    def __init__(self, parameters: Sequence[Parameter]):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer needs at least one parameter")

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def state_dict(self) -> Dict[str, Any]:  # pragma: no cover - interface
        raise NotImplementedError

    def load_state_dict(self, state: Dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1e-2,
        momentum: float = 0.0,
    ):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v -= self.lr * p.grad
            p.data = p.data + v

    def state_dict(self) -> Dict[str, Any]:
        return {"velocity": [v.tolist() for v in self._velocity]}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        vel = [np.asarray(v, dtype=float) for v in state["velocity"]]
        if len(vel) != len(self._velocity):
            raise ValueError(
                f"state has {len(vel)} velocity buffers, "
                f"optimizer has {len(self._velocity)}"
            )
        self._velocity = [
            v.reshape(old.shape) for v, old in zip(vel, self._velocity)
        ]


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction.

    The moments live in two flat vectors over all parameters, so a step
    is one vectorised update.  Every operation is elementwise, hence
    bitwise-identical to updating each parameter on its own; a parameter
    without a gradient keeps its weights and moments.
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        sizes = [p.data.size for p in self.parameters]
        self._offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        self._m = np.zeros(self._offsets[-1])
        self._v = np.zeros(self._offsets[-1])
        self._t = 0

    def _segments(self, flat: np.ndarray) -> List[np.ndarray]:
        """``flat`` cut back into per-parameter arrays (views)."""
        return [
            flat[a:b].reshape(p.data.shape)
            for p, a, b in zip(self.parameters, self._offsets[:-1], self._offsets[1:])
        ]

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        live = [p for p in self.parameters if p.grad is not None]
        if not live:
            return
        if len(live) == len(self.parameters):
            sel = slice(None)
        else:
            sel = np.concatenate([
                np.arange(a, b)
                for p, a, b in zip(self.parameters, self._offsets[:-1], self._offsets[1:])
                if p.grad is not None
            ])
        g = np.concatenate([p.grad.ravel() for p in live])
        theta = np.concatenate([p.data.ravel() for p in live])
        if self.weight_decay:
            g = g + self.weight_decay * theta
        m = self._m[sel] * b1 + (1.0 - b1) * g
        v = self._v[sel] * b2 + (1.0 - b2) * g * g
        self._m[sel] = m
        self._v[sel] = v
        m_hat = m / (1.0 - b1 ** self._t)
        v_hat = v / (1.0 - b2 ** self._t)
        theta = theta - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        offset = 0
        for p in live:
            size = p.data.size
            p.data = theta[offset:offset + size].reshape(p.data.shape)
            offset += size

    def state_dict(self) -> Dict[str, Any]:
        return {
            "t": self._t,
            "m": [m.tolist() for m in self._segments(self._m)],
            "v": [v.tolist() for v in self._segments(self._v)],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        m = [np.asarray(a, dtype=float) for a in state["m"]]
        v = [np.asarray(a, dtype=float) for a in state["v"]]
        n = len(self.parameters)
        if len(m) != n or len(v) != n:
            raise ValueError(
                f"state has {len(m)}/{len(v)} moment buffers, "
                f"optimizer has {n}"
            )
        for flat, parts in ((self._m, m), (self._v, v)):
            for seg, part in zip(self._segments(flat), parts):
                seg[...] = part.reshape(seg.shape)
        self._t = int(state["t"])
