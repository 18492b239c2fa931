"""Generic feedforward layers on the autodiff engine."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.autodiff import Tensor, no_grad


class Parameter(Tensor):
    """A trainable tensor (always ``requires_grad``)."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add a closed-form gradient contribution (no graph involved)."""
        self.grad = g if self.grad is None else self.grad + g


class Module:
    """Base class: tracks parameters through attribute discovery."""

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        seen = set()

        def collect(obj) -> None:
            if isinstance(obj, Parameter):
                if id(obj) not in seen:
                    seen.add(id(obj))
                    params.append(obj)
            elif isinstance(obj, Module):
                for v in vars(obj).values():
                    collect(v)
            elif isinstance(obj, (list, tuple)):
                for v in obj:
                    collect(v)
            elif isinstance(obj, dict):
                for v in obj.values():
                    collect(v)

        collect(self)
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Graph-free numpy inference on a batch of points."""
        with no_grad():
            out = self.forward(Tensor(np.atleast_2d(points)))
        return out.numpy()

    def n_parameters(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def state_dict(self) -> List[np.ndarray]:
        """Snapshot of parameter values (ordered as :meth:`parameters`)."""
        return [p.data.copy() for p in self.parameters()]

    def load_state_dict(self, state: Sequence[np.ndarray]) -> None:
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError("state size mismatch")
        for p, s in zip(params, state):
            if p.data.shape != s.shape:
                raise ValueError("parameter shape mismatch")
            p.data = s.copy()


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    scale = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-scale, scale, size=(fan_in, fan_out))


class Dense(Module):
    """Affine layer ``x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.W = Parameter(_glorot(rng, in_features, out_features))
        self.b = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.W
        if self.b is not None:
            out = out + self.b
        return out


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.01):
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Sequential(Module):
    """Chain of modules."""

    def __init__(self, *modules: Module):
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for m in self.modules:
            x = m(x)
        return x

    def __iter__(self) -> Iterable[Module]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)
