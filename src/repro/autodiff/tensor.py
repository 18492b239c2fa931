"""Reverse-mode autodiff tensors.

Supports the operation set needed by the SNBC Learner: elementwise
arithmetic with numpy broadcasting, matrix multiplication, reductions, and
the activation functions from the paper (tanh, ReLU, LeakyReLU, sigmoid,
and the Hadamard product of the quadratic network).
"""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

_GRAD_ENABLED = [True]


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (fast inference)."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def _grad_enabled() -> bool:
    return _GRAD_ENABLED[-1]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # sum over leading broadcast axes
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
    ):
        self.data = np.asarray(data, dtype=float)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _grad_enabled()
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(self, data, parents, backward) -> "Tensor":
        # hot path: ops always hand in freshly computed float arrays, so
        # skip Tensor.__init__'s asarray round-trip and flag plumbing
        out = Tensor.__new__(Tensor)
        out.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=float)
        out.grad = None
        requires = False
        for p in parents:
            if p.requires_grad:
                requires = True
                break
        if requires and _GRAD_ENABLED[-1]:
            out.requires_grad = True
            out._parents = parents
        else:
            out.requires_grad = False
            out._parents = ()
        out._backward = backward
        return out

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return self._make(out_data, (self, other), backward)

    def __radd__(self, other) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        def backward(g):
            if self.requires_grad:
                self._accumulate(-g)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self.__add__(self._lift(other).__neg__())

    def __rsub__(self, other) -> "Tensor":
        return self.__neg__().__add__(other)

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return self._make(out_data, (self, other), backward)

    def __rmul__(self, other) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data ** 2), other.shape)
                )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._lift(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data @ other.data

        def backward(g):
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(g, other.data) if self.data.ndim == 2 else g * other.data)
                else:
                    gg = g[..., None, :] if g.ndim == out_data.ndim - 1 else g
                    self._accumulate(_unbroadcast(gg @ other.data.swapaxes(-1, -2), self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, g) if other.data.ndim == 2 else self.data * g)
                else:
                    other._accumulate(
                        _unbroadcast(self.data.swapaxes(-1, -2) @ g, other.shape)
                    )

        return self._make(out_data, (self, other), backward)

    # -- reductions -----------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if not self.requires_grad:
                return
            g_arr = np.asarray(g)
            if axis is not None and not keepdims:
                g_arr = np.expand_dims(g_arr, axis)
            self._accumulate(np.broadcast_to(g_arr, self.shape).copy())

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- nonlinearities ---------------------------------------------------
    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * (1.0 - out_data ** 2))

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * (self.data > 0.0))

        return self._make(out_data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        out_data = np.where(self.data > 0.0, self.data, negative_slope * self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * np.where(self.data > 0.0, 1.0, negative_slope))

        return self._make(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * out_data)

        return self._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * np.sign(self.data))

        return self._make(out_data, (self,), backward)

    def maximum(self, other) -> "Tensor":
        """Elementwise max; gradient flows to the winning branch."""
        other = self._lift(other)
        out_data = np.maximum(self.data, other.data)

        def backward(g):
            mask = self.data >= other.data
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * mask, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * (~mask), other.shape))

        return self._make(out_data, (self, other), backward)

    @staticmethod
    def cat(tensors: List["Tensor"], axis: int = 1) -> "Tensor":
        """Concatenate tensors along an axis (gradient splits back)."""
        tensors = [Tensor._lift(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.concatenate([[0], np.cumsum(sizes)])

        def backward(g):
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(int(start), int(stop))
                    t._accumulate(g[tuple(sl)])

        requires = any(t.requires_grad for t in tensors)
        return Tensor(
            out_data,
            requires_grad=requires,
            _parents=tuple(tensors),
            _backward=backward,
        )

    def reshape(self, *shape) -> "Tensor":
        out_data = self.data.reshape(*shape)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.reshape(self.shape))

        return self._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        out_data = self.data.T

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.T)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    def _accumulate(self, g: np.ndarray) -> None:
        # contributions are freshly computed arrays that no caller mutates
        # in place (Adam reassigns .data/.grad, never writes into them),
        # so aliasing them into .grad is safe and skips a copy per call
        if not isinstance(g, np.ndarray):
            g = np.asarray(g, dtype=float)
        shape = self.data.shape
        if self.grad is None:
            self.grad = g if g.shape == shape else _unbroadcast(g, shape)
        else:
            self.grad = self.grad + (_unbroadcast(g, shape) if g.shape != shape else g)

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode accumulation from this tensor."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor without grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without gradient needs a scalar output")
            grad = np.ones_like(self.data)
        # topological order
        topo: List[Tensor] = []
        visited = set()

        def visit(t: "Tensor") -> None:
            if id(t) in visited or not t.requires_grad:
                return
            visited.add(id(t))
            for p in t._parents:
                visit(p)
            topo.append(t)

        visit(self)
        self._accumulate(np.asarray(grad, dtype=float))
        for t in reversed(topo):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"
