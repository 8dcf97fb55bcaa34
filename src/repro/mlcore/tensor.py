"""Reverse-mode automatic differentiation on NumPy arrays.

This is the computational core of the MLapp reproduction.  A
:class:`Tensor` wraps a ``numpy.ndarray`` and records the operations applied
to it; calling :meth:`Tensor.backward` on a scalar result propagates
gradients to every tensor created with ``requires_grad=True``.

Design
------
Each operation produces a new tensor carrying

* ``_parents`` — the input tensors, and
* ``_backward`` — a closure mapping the gradient of the output to a tuple of
  gradients with respect to the parents (``None`` entries mean "no
  gradient").

:meth:`Tensor.backward` performs an iterative topological sort and routes
gradients to parents, summing over broadcast dimensions via
:func:`_unbroadcast`.  Only leaves (tensors without ``_backward``) retain a
``.grad``.

The training run builds its graph from the fused nodes of
:mod:`repro.mlcore.functional`, :mod:`repro.mlcore.losses` and the models;
the generic operators below are the few the models still apply directly
and the primitive tape the fused nodes' oracles are written on
(``tests/mlcore/test_fused_ops.py``).  Gradients are whole-array NumPy
expressions: no per-element Python loop appears on any hot path.
"""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]
BackwardFn = Callable[[np.ndarray], Tuple[Optional[np.ndarray], ...]]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``, undoing NumPy broadcasting."""
    if getattr(grad, "shape", None) == shape:
        return grad
    grad = np.asarray(grad, dtype=np.float64)
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape))
                 if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with reverse-mode autograd.

    Parameters
    ----------
    data:
        Array-like numerical data.  Integer/boolean input is promoted to
        ``float64`` so every tensor is differentiable in principle.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data: ArrayLike, requires_grad: bool = False) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype.kind in "iub":
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Optional[BackwardFn] = None
        self._parents: Tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------ #
    # construction of graph nodes
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(data: np.ndarray, parents: Tuple["Tensor", ...],
              backward: BackwardFn) -> "Tensor":
        """Create an intermediate node if any parent requires a gradient."""
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    @staticmethod
    def _coerce(value: Union["Tensor", ArrayLike]) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            # the one copy: ``grad`` may alias another node's gradient or be a
            # read-only broadcast view, ``self.grad`` is updated in place below
            self.grad = np.array(grad, dtype=np.float64)
        else:
            self.grad += grad

    # ------------------------------------------------------------------ #
    # backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate from this tensor.

        ``grad`` defaults to one and must be provided for non-scalar
        outputs.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() on a non-scalar tensor requires a gradient")
            grad = np.ones_like(self.data, dtype=np.float64)
        grad = np.asarray(grad, dtype=np.float64)

        # Iterative topological sort of the reachable interior nodes; leaves
        # accumulate as soon as a child routes a gradient to them, so they
        # need no place in the order.
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent._backward is not None and id(parent) not in visited:
                    stack.append((parent, False))

        pending = {id(self): grad}
        for node in reversed(topo):
            node_grad = pending.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                node._accumulate(node_grad)
                continue
            for parent, pgrad in zip(node._parents, node._backward(node_grad)):
                if pgrad is None or not parent.requires_grad:
                    continue
                if parent._backward is None:
                    parent._accumulate(pgrad)
                    continue
                if pgrad.shape != parent.data.shape:
                    pgrad = _unbroadcast(pgrad, parent.data.shape)
                key = id(parent)
                earlier = pending.get(key)
                pending[key] = pgrad if earlier is None else earlier + pgrad

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        return self._make(self.data + other.data, (self, other),
                          lambda g: (g, g))

    __radd__ = __add__

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        return self._make(self.data - other.data, (self, other),
                          lambda g: (g, -g))

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        a, b = self.data, other.data
        return self._make(a * b, (self, other), lambda g: (g * b, g * a))

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        a, b = self.data, other.data
        return self._make(a / b, (self, other),
                          lambda g: (g / b, -g * a / (b * b)))

    def __rtruediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return self._make(-self.data, (self,), lambda g: (-g,))

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        a, b = self.data, other.data

        def backward(g: np.ndarray):
            g = np.asarray(g, dtype=np.float64)
            if a.ndim == 1 and b.ndim == 1:
                return g * b, g * a
            if a.ndim == 1:
                # (k,) @ (..., k, n) -> (..., n)
                ga = (g[..., None, :] * b).sum(axis=-1)
                gb = a[..., :, None] * g[..., None, :]
                return ga, gb
            if b.ndim == 1:
                # (..., m, k) @ (k,) -> (..., m)
                ga = g[..., :, None] * b
                gb = (np.swapaxes(a, -1, -2) @ g[..., :, None])[..., 0]
                return ga, gb
            ga = g @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ g
            return ga, gb

        return self._make(a @ b, (self, other), backward)

    # ------------------------------------------------------------------ #
    # element-wise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        value = np.exp(self.data)
        return self._make(value, (self,), lambda g: (g * value,))

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)
        return self._make(value, (self,), lambda g: (g * (1.0 - value * value),))

    def relu(self) -> "Tensor":
        mask = (self.data > 0).astype(np.float64)
        return self._make(self.data * mask, (self,), lambda g: (g * mask,))

    def clip(self, low: float, high: float) -> "Tensor":
        mask = ((self.data >= low) & (self.data <= high)).astype(np.float64)
        return self._make(np.clip(self.data, low, high), (self,),
                          lambda g: (g * mask,))

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        value = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(g: np.ndarray):
            g = np.asarray(g, dtype=np.float64)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for a in sorted(ax % len(shape) for ax in axes):
                    g = np.expand_dims(g, a)
            return (np.broadcast_to(g, shape),)

        return self._make(value, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
             keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / max(count, 1))

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        value = self.data.max(axis=axis, keepdims=keepdims)
        data = self.data

        def backward(g: np.ndarray):
            g = np.asarray(g, dtype=np.float64)
            if axis is None:
                mask = (data == data.max()).astype(np.float64)
                mask /= mask.sum()
                return (mask * g,)
            vkeep = data.max(axis=axis, keepdims=True)
            mask = (data == vkeep).astype(np.float64)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            gk = g if keepdims else np.expand_dims(g, axis)
            return (mask * gk,)

        return self._make(value, (self,), backward)

    def min(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        return self._make(self.data.reshape(shape), (self,),
                          lambda g: (np.asarray(g).reshape(original),))

    def transpose(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inverse = tuple(np.argsort(axes))
        return self._make(self.data.transpose(axes), (self,),
                          lambda g: (np.asarray(g).transpose(inverse),))

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        shape = self.data.shape

        def backward(g: np.ndarray):
            full = np.zeros(shape, dtype=np.float64)
            np.add.at(full, index, np.asarray(g, dtype=np.float64))
            return (full,)

        return self._make(self.data[index], (self,), backward)

    def expand_dims(self, axis: int) -> "Tensor":
        axis = axis % (self.data.ndim + 1)
        new_shape = self.data.shape[:axis] + (1,) + self.data.shape[axis:]
        return self.reshape(new_shape)

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        if axis is None:
            new_shape = tuple(s for s in self.data.shape if s != 1) or (1,)
        else:
            if self.data.shape[axis] != 1:
                raise ValueError("cannot squeeze a non-singleton axis")
            new_shape = self.data.shape[:axis] + self.data.shape[axis + 1:]
        return self.reshape(new_shape)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [Tensor._coerce(t) for t in tensors]
    value = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray):
        g = np.asarray(g, dtype=np.float64)
        outs = []
        for start, stop in zip(offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(int(start), int(stop))
            outs.append(g[tuple(slicer)])
        return tuple(outs)

    return Tensor._make(value, tuple(tensors), backward)
