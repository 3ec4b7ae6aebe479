"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy array. When gradients are enabled, every
operation records its input tensors and a vector-Jacobian closure on the
output node. Node ids grow monotonically with creation order, so the
recorded graph is an implicit tape whose order is already topological:
``backward`` walks the slice of that tape reachable from the loss exactly
once in reverse, accumulating gradients additively into leaf tensors that
require them.

Everything is float64 so finite-difference checks can be tight. There is
no fusion, no parallelism and no in-place graph surgery; the tape is
rebuilt on every forward pass.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf as _erf


class ShapeMismatch(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NotScalar(ValueError):
    """Backward was started from a tensor with more than one element."""


_node_ids = itertools.count()
_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (sampling, oracles)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_id")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
        self._id = next(_node_ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise NotScalar(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def copy(self, requires_grad: bool | None = None) -> "Tensor":
        rg = self.requires_grad if requires_grad is None else requires_grad
        return Tensor(self.data.copy(), requires_grad=rg)

    def __add__(self, other):
        return add(self, other)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _record(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the pre-broadcast shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise primitives ---------------------------------------------


def _broadcast(op, a: Tensor, b: Tensor) -> np.ndarray:
    """``op`` (a numpy ufunc) over broadcast operands; ``ShapeMismatch`` if they do not broadcast."""
    try:
        return op(a.data, b.data)
    except ValueError:
        raise ShapeMismatch(f"{op.__name__}: cannot broadcast {a.shape} with {b.shape}") from None


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = _broadcast(np.add, a, b)

    def vjp(g):
        return (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape))

    return _record(data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = _broadcast(np.subtract, a, b)

    def vjp(g):
        return (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape))

    return _record(data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = _broadcast(np.multiply, a, b)

    def vjp(g):
        return (_unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape))

    return _record(data, (a, b), vjp)


def scale(a, s: float) -> Tensor:
    """Multiply by a plain python scalar (not a tensor)."""
    a = as_tensor(a)
    s = float(s)
    return _record(a.data * s, (a,), lambda g: (g * s,))


# -- linear algebra -----------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatch(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul inner dims differ: {a.shape} x {b.shape}")
    data = a.data @ b.data

    def vjp(g):
        return (g @ b.data.T, a.data.T @ g)

    return _record(data, (a, b), vjp)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ShapeMismatch(f"transpose needs a 2-d tensor, got {a.shape}")
    return _record(a.data.T, (a,), lambda g: (g.T,))


def permute(a, axes: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeMismatch(f"permute axes {axes} invalid for ndim {a.ndim}")
    inv = tuple(np.argsort(axes))
    return _record(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(int(d) for d in shape)
    if math.prod(shape) != a.size:
        raise ShapeMismatch(f"reshape {a.shape} -> {shape} changes element count")
    old = a.data.shape
    return _record(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeMismatch("concat of zero tensors")
    try:
        data = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError:
        raise ShapeMismatch(
            f"concat along axis {axis}: shapes {[t.shape for t in ts]}"
        ) from None
    cuts = np.cumsum([t.data.shape[axis] for t in ts])[:-1]

    def vjp(g):
        return [p.copy() for p in np.split(g, cuts, axis=axis)]

    return _record(data, tuple(ts), vjp)


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    a = as_tensor(a)
    if not (0 <= axis < a.ndim):
        raise ShapeMismatch(f"slice axis {axis} out of range for {a.shape}")
    if not (0 <= start <= stop <= a.shape[axis]):
        raise ShapeMismatch(f"slice [{start}:{stop}] out of range on axis {axis} of {a.shape}")
    idx = tuple(slice(start, stop) if i == axis else slice(None) for i in range(a.ndim))
    src_shape = a.data.shape

    def vjp(g):
        z = np.zeros(src_shape)
        z[idx] = g
        return (z,)

    return _record(a.data[idx], (a,), vjp)


def embedding(table, ids) -> Tensor:
    """Row gather: out[i] = table[ids[i]]."""
    table = as_tensor(table)
    if table.ndim != 2:
        raise ShapeMismatch(f"embedding table must be 2-d, got {table.shape}")
    ids_arr = np.asarray(ids, dtype=np.int64)
    if ids_arr.ndim != 1:
        raise ShapeMismatch(f"embedding ids must be 1-d, got shape {ids_arr.shape}")

    def vjp(g):
        z = np.zeros_like(table.data)
        np.add.at(z, ids_arr, g)
        return (z,)

    return _record(table.data[ids_arr], (table,), vjp)


# -- nonlinearities and reductions ---------------------------------------


def softmax_rows(x) -> Tensor:
    """Row-wise softmax with max-subtraction; each output row sums to 1."""
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeMismatch(f"softmax_rows needs a 2-d tensor, got {x.shape}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        return (y * (g - (g * y).sum(axis=1, keepdims=True)),)

    return _record(y, (x,), vjp)


def layernorm_rows(x, eps: float = 1e-5) -> Tensor:
    """Normalize each row to zero mean, unit variance (no gain/bias)."""
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeMismatch(f"layernorm_rows needs a 2-d tensor, got {x.shape}")
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv

    def vjp(g):
        gm = g.mean(axis=1, keepdims=True)
        gym = (g * y).mean(axis=1, keepdims=True)
        return ((g - gm - y * gym) * inv,)

    return _record(y, (x,), vjp)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x) -> Tensor:
    x = as_tensor(x)
    phi = 0.5 * (1.0 + _erf(x.data * _INV_SQRT2))
    data = x.data * phi

    def vjp(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        return (g * (phi + x.data * pdf),)

    return _record(data, (x,), vjp)


def sum_all(x) -> Tensor:
    x = as_tensor(x)
    src_shape = x.data.shape
    return _record(x.data.sum(), (x,), lambda g: (np.full(src_shape, g.reshape(()).item()),))


def mean_all(x) -> Tensor:
    x = as_tensor(x)
    src_shape = x.data.shape
    n = x.size
    return _record(x.data.mean(), (x,), lambda g: (np.full(src_shape, g.reshape(()).item() / n),))


# -- backward ------------------------------------------------------------


def _reachable(loss: Tensor) -> list[Tensor]:
    """Nodes that contribute gradient, in creation (= topological) order."""
    seen: dict[int, Tensor] = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if node._id in seen:
            continue
        seen[node._id] = node
        stack.extend(p for p in node._parents if p.requires_grad and p._id not in seen)
    return sorted(seen.values(), key=lambda n: n._id)


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf.

    Repeated calls without zero_grad add up; gradients of intermediate
    nodes are not retained.
    """
    if loss.data.size != 1:
        raise NotScalar(f"backward from tensor of shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = _reachable(loss)
    grads: dict[int, np.ndarray] = {loss._id: np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(node._id, None)
        if g is None:
            continue
        if node._vjp is None:
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = grads.get(parent._id)
            grads[parent._id] = pg if acc is None else acc + pg


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be a deterministic scalar-valued function of ``x``. Returns
    max over elements of |analytic - fd| / (|analytic| + 1e-8).
    """
    x.zero_grad()
    backward(f(x))
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    flat = x.data.reshape(-1)
    fd = np.zeros(flat.size)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = float(f(x).data)
            flat[i] = orig - h
            lo = float(f(x).data)
            flat[i] = orig
            fd[i] = (hi - lo) / (2.0 * h)
    rel = np.abs(analytic.reshape(-1) - fd) / (np.abs(analytic.reshape(-1)) + 1e-8)
    return float(rel.max())
