"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy array, and ``Tensor(...)`` is the one place an
array or number becomes one: primitives take ``Tensor`` operands and
convert nothing. When gradients are enabled, an operation with an input
that requires grad gives its output a ``_Node``: the output's id, the
nodes of its inputs (an input that requires grad and has no node, a leaf,
stands as its own ``Tensor``; one that does not require grad as ``None``)
and a vector-Jacobian closure. No node holds a value, and each closure
keeps only the arrays its gradients read (``add`` keeps shapes, ``scale``
nothing, ``gelu`` its derivative), so an intermediate value dies when the
forward drops it unless a VJP reads it. Node ids grow monotonically with
creation order, so the recorded graph is an implicit tape whose order is
already topological: ``backward`` visits the nodes that receive a gradient
exactly once each, newest first, accumulating gradients additively into
leaf tensors that require them. Every gradient is an array of its tensor's
shape. ``backward`` consumes the graph: it drops each node's closure as it
runs it, so a VJP's arrays die as soon as it returns, and a second walk
over the same nodes raises ``GraphConsumed``; each backward needs its own
forward. For one default-config 32 px sample the tape holds about 13 MB
and a forward plus backward peaks at about 14 MB (tracemalloc).

Everything is float64 so finite-difference checks can be tight. A dense
layer (``matmul`` with ``bias``) and an affine layer norm (``layernorm_rows``
with ``gain`` and ``bias``) are one node each. Kernels update their own
temporaries in place, never an input or the incoming gradient (``add`` hands
one array to both parents). There is no parallelism and no in-place graph
surgery; the tape is rebuilt on every forward pass. ``gelu``'s ``erf`` is
scipy's compiled ufunc, loaded from its extension module without ``scipy.special``.
"""

from __future__ import annotations

import ctypes
import heapq
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np


class ShapeMismatch(ValueError):
    """An array or tensor has a shape other than the one its use needs."""


class GraphConsumed(ValueError):
    """Backward reached a node whose VJP an earlier backward already ran and freed."""


class NonFinite(ValueError):
    """A training step or a sampled image came out NaN or infinite."""


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameter numbers


def _keep_freed_heap() -> bool:
    """Keep freed heap pages in the process for the next step's tape; False where
    glibc's ``mallopt`` is missing or refuses. By default glibc returns a 32 px
    train step's freed tape to the kernel and the next step faults it back in
    (about 5,000 minor faults and 8-12 ms of system time per step on a 2-core
    x86-64 VM). Both limits must be set: setting either fixes the other at its
    128 KiB default. 32 MiB is glibc's 64-bit mmap ceiling; 256 MiB is more
    than a whole 32 px step."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # a refused first limit leaves the second unset, and so both at glibc's defaults
    return mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1 and mallopt(_M_TRIM_THRESHOLD, 256 << 20) == 1


_keep_freed_heap()
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


class _Node:
    """A recorded operation: its output's id, one entry per input (the input's
    node, the input itself for a leaf that requires grad, else ``None``) and
    the VJP, which maps the output's gradient to one gradient per input
    (``None`` once ``backward`` has run it)."""

    __slots__ = ("_id", "parents", "vjp")

    def __init__(self, node_id: int, parents: tuple, vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]]):
        self._id, self.parents, self.vjp = node_id, parents, vjp


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_node", "_id")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None
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
            raise ShapeMismatch(f"item() on tensor of shape {self.shape}")
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


def _record(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if _grad_enabled:
        nodes = tuple([(p._node or p) if p.requires_grad else None for p in parents])  # a list is faster to build
        if any(nodes):
            out.requires_grad = True
            out._node = _Node(out._id, nodes, vjp)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the pre-broadcast shape (an array, also when 0-d)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = np.asarray(g.sum(axis=tuple(range(extra))))  # a sum over every axis is a numpy scalar
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


def add(a: Tensor, b: Tensor) -> Tensor:
    data = _broadcast(np.add, a, b)
    sa, sb = a.data.shape, b.data.shape

    def vjp(g):
        return (_unbroadcast(g, sa), _unbroadcast(g, sb))

    return _record(data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = _broadcast(np.subtract, a, b)
    sa, sb = a.data.shape, (b.data.shape if b.requires_grad else None)

    def vjp(g):
        return (_unbroadcast(g, sa), None if sb is None else _unbroadcast(-g, sb))

    return _record(data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = _broadcast(np.multiply, a, b)
    # each side's gradient reads the other side's value
    ad, bd = (a.data if b.requires_grad else None), (b.data if a.requires_grad else None)
    sa, sb = a.data.shape, b.data.shape

    def vjp(g):
        ga = None if bd is None else _unbroadcast(g * bd, sa)
        return (ga, None if ad is None else _unbroadcast(g * ad, sb))

    return _record(data, (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a plain python scalar (not a tensor)."""
    s = float(s)
    return _record(a.data * s, (a,), lambda g: (g * s,))


# -- linear algebra -----------------------------------------------------


def _per_column(t: Tensor | None, width: int, what: str) -> Tensor:
    if getattr(t, "shape", None) != (width,):  # a missing one (None) is refused too
        raise ShapeMismatch(f"{what} must have shape ({width},), got {getattr(t, 'shape', None)}")
    return t


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """``a @ b``, plus ``bias`` (one entry per output column) if given."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatch(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul inner dims differ: {a.shape} x {b.shape}")
    data = a.data @ b.data
    if bias is not None:
        bias = _per_column(bias, b.shape[1], "matmul bias")
        data += bias.data
    # each side's gradient reads the other side's value
    ad, bd, biased = (a.data if b.requires_grad else None), (b.data if a.requires_grad else None), bias is not None

    def vjp(g):
        ga = None if bd is None else g @ bd.T
        gb = None if ad is None else ad.T @ g
        return (ga, gb, g.sum(axis=0)) if biased else (ga, gb)

    return _record(data, (a, b) if bias is None else (a, b, bias), vjp)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeMismatch(f"transpose needs a 2-d tensor, got {a.shape}")
    return _record(a.data.T, (a,), lambda g: (g.T,))


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeMismatch(f"permute axes {axes} invalid for ndim {a.ndim}")
    inv = tuple(np.argsort(axes))
    return _record(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(d) for d in shape)
    if math.prod(shape) != a.size:
        raise ShapeMismatch(f"reshape {a.shape} -> {shape} changes element count")
    old = a.data.shape
    return _record(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = list(tensors)
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


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
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


def embedding(table: Tensor, ids) -> Tensor:
    """Row gather: out[i] = table[ids[i]]."""
    if table.ndim != 2:
        raise ShapeMismatch(f"embedding table must be 2-d, got {table.shape}")
    ids_arr = np.asarray(ids, dtype=np.int64)
    if ids_arr.ndim != 1:
        raise ShapeMismatch(f"embedding ids must be 1-d, got shape {ids_arr.shape}")
    src_shape = table.data.shape

    def vjp(g):
        z = np.zeros(src_shape)
        np.add.at(z, ids_arr, g)
        return (z,)

    return _record(table.data[ids_arr], (table,), vjp)


# -- nonlinearities and reductions ---------------------------------------


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with max-subtraction; each output row sums to 1."""
    if x.ndim != 2:
        raise ShapeMismatch(f"softmax_rows needs a 2-d tensor, got {x.shape}")
    y = x.data - np.maximum.reduce(x.data, axis=1, keepdims=True)
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=1, keepdims=True)

    def vjp(g):  # y * (g - sum_rows(g * y))
        gy = g * y
        np.subtract(g, np.add.reduce(gy, axis=1, keepdims=True), out=gy)
        return (np.multiply(y, gy, out=gy),)

    return _record(y, (x,), vjp)


def _row_mean(a: np.ndarray) -> np.ndarray:  # a.mean(axis=1, keepdims=True) is this sum and divide
    return np.add.reduce(a, axis=1, keepdims=True) / a.shape[1]


def layernorm_rows(x: Tensor, gain: Tensor | None = None, bias: Tensor | None = None) -> Tensor:
    """Normalize each row to zero mean, unit variance (epsilon 1e-5); given
    ``gain`` and ``bias`` (one entry per column each, never one alone), return ``y * gain + bias``."""
    if x.ndim != 2:
        raise ShapeMismatch(f"layernorm_rows needs a 2-d tensor, got {x.shape}")
    y = x.data - _row_mean(x.data)
    inv = 1.0 / np.sqrt(_row_mean(y * y) + 1e-5)
    y *= inv
    data, gd = y, None
    if gain is not None or bias is not None:
        gain, bias = _per_column(gain, x.shape[1], "gain"), _per_column(bias, x.shape[1], "bias")
        gd = gain.data
        data = y * gd
        data += bias.data

    def vjp(g):  # (g' - mean_rows(g') - y * mean_rows(g' * y)) * inv, g' = g * gain
        gn = g if gd is None else g * gd
        tmp = gn * y
        gx = gn - _row_mean(gn)
        gx -= np.multiply(y, _row_mean(tmp), out=tmp)
        gx *= inv
        return (gx,) if gd is None else (gx, np.multiply(g, y, out=tmp).sum(axis=0), g.sum(axis=0))

    return _record(data, (x,) if gd is None else (x, gain, bias), vjp)


def _load_erf():
    """scipy's ``erf`` ufunc from the one extension module that defines it, or from ``scipy.special``
    (about 280 modules and a second OpenBLAS) where that module is missing, fails to load or has no erf."""
    scipy = importlib.util.find_spec("scipy")  # locates the package, imports nothing
    for suffix in importlib.machinery.EXTENSION_SUFFIXES if scipy else ():
        path = os.path.join(os.path.dirname(scipy.origin), "special", "_special_ufuncs" + suffix)
        spec = importlib.util.spec_from_file_location("scipy.special._special_ufuncs", path)
        try:
            module = importlib.util.module_from_spec(spec)  # ImportError where the file is missing or will not load
            spec.loader.exec_module(module)
            sys.modules.pop(spec.name, None)  # a later scipy.special import then binds it as its submodule
            return module.erf
        except (ImportError, AttributeError):
            continue
    return importlib.import_module("scipy.special").erf


_erf = _load_erf()
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    # phi = 0.5 * (1 + erf(x / sqrt 2)); out= keeps a 0-d phi an array, which the in-place steps need
    phi = np.multiply(x.data, _INV_SQRT2, out=np.empty_like(x.data))
    _erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    xd = x.data
    data, d = xd * phi, None
    if _grad_enabled and x.requires_grad:  # the derivative phi + x * pdf, pdf = exp(-0.5 * x * x) / sqrt(2 pi)
        d = np.multiply(xd, -0.5, out=np.empty_like(xd))
        np.exp(np.multiply(d, xd, out=d), out=d)
        d *= _INV_SQRT2PI
        np.multiply(xd, d, out=d)
        d += phi
    return _record(data, (x,), lambda g: (g * d,))


def sum_all(x: Tensor) -> Tensor:
    src_shape = x.data.shape
    return _record(x.data.sum(), (x,), lambda g: (np.full(src_shape, g.reshape(()).item()),))


def mean_all(x: Tensor) -> Tensor:
    src_shape = x.data.shape
    n = x.size
    return _record(x.data.mean(), (x,), lambda g: (np.full(src_shape, g.reshape(()).item() / n),))


# -- backward ------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf.

    The walk consumes the graph: each node's VJP is taken out of the node
    before it runs, so the arrays it keeps die as it returns, and reaching a
    consumed node raises ``GraphConsumed`` before any gradient changes: leaf
    gradients are written once the walk has finished. Calls on fresh forwards without
    zero_grad add up; gradients of intermediate nodes are not retained. The
    nodes holding a gradient wait in a max-heap on id, so each runs its VJP
    once, after every consumer (a newer node).
    """
    if loss.data.size != 1:
        raise ShapeMismatch(f"backward from tensor of shape {loss.shape}")
    if not loss.requires_grad:
        return
    root = loss._node or loss
    grads: dict[int, np.ndarray] = {root._id: np.ones_like(loss.data)}
    pending, leaves = [(-root._id, root)], []
    while pending:
        node = heapq.heappop(pending)[1]
        if node.__class__ is Tensor:  # a leaf
            leaves.append(node)
            continue
        g = grads.pop(node._id)
        vjp, node.vjp = node.vjp, None
        if vjp is None:
            raise GraphConsumed("backward through a graph an earlier backward consumed; run the forward again")
        for parent, pg in zip(node.parents, vjp(g)):
            if parent is None or pg is None:
                continue
            acc = grads.get(parent._id)
            if acc is None:
                heapq.heappush(pending, (-parent._id, parent))
            grads[parent._id] = np.asarray(pg if acc is None else acc + pg)  # 0-d ufunc results are scalars
    for leaf in leaves:
        g = grads.pop(leaf._id)
        leaf.grad = g.copy() if leaf.grad is None else np.asarray(leaf.grad + g)


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
