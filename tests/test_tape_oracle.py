"""Property-based oracle for the tape.

Hypothesis draws small programs (at most 8 recorded operations) over the
traced primitives, with broadcasting shapes, optional bias and gain,
embedding ids that always repeat one row, leaves that do or do not require
gradients, and fan-out: any value may feed any later step, itself included. The loss is a weighted mean of every value no
step reads. For each program, ``backward`` must:

- give every leaf the central-difference gradient, as an array of its shape;
- run each recorded VJP exactly once, after the VJPs of all its consumers,
  each handed an array of its node's shape;
- change no forward value and no incoming gradient;
- consume the graph: a second call from the same loss raises
  ``GraphConsumed`` and changes no gradient, and a call on a fresh forward
  accumulates to exactly twice one call.

Under ``no_grad`` the same program records nothing and its forward is
bitwise equal. A fixed fan-out graph checks the walk's order the same way.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from outpaint import tensor as T
from outpaint.tensor import Tensor, backward, no_grad

MAX_OPS = 8

OPS = {
    "add": T.add,
    "sub": T.sub,
    "mul": T.mul,
    "scale": T.scale,
    "matmul": T.matmul,
    "transpose": T.transpose,
    "concat": lambda *args: T.concat(args[:-1], axis=args[-1]),
    "softmax_rows": T.softmax_rows,
    "layernorm_rows": T.layernorm_rows,
    "gelu": T.gelu,
    "mean_all": T.mean_all,
    "sum_all": T.sum_all,
    "permute": T.permute,
    "reshape": T.reshape,
    "slice_axis": T.slice_axis,
    "embedding": T.embedding,
}


def _broadcasts(a, b) -> bool:
    try:
        np.broadcast_shapes(a, b)
    except ValueError:
        return False
    return True


@st.composite
def programs(draw):
    """``(steps, leaves, shapes, seed)``. Each step is ``(op, operand
    indices, extra args)`` over the values made so far, whose shapes are
    ``shapes``; a ``leaf`` step brings in ``leaves[k]``, a ``(shape,
    requires_grad)`` pair. ``seed`` draws the leaf and loss-weight values."""
    r, c = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    steps, shapes, leaves = [], [], []

    def leaf(shape, requires_grad=None):
        rg = draw(st.booleans()) if requires_grad is None else requires_grad
        leaves.append((shape, rg))
        steps.append(("leaf", (), (len(leaves) - 1,)))
        shapes.append(shape)
        return len(shapes) - 1

    def pick(ok):
        return draw(st.sampled_from([i for i, s in enumerate(shapes) if ok(s)]))

    leaf((r, c), True)
    for _ in range(draw(st.integers(0, 2))):
        leaf(draw(st.sampled_from([(r, c), (c,), (1, c), (r, 1), (1, 1), ()])))
    for _ in range(draw(st.integers(1, MAX_OPS))):
        op = draw(st.sampled_from(sorted(OPS)))
        extra = ()
        if op in ("add", "sub", "mul"):
            i = pick(lambda s: True)
            refs = (i, pick(lambda s: _broadcasts(s, shapes[i])))
            out = np.broadcast_shapes(shapes[refs[0]], shapes[refs[1]])
        elif op in ("scale", "gelu", "mean_all", "sum_all"):
            refs = (pick(lambda s: True),)
            out = () if op.endswith("_all") else shapes[refs[0]]
            if op == "scale":
                extra = (draw(st.sampled_from([-1.5, 0.5, 2.0])),)
        elif op in ("permute", "reshape"):
            refs = (pick(lambda s: True),)
            shape = shapes[refs[0]]
            if op == "permute":
                axes = tuple(draw(st.permutations(range(len(shape)))))
                extra, out = (axes,), tuple(shape[a] for a in axes)
            else:
                size = int(np.prod(shape))
                out = draw(st.sampled_from([(size,), (1, size), (size, 1)] + ([()] if size == 1 else [])))
                extra = (out,)
        elif op == "slice_axis":
            refs = (pick(lambda s: len(s) > 0),)
            shape = shapes[refs[0]]
            axis = draw(st.integers(0, len(shape) - 1))
            start = draw(st.integers(0, shape[axis] - 1))
            stop = draw(st.integers(start + 1, shape[axis]))
            extra = (axis, start, stop)
            out = tuple(stop - start if a == axis else d for a, d in enumerate(shape))
        else:  # row and matrix operations take 2-d operands
            i = pick(lambda s: len(s) == 2)
            n, k = shapes[i]
            if op == "matmul":
                if draw(st.booleans()) and any(len(s) == 2 and s[0] == k for s in shapes):
                    j = pick(lambda s: len(s) == 2 and s[0] == k)
                else:
                    j = leaf((k, draw(st.integers(1, 4))))
                m = shapes[j][1]
                refs = (i, j, leaf((m,))) if draw(st.booleans()) else (i, j)
                out = (n, m)
            elif op == "embedding":  # the first id comes back, so two rows share one table row
                ids = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
                refs, extra, out = (i,), (ids + ids[:1],), (len(ids) + 1, k)
            elif op == "transpose":
                refs, out = (i,), (k, n)
            elif op == "concat":
                axis = draw(st.integers(0, 1))
                same = lambda s: len(s) == 2 and s[1 - axis] == shapes[i][1 - axis]
                refs = (i, *(pick(same) for _ in range(draw(st.integers(1, 2)))))
                extra = (axis,)
                out = list(shapes[i])
                out[axis] = sum(shapes[j][axis] for j in refs)
                out = tuple(out)
            else:
                refs = (i, leaf((k,)), leaf((k,))) if op == "layernorm_rows" and draw(st.booleans()) else (i,)
                out = shapes[i]
        steps.append((op, refs, extra))
        shapes.append(out)
    return steps, leaves, shapes, draw(st.integers(0, 2**32 - 1))


def evaluate(steps, leaves, weights):
    """Every value of the program, then the loss."""
    vals = []
    for op, refs, extra in steps:
        vals.append(leaves[extra[0]] if op == "leaf" else OPS[op](*(vals[i] for i in refs), *extra))
    read = {i for _, refs, _ in steps for i in refs}
    terms = [T.mean_all(T.mul(v, w)) for i, (v, w) in enumerate(zip(vals, weights)) if i not in read]
    loss = terms[0]
    for t in terms[1:]:
        loss = T.add(loss, t)
    return vals, loss


@contextmanager
def node_shapes():
    """Map each node recorded inside the block to its output's shape; a node holds no value."""
    shapes, record = {}, T._record

    def logged(data, parents, vjp):
        out = record(data, parents, vjp)
        if out._node is not None:
            shapes[out._node] = out.shape
        return out

    T._record = logged
    try:
        yield shapes
    finally:
        T._record = record


def recorded(loss):
    """Every node with a VJP that the loss depends on."""
    found, stack = {}, [loss._node]
    while stack:
        node = stack.pop()
        if isinstance(node, T._Node) and id(node) not in found:
            found[id(node)] = node
            stack.extend(node.parents)
    return list(found.values())


def log_vjps(nodes, shapes):
    """Wrap each VJP to log its node and its incoming gradient (with a copy) per call."""
    calls = []

    def logged(node, vjp):
        def run(g):
            assert isinstance(g, np.ndarray) and g.shape == shapes[node]
            calls.append((node, g, g.copy()))
            return vjp(g)
        return run

    for n in nodes:
        n.vjp = logged(n, n.vjp)
    return calls


def check_walk(nodes, calls):
    """Each node's VJP ran exactly once, after the VJPs of all its consumers."""
    order = [id(n) for n, _, _ in calls]
    assert sorted(order) == sorted(map(id, nodes))
    pos = {node_id: i for i, node_id in enumerate(order)}
    for consumer in nodes:
        for p in consumer.parents:
            if id(p) in pos:
                assert pos[id(consumer)] < pos[id(p)]


def fan_out_loss(x, w):
    """A loss in which ``a`` has four consumers at three depths."""
    a = T.gelu(x)
    d = T.add(T.mul(T.softmax_rows(a), a), a)
    h = T.layernorm_rows(T.add(T.matmul(d, w), T.matmul(a, w)))
    return T.mean_all(T.mul(h, Tensor(np.linspace(-1, 1, h.size).reshape(h.shape))))


def test_backward_runs_each_vjp_once_after_all_its_consumers():
    rng = np.random.default_rng(16)
    x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    with node_shapes() as shapes:
        loss = fan_out_loss(x, w)
    nodes = recorded(loss)
    calls = log_vjps(nodes, shapes)
    backward(loss)
    check_walk(nodes, calls)
    assert T.finite_diff_check(lambda t: fan_out_loss(t, w), x) < 1e-6
    assert T.finite_diff_check(lambda t: fan_out_loss(x, t), w) < 1e-6


def central_differences(steps, leaves, weights, leaf, h=1e-6):
    """The loss's gradient by ``leaf`` from central differences, run without the tape."""
    flat = leaf.data.reshape(-1)
    fd = np.empty(flat.size)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = evaluate(steps, leaves, weights)[1].item()
            flat[i] = orig - h
            lo = evaluate(steps, leaves, weights)[1].item()
            flat[i] = orig
            fd[i] = (hi - lo) / (2 * h)
    return fd.reshape(leaf.shape)


@settings(max_examples=300, deadline=None)
@given(programs())
def test_backward_agrees_with_central_differences_and_keeps_the_tape_contracts(program):
    steps, leaf_specs, shapes, seed = program
    rng = np.random.default_rng(seed)
    leaves = [Tensor(rng.uniform(-2, 2, s), requires_grad=rg) for s, rg in leaf_specs]
    weights = [Tensor(rng.uniform(-1, 1, s)) for s in shapes]
    with node_shapes() as shapes:
        vals, loss = evaluate(steps, leaves, weights)
    forward = [v.data.copy() for v in vals]

    nodes = recorded(loss)
    calls = log_vjps(nodes, shapes)
    backward(loss)
    check_walk(nodes, calls)
    assert all(np.array_equal(g, before) for _, g, before in calls)
    assert all(np.array_equal(v.data, f) for v, f in zip(vals, forward))

    once = [None if t.grad is None else t.grad.copy() for t in leaves]
    for t, g in zip(leaves, once):
        if t.requires_grad:  # every leaf reaches the loss
            assert isinstance(t.grad, np.ndarray) and t.grad.shape == t.shape
            fd = central_differences(steps, leaves, weights, t)
            assert np.abs(g - fd).max() <= 1e-5 * (1.0 + np.abs(fd).max())
        else:
            assert g is None

    grads = [t.grad for t in leaves]
    with pytest.raises(T.GraphConsumed):
        backward(loss)
    assert all(t.grad is g for t, g in zip(leaves, grads))
    assert all(g is None or np.array_equal(g, o) for g, o in zip(grads, once))

    backward(evaluate(steps, leaves, weights)[1])
    for t, g in zip(leaves, once):
        assert (t.grad is None) if g is None else isinstance(t.grad, np.ndarray) and np.array_equal(t.grad, 2 * g)

    with no_grad():
        again, _ = evaluate(steps, leaves, weights)
    for (op, _, _), v, f in zip(steps, again, forward):
        assert np.array_equal(v.data, f)
        if op != "leaf":
            assert not v.requires_grad and v._node is None
