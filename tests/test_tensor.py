import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from outpaint import tensor as T
from outpaint.tensor import (
    GraphConsumed,
    NotScalar,
    ShapeMismatch,
    Tensor,
    backward,
    finite_diff_check,
    no_grad,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def test_matmul_identity():
    out = T.matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
    np.testing.assert_array_equal(out.data, [[5.0, 6.0], [7.0, 8.0]])


def test_matmul_dot_product():
    out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_against_triple_loop_oracle():
    g = rng(1)
    a = g.uniform(-2, 2, (3, 4))
    b = g.uniform(-2, 2, (4, 2))
    want = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                want[i, j] += a[i, k] * b[k, j]
    got = T.matmul(Tensor(a), Tensor(b)).data
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_associative_with_identity():
    g = rng(2)
    for _ in range(20):
        a, b, c = (Tensor(g.uniform(-2, 2, (4, 4))) for _ in range(3))
        left = T.matmul(T.matmul(a, b), c).data
        right = T.matmul(a, T.matmul(b, c)).data
        np.testing.assert_allclose(left, right, atol=1e-10)
        eye = Tensor(np.eye(4))
        np.testing.assert_allclose(T.matmul(a, eye).data, a.data, atol=1e-10)


def test_softmax_equal_logits():
    np.testing.assert_allclose(T.softmax_rows(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]])


def test_softmax_large_logits_no_overflow():
    out = T.softmax_rows(Tensor([[1000.0, 1000.0, 1000.0]])).data
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]])


def test_softmax_rows_sum_to_one_and_open_interval():
    g = rng(3)
    x = Tensor(g.uniform(-5, 5, (2, 5)))
    y = T.softmax_rows(x).data
    np.testing.assert_allclose(y.sum(axis=1), np.ones(2), atol=1e-12)
    assert np.all(y > 0) and np.all(y < 1)


def test_backward_sum_gives_ones():
    x = Tensor(rng(4).uniform(-2, 2, (2, 2)), requires_grad=True)
    backward(T.sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 2)))


def test_backward_quadratic():
    x = Tensor(rng(5).uniform(-2, 2, (3, 3)), requires_grad=True)
    loss = T.scale(T.sum_all(T.mul(x, x)), 0.5)
    backward(loss)
    np.testing.assert_allclose(x.grad, x.data, atol=1e-12)


def test_backward_accumulates_additively():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    loss = T.sum_all(x)
    backward(loss)
    grad = x.grad
    with pytest.raises(GraphConsumed):  # backward consumed the graph; each call needs its own forward
        backward(loss)
    assert x.grad is grad
    np.testing.assert_array_equal(x.grad, np.ones((2, 2)))
    backward(T.sum_all(x))
    np.testing.assert_array_equal(x.grad, 2 * np.ones((2, 2)))


def test_a_consumed_graph_changes_no_gradient():
    # w is newer than gelu's node, so the second walk reaches w before the consumed node
    x = Tensor(rng(6).uniform(-1, 1, 3), requires_grad=True)
    shared = T.gelu(x)
    w = Tensor(rng(7).uniform(-1, 1, 3), requires_grad=True)
    backward(T.sum_all(shared))
    x_grad = x.grad.copy()
    with pytest.raises(GraphConsumed):
        backward(T.sum_all(T.mul(shared, w)))
    assert w.grad is None
    np.testing.assert_array_equal(x.grad, x_grad)


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(NotScalar):
        backward(T.mul(x, x))


def test_backward_diamond_reuse():
    # x feeds two branches; the shared-node gradient must not double-count.
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    y = T.mul(x, x)
    loss = T.sum_all(T.add(y, y))
    backward(loss)
    np.testing.assert_allclose(x.grad, 4 * x.data, atol=1e-12)


def test_gelu_keeps_one_array_and_its_gradient_is_the_two_array_formula():
    xd = rng(17).uniform(-4, 4, (5, 7))
    g = rng(18).uniform(-1, 1, xd.shape)
    x = Tensor(xd.copy(), requires_grad=True)
    vjp = T.gelu(x)._node.vjp
    kept = [cell.cell_contents for cell in vjp.__closure__ or ()]
    assert len(kept) == 1 and isinstance(kept[0], np.ndarray) and kept[0].shape == xd.shape
    # g * (phi + x * pdf) from x and phi, step by step as a VJP keeping both computed it
    phi = np.multiply(xd, T._INV_SQRT2)
    T._erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    d = np.exp(xd * -0.5 * xd)
    d *= T._INV_SQRT2PI
    d = xd * d
    d += phi
    assert np.array_equal(vjp(g)[0], g * d)


def test_backward_is_linear():
    g = rng(6)
    base = g.uniform(-2, 2, (3, 4))

    def grad_of(fn):
        x = Tensor(base.copy(), requires_grad=True)
        backward(fn(x))
        return x.grad

    f = lambda x: T.sum_all(T.mul(x, x))
    h = lambda x: T.mean_all(T.gelu(x))
    combined = grad_of(lambda x: T.add(f(x), h(x)))
    np.testing.assert_allclose(combined, grad_of(f) + grad_of(h), atol=1e-10)


def test_no_grad_blocks_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad and y._node is None


@pytest.mark.parametrize(
    "name,fn,shape",
    [
        ("add_broadcast", lambda x: T.sum_all(T.mul(T.add(x, Tensor(np.linspace(-1, 1, 4))), T.gelu(x))), (3, 4)),
        ("sub", lambda x: T.sum_all(T.mul(T.sub(x, Tensor(0.3)), T.sub(Tensor(0.7), x))), (3, 4)),
        ("mul_broadcast", lambda x: T.sum_all(T.mul(x, Tensor(np.linspace(0.5, 1.5, 3).reshape(3, 1)))), (3, 4)),
        ("neg_scale", lambda x: T.sum_all(T.scale(x, -2.5)), (2, 3)),
        ("matmul_left", lambda x: T.sum_all(T.mul(T.matmul(x, Tensor(np.linspace(-1, 1, 8).reshape(4, 2))), Tensor(np.linspace(0, 1, 6).reshape(3, 2)))), (3, 4)),
        ("matmul_right", lambda x: T.sum_all(T.gelu(T.matmul(Tensor(np.linspace(-1, 1, 6).reshape(2, 3)), x))), (3, 4)),
        ("transpose", lambda x: T.sum_all(T.mul(T.transpose(x), Tensor(np.linspace(-1, 1, 12).reshape(4, 3)))), (3, 4)),
        ("permute", lambda x: T.sum_all(T.mul(T.permute(x, (2, 0, 1)), Tensor(np.linspace(-1, 1, 24).reshape(4, 2, 3)))), (2, 3, 4)),
        ("reshape", lambda x: T.sum_all(T.gelu(T.reshape(x, (6, 2)))), (3, 4)),
        ("concat", lambda x: T.sum_all(T.mul(T.concat([x, T.gelu(x)], axis=1), Tensor(np.linspace(-1, 1, 24).reshape(3, 8)))), (3, 4)),
        ("slice", lambda x: T.sum_all(T.gelu(T.slice_axis(x, 1, 1, 3))), (3, 4)),
        ("softmax", lambda x: T.sum_all(T.mul(T.softmax_rows(x), Tensor(np.linspace(-1, 1, 12).reshape(3, 4)))), (3, 4)),
        ("layernorm", lambda x: T.sum_all(T.mul(T.layernorm_rows(x), Tensor(np.linspace(-1, 1, 12).reshape(3, 4)))), (3, 4)),
        ("gelu", lambda x: T.sum_all(T.gelu(x)), (3, 4)),
        ("mean", lambda x: T.mean_all(T.mul(x, x)), (3, 4)),
        ("sum", lambda x: T.sum_all(T.mul(x, x)), (3, 4)),
        ("matmul_bias", lambda x: T.sum_all(T.gelu(T.matmul(Tensor(np.linspace(-1, 1, 6).reshape(3, 2)), Tensor(np.linspace(1, -1, 8).reshape(2, 4)), x))), (4,)),
        ("matmul_bias_left", lambda x: T.sum_all(T.gelu(T.matmul(x, Tensor(np.linspace(1, -1, 8).reshape(4, 2)), Tensor([0.3, -0.2])))), (3, 4)),
        ("layernorm_affine", lambda x: T.sum_all(T.gelu(T.layernorm_rows(x, Tensor(np.linspace(0.5, 1.5, 4)), Tensor(np.linspace(-1, 1, 4))))), (3, 4)),
        ("layernorm_gain", lambda x: T.sum_all(T.gelu(T.layernorm_rows(Tensor(np.linspace(-2, 3, 12).reshape(3, 4) ** 2), x, Tensor(np.linspace(-1, 1, 4))))), (4,)),
        ("layernorm_bias", lambda x: T.sum_all(T.gelu(T.layernorm_rows(Tensor(np.linspace(-2, 3, 12).reshape(3, 4) ** 2), Tensor(np.linspace(0.5, 1.5, 4)), x))), (4,)),
    ],
)
def test_primitive_gradients_match_finite_differences(name, fn, shape):
    x = Tensor(rng(hash(name) % 2**32).uniform(-2, 2, shape), requires_grad=True)
    assert finite_diff_check(fn, x) < 1e-4


def test_embedding_gradient_and_lookup():
    table = Tensor(rng(7).uniform(-2, 2, (5, 3)), requires_grad=True)
    ids = np.array([1, 3, 1])
    out = T.embedding(table, ids)
    np.testing.assert_array_equal(out.data, table.data[ids])
    w = Tensor(rng(8).uniform(-1, 1, (3, 3)))
    err = finite_diff_check(lambda t: T.sum_all(T.mul(T.embedding(t, ids), w)), table)
    assert err < 1e-4


def test_finite_diff_check_on_sum_is_tiny():
    x = Tensor(rng(9).uniform(-2, 2, (3, 3)), requires_grad=True)
    assert finite_diff_check(T.sum_all, x) < 1e-10


def test_finite_diff_on_softmax_row_sum_constancy():
    # Row sums of softmax are constant, so gradients vanish analytically.
    x = Tensor(rng(10).uniform(-2, 2, (2, 4)), requires_grad=True)
    assert finite_diff_check(lambda t: T.sum_all(T.softmax_rows(t)), x) < 1e-6


def test_elementwise_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


def test_reshape_rejects_bad_size():
    with pytest.raises(ShapeMismatch):
        T.reshape(Tensor(np.zeros((2, 3))), (4, 2))


def test_grad_shape_matches_data_shape():
    x = Tensor(rng(11).uniform(-1, 1, (2, 5)), requires_grad=True)
    backward(T.sum_all(T.softmax_rows(x)))
    assert x.grad.shape == x.data.shape


# -- folded nodes: matmul with bias, layernorm_rows with gain and bias -------


def _forward_and_grads(fn, arrays, weights):
    """fn's output and the gradients of sum(fn(*arrays) * weights) by each input."""
    ts = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*ts)
    backward(T.sum_all(T.mul(out, Tensor(weights))))
    return [out.data] + [t.grad for t in ts]


@pytest.mark.parametrize("folded,composed,shapes", [
    (lambda x, w, b: T.matmul(x, w, b), lambda x, w, b: T.add(T.matmul(x, w), b), [(5, 4), (4, 3), (3,)]),
    (lambda x, g, b: T.layernorm_rows(x, g, b), lambda x, g, b: T.add(T.mul(T.layernorm_rows(x), g), b),
     [(5, 4), (4,), (4,)]),
])
def test_folded_node_equals_its_composed_form_bitwise(folded, composed, shapes):
    g = rng(12)
    arrays = [g.uniform(-2, 2, s) for s in shapes]
    weights = g.uniform(-1, 1, (5, shapes[1][-1]))
    want = _forward_and_grads(composed, arrays, weights)
    got = _forward_and_grads(folded, arrays, weights)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_folded_node_rejects_a_wrong_bias_or_gain_shape():
    x, w = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4)))
    for bias in (np.zeros(3), np.zeros((1, 4)), np.zeros(())):
        with pytest.raises(ShapeMismatch):
            T.matmul(x, w, Tensor(bias))
    for gain, bias in ((np.ones(4), np.zeros(3)), (np.ones(3), np.zeros(4)), (np.ones((1, 3)), np.zeros(3)),
                       (np.ones(3), None), (None, np.zeros(3))):  # gain and bias come together or not at all
        with pytest.raises(ShapeMismatch):
            T.layernorm_rows(x, *(None if a is None else Tensor(a) for a in (gain, bias)))


# -- kernels never write to what they read -----------------------------------

KERNELS = {  # name: (kernel, its inputs after x)
    "gelu": (T.gelu, []),
    "softmax_rows": (T.softmax_rows, []),
    "layernorm_rows": (T.layernorm_rows, []),
    "layernorm_rows_affine": (T.layernorm_rows, [np.linspace(0.5, 1.5, 4), np.linspace(-1, 1, 4)]),
    "matmul": (T.matmul, [np.linspace(-1, 1, 16).reshape(4, 4)]),
    "matmul_bias": (T.matmul, [np.linspace(-1, 1, 16).reshape(4, 4), np.linspace(0, 1, 4)]),
}


def _apply(name, x):
    kernel, extra = KERNELS[name]
    return kernel(x, *(Tensor(a.copy(), requires_grad=True) for a in extra))


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_leaves_its_inputs_and_incoming_gradient_unchanged(name):
    g = rng(13)
    x0 = g.uniform(-2, 2, (3, 4))
    arrays = [x0] + KERNELS[name][1]
    inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = KERNELS[name][0](*inputs)
    grad = g.uniform(-1, 1, out.shape)
    incoming = grad.copy()
    out._node.vjp(grad)
    assert np.array_equal(grad, incoming)
    assert out._node.parents == tuple(inputs)  # a leaf stands in the tape as its own tensor
    assert all(np.array_equal(t.data, a) for t, a in zip(inputs, arrays))


def test_one_gradient_array_feeding_every_kernel_reaches_each_unchanged():
    # add hands the same gradient array to both parents, so every kernel below sees one array
    base = rng(14).uniform(-2, 2, (3, 4))
    weights = rng(15).uniform(-1, 1, (3, 4))

    def grad_of(names):
        x = Tensor(base.copy(), requires_grad=True)
        outs = [_apply(n, x) for n in names]
        total = outs[0]
        for o in outs[1:]:
            total = T.add(total, o)
        backward(T.sum_all(T.mul(total, Tensor(weights))))
        return x.grad

    apart = sum(grad_of([n]) for n in KERNELS)
    for names in (list(KERNELS), list(KERNELS)[::-1]):  # the backward runs the last-made kernel first
        np.testing.assert_allclose(grad_of(names), apart, rtol=1e-12, atol=1e-12)


# Eight 32 px default train steps in a fresh interpreter, whose heap no earlier test has grown;
# prints the minor page faults of the last three. The heap still grows by a few hundred KiB in
# the first warm steps (up to about 140 faults, in step 1 or 2 as the checkout path and the
# environment lay it out), so five steps come before the three that are measured.
_FAULT_PROBE = """
import resource
from outpaint import synthdata as SD, trainer as TR
cfg = TR.TrainConfig(image_size=32, center_size=16)
vocab, schedule = SD.vocabulary(), cfg.schedule()
samples, _ = SD.build_dataset(8, 0, SD.SynthSpec(image_size=32, center_size=16))
params = TR.init_model(cfg, vocab)
opt = TR.Adam(params.trainable_parameters(), lr=cfg.learning_rate)
faults = []
for step in range(8):
    rng = TR.step_rng(cfg.seed, step)
    batch = [samples[i] for i in rng.integers(0, len(samples), size=cfg.batch_size)]
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    TR.train_step(batch, params, opt, schedule, rng, vocab, cfg.grad_clip)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults[5:])
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap limits are glibc's mallopt")
def test_warm_train_steps_reuse_freed_tape_memory_without_page_faults():
    src = os.path.dirname(os.path.dirname(T.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _FAULT_PROBE], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    faults = [int(n) for n in done.stdout.split()]
    assert len(faults) == 3 and max(faults) < 100, faults  # about 4,400 per step with glibc's defaults


class _Libc:
    """A C library whose mallopt records its calls and returns ``result``."""

    def __init__(self, result):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return result

        self.mallopt = mallopt


def test_heap_limits_are_set_together_or_not_at_all(monkeypatch):
    def no_library(_name):
        raise OSError("no such library")

    monkeypatch.setattr(T.ctypes, "CDLL", no_library)
    assert T._keep_freed_heap() is False
    monkeypatch.setattr(T.ctypes, "CDLL", lambda _name: object())  # a C library without mallopt
    assert T._keep_freed_heap() is False
    refusing = _Libc(0)
    monkeypatch.setattr(T.ctypes, "CDLL", lambda _name: refusing)
    assert T._keep_freed_heap() is False
    assert refusing.calls == [(T._M_MMAP_THRESHOLD, 32 << 20)]  # the trim limit is left alone
    accepting = _Libc(1)
    monkeypatch.setattr(T.ctypes, "CDLL", lambda _name: accepting)
    assert T._keep_freed_heap() is True
    assert accepting.calls == [(T._M_MMAP_THRESHOLD, 32 << 20), (T._M_TRIM_THRESHOLD, 256 << 20)]


def test_erf_is_scipy_special_erf_bitwise():
    from scipy import special

    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300, 8.0, -8.0]
    ends = np.array([1.0, -1.0, 8.0, -8.0])
    x = np.concatenate([np.linspace(-30.0, 30.0, 2_000_001), edges,
                        np.nextafter(ends, np.inf), np.nextafter(ends, -np.inf)])
    got, want = T._erf(x), special.erf(x)
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def test_erf_falls_back_to_scipy_special_where_its_module_is_missing(monkeypatch):
    from scipy import special

    monkeypatch.setattr(T.importlib.machinery, "EXTENSION_SUFFIXES", [".no-such-suffix.so"])
    assert T._load_erf() is special.erf


def test_importing_the_program_leaves_scipy_special_unloaded():
    ufuncs = pytest.importorskip("scipy.special._special_ufuncs",
                                 reason="this scipy has no scipy.special._special_ufuncs to load erf from")
    if not hasattr(ufuncs, "erf"):
        pytest.skip("this scipy defines erf outside scipy.special._special_ufuncs")
    src = os.path.dirname(os.path.dirname(T.__file__))
    code = "import sys, outpaint.cli, outpaint.trainer, outpaint.evaluation; print('scipy.special' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
