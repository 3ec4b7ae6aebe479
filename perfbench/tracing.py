"""Spans around the public functions of outpaint, recorded from outside.

Nothing in ``src/`` knows about tracing. A ``Rebinder`` replaces a function
under every name its callers look it up by: the defining module's
attribute, every ``from ... import`` copy in other outpaint modules, and
attributes of single objects (``Adam.step`` on the optimizer instance).
``restore()`` puts every original back.

A ``Tracer`` uses that to record one span per call: name, start and end
(ns), the enclosing span, the op the call belongs to and a work amount
(FLOPs for matmul, token rows for the denoiser forward). Spans stay in flat
arrays in memory until ``spans()`` turns them into numpy columns.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

SETUP_OP = -1  # op id of spans recorded outside any timed op

TENSOR_PRIMITIVES = (
    "matmul", "add", "sub", "mul", "scale", "transpose", "permute", "reshape",
    "concat", "embedding", "softmax_rows", "layernorm_rows", "gelu", "mean_all",
)


def _matmul_flops(args, kwargs, out) -> float:
    a = args[0] if args else kwargs["a"]
    return 2.0 * out.size * a.shape[-1]


def _denoiser_rows(args, kwargs, out) -> float:
    cfg = (args[0] if args else kwargs["params"]).cfg
    return out.size / (cfg.channels * cfg.patch_size ** 2)


# (span name, defining module, attribute, work function)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    *((f"tensor.{p}", "outpaint.tensor", p, _matmul_flops if p == "matmul" else None)
      for p in TENSOR_PRIMITIVES),
    ("tensor.backward", "outpaint.tensor", "backward", None),
    ("prompt.tokenize_and_embed", "outpaint.prompt", "tokenize_and_embed", None),
    ("attention.cross_attention", "outpaint.attention", "cross_attention", None),
    ("attention.cts_cross_attention", "outpaint.attention", "cts_cross_attention", None),
    ("diffusion.forward_sample", "outpaint.diffusion", "forward_sample", None),
    ("diffusion.ddim_step", "outpaint.diffusion", "ddim_step", None),
    ("diffusion.training_loss", "outpaint.diffusion", "training_loss", None),
    ("denoiser.forward", "outpaint.denoiser", "forward", _denoiser_rows),
    ("trainer.train_step", "outpaint.trainer", "train_step", None),
    ("trainer.clip_gradients", "outpaint.trainer", "clip_gradients", None),
    ("trainer.save_checkpoint", "outpaint.trainer", "save_checkpoint", None),
    ("trainer.load_checkpoint", "outpaint.trainer", "load_checkpoint", None),
    ("sampling.ddim_sample", "outpaint.sampling", "ddim_sample", None),
    ("evaluation.evaluate", "outpaint.evaluation", "evaluate", None),
    ("evaluation.detect_keywords", "outpaint.evaluation", "detect_keywords", None),
    ("synthdata.build_dataset", "outpaint.synthdata", "build_dataset", None),
    ("synthdata.save_dataset", "outpaint.synthdata", "save_dataset", None),
    ("synthdata.load_dataset", "outpaint.synthdata", "load_dataset", None),
    ("ppm.read_ppm", "outpaint.ppm", "read_ppm", None),
    ("ppm.write_ppm", "outpaint.ppm", "write_ppm", None),
)
ADAM_SPAN = "trainer.adam"


def _outpaint_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "outpaint" or name.startswith("outpaint."))]


class Rebinder:
    """Replaces functions under all the names callers use; ``restore`` undoes it."""

    def __init__(self):
        # (owner, attribute, original, replacement, delete on restore)
        self._plan: list[tuple[object, str, object, object, bool]] = []

    def function(self, module: str, attr: str, make: Callable) -> None:
        """Rebind ``module.attr`` wherever a loaded outpaint module holds it."""
        original = getattr(importlib.import_module(module), attr)
        replacement = make(original)
        for mod in _outpaint_modules():
            for name, value in vars(mod).items():
                if value is original:
                    self._plan.append((mod, name, original, replacement, False))

    def method(self, obj, attr: str, make: Callable) -> None:
        """Shadow ``obj.attr`` with an instance attribute."""
        original = getattr(obj, attr)
        self._plan.append((obj, attr, original, make(original), attr not in vars(obj)))

    def apply(self) -> None:
        for owner, attr, _, replacement, _ in self._plan:
            setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original, _, delete in reversed(self._plan):
            if delete:
                vars(owner).pop(attr, None)
            else:
                setattr(owner, attr, original)


@dataclass
class Spans:
    """Recorded spans as numpy columns; index i is span i."""

    names: list[str]
    name: np.ndarray  # index into names
    start: np.ndarray  # ns
    end: np.ndarray  # ns
    parent: np.ndarray  # enclosing span index, -1 at top level
    op: np.ndarray  # op id, SETUP_OP outside timed ops
    work: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Duration minus the part covered by direct children (ns).

        Calls are synchronous, so children never overlap each other and
        lie inside their parent.
        """
        dur = self.duration
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return dur - covered

    def name_id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), name=self.name, start=self.start,
                            end=self.end, parent=self.parent, op=self.op, work=self.work)


class Tracer:
    """Records spans around every function in ``TARGETS``.

    Build it after the functions it should see are in place; ``apply()``
    and ``restore()`` switch the wrappers on and off, and ``op`` is
    stamped on each span so that spans can be grouped per timed op.
    """

    def __init__(self):
        self.op = SETUP_OP
        self._names: list[str] = []
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._op = array("i")
        self._work = array("d")
        self._stack: list[int] = []
        self._rebinder = Rebinder()
        for span, module, attr, work in TARGETS:
            self._rebinder.function(module, attr, self._wrapper(span, work))

    def trace_method(self, obj, attr: str, span: str) -> None:
        self._rebinder.method(obj, attr, self._wrapper(span, None))

    def apply(self) -> None:
        self._rebinder.apply()

    def restore(self) -> None:
        self._rebinder.restore()

    def __enter__(self):
        self.apply()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _wrapper(self, span: str, work: Callable | None) -> Callable:
        nid = len(self._names)
        self._names.append(span)
        names, starts, ends = self._name, self._start, self._end
        parents, ops, works, stack = self._parent, self._op, self._work, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = len(names)
                names.append(nid)
                parents.append(stack[-1] if stack else -1)
                ops.append(tracer.op)
                ends.append(0)
                works.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    out = fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
                if work is not None:
                    works[idx] = work(args, kwargs, out)
                return out

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def spans(self) -> Spans:
        def col(a, dtype):
            return np.frombuffer(a, dtype=dtype).copy() if len(a) else np.zeros(0, dtype)

        return Spans(
            names=list(self._names),
            name=col(self._name, np.int32),
            start=col(self._start, np.int64),
            end=col(self._end, np.int64),
            parent=col(self._parent, np.int32),
            op=col(self._op, np.int32),
            work=col(self._work, np.float64),
        )


# -- per-layer figures ---------------------------------------------------------

LAYERS = ("tensor", "prompt", "attention", "diffusion", "denoiser", "trainer",
          "sampling", "evaluation", "ppm")
# Functions that only run while setting up; reported per set-up, not per op.
SETUP_FUNCTIONS = ("synthdata.build_dataset", "synthdata.save_dataset",
                   "synthdata.load_dataset", "trainer.save_checkpoint",
                   "trainer.load_checkpoint")
# Call counts that must be the same for every op of a run.
EXACT_CALLS = (*(f"tensor.{p}" for p in TENSOR_PRIMITIVES), "tensor.backward",
               "denoiser.forward", "sampling.ddim_sample")
_STEP_PARTS = ("tensor.backward", "trainer.clip_gradients", ADAM_SPAN)


def per_op_counts(spans: Spans, op_weights: dict[int, int]) -> tuple[dict[str, float], list[str]]:
    """Exact call counts and denoiser rows per op, and the ops that disagree.

    ``op_weights`` maps each traced op id to the number of items it covers
    (one evaluate call over N images is one op id of weight N).
    """
    op_ids = np.array(sorted(op_weights), dtype=np.int64)
    weights = np.array([op_weights[o] for o in op_ids], dtype=np.float64)
    in_op = np.isin(spans.op, op_ids)
    dense = np.searchsorted(op_ids, spans.op[in_op])
    names = spans.name[in_op]
    k = len(spans.names)
    calls = np.bincount(dense * k + names, minlength=len(op_ids) * k).reshape(len(op_ids), k)
    rows_id = spans.name_id("denoiser.forward")
    rows = np.bincount(dense, weights=np.where(names == rows_id, spans.work[in_op], 0.0),
                       minlength=len(op_ids))
    table = np.column_stack([calls[:, [spans.name_id(n) for n in EXACT_CALLS]], rows]) / weights[:, None]
    keys = [f"{n}.calls" for n in EXACT_CALLS] + ["denoiser.forward.rows"]
    problems = [
        f"op {o}: {dict(zip(keys, table[i].tolist()))} differs from op {op_ids[0]}"
        for i, o in enumerate(op_ids) if not np.array_equal(table[i], table[0])
    ]
    return dict(zip(keys, table[0].tolist())), problems


def layer_metrics(spans: Spans, op_weights: dict[int, int], n_setups: int) -> dict[str, float]:
    """Per-layer figures: per op over spans of traced ops, per set-up for SETUP_FUNCTIONS.

    ``.ms`` figures are inclusive span time; ``<layer>.self_ms`` is span
    time minus the time of traced callees, summed over the layer's functions.
    """
    n_ops = sum(op_weights.values())
    in_op = np.isin(spans.op, list(op_weights))
    in_setup = spans.op == SETUP_OP
    dur = spans.duration / 1e6
    self_ms = spans.self_time() / 1e6

    def named(name, where=in_op):
        return where & (spans.name == spans.name_id(name))

    def calls(name, where=in_op, per=n_ops):
        return np.count_nonzero(named(name, where)) / per

    def ms(name, where=in_op, per=n_ops):
        return float(dur[named(name, where)].sum()) / per

    def children_of(name):
        has_parent = spans.parent >= 0
        under = np.zeros(len(dur), dtype=bool)
        under[has_parent] = spans.name[spans.parent[has_parent]] == spans.name_id(name)
        return in_op & under

    out: dict[str, float] = {}
    for p in TENSOR_PRIMITIVES:
        out[f"tensor.{p}.calls"] = calls(f"tensor.{p}")
        out[f"tensor.{p}.ms"] = ms(f"tensor.{p}")
    flops = float(spans.work[named("tensor.matmul")].sum())
    matmul_ns = float(spans.duration[named("tensor.matmul")].sum())
    out["tensor.matmul.mflop"] = flops / 1e6 / n_ops
    out["tensor.matmul.gflops"] = flops / matmul_ns if matmul_ns else 0.0
    out["tensor.backward.ms"] = ms("tensor.backward")
    for name in ("attention.cts_cross_attention", "attention.cross_attention",
                 "denoiser.forward", "prompt.tokenize_and_embed", "diffusion.ddim_step",
                 "sampling.ddim_sample", "evaluation.detect_keywords", "ppm.write_ppm"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.ms"] = ms(name)
    forward_calls = np.count_nonzero(named("denoiser.forward"))
    out["denoiser.forward.rows"] = (
        float(spans.work[named("denoiser.forward")].sum()) / forward_calls if forward_calls else 0.0
    )
    for name in ("diffusion.forward_sample", "diffusion.training_loss", "evaluation.evaluate",
                 "trainer.train_step", "trainer.clip_gradients", ADAM_SPAN):
        out[f"{name}.ms"] = ms(name)

    in_step = children_of("trainer.train_step")
    step_forward = in_step & ~np.isin(spans.name, [spans.name_id(n) for n in _STEP_PARTS])
    out["trainer.forward.ms"] = float(dur[step_forward].sum()) / n_ops
    out["trainer.other.ms"] = float(self_ms[named("trainer.train_step")].sum()) / n_ops
    step_ms = out["trainer.train_step.ms"]
    covered = out["trainer.forward.ms"] + sum(ms(n, in_step) for n in _STEP_PARTS)
    out["trainer.step_coverage_pct"] = 100.0 * covered / step_ms if step_ms else 0.0

    in_sample = children_of("sampling.ddim_sample")
    images = np.count_nonzero(named("sampling.ddim_sample"))
    out["sampling.forwards_per_image"] = (
        np.count_nonzero(named("denoiser.forward", in_sample)) / images if images else 0.0
    )
    sample_ms = out["sampling.ddim_sample.ms"]
    out["sampling.forward_coverage_pct"] = (
        100.0 * ms("denoiser.forward", in_sample) / sample_ms if sample_ms else 0.0
    )

    for layer in LAYERS:
        mine = in_op & np.isin(spans.name, [i for i, n in enumerate(spans.names)
                                            if n.startswith(layer + ".")])
        out[f"{layer}.self_ms"] = float(self_ms[mine].sum()) / n_ops
    out["trace.spans"] = np.count_nonzero(in_op) / n_ops

    for name in SETUP_FUNCTIONS:
        out[f"{name}.ms"] = ms(name, in_setup, n_setups)
    out["ppm.read_ppm.calls"] = calls("ppm.read_ppm", in_setup, n_setups)
    out["ppm.read_ppm.ms"] = ms("ppm.read_ppm", in_setup, n_setups)
    return out
