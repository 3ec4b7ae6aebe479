"""The three benchmark workloads and the checks on their outputs.

Every workload is a closed loop with one caller: the next op starts when
the previous one returns, as in the single training loop and the single
user waiting on each image. An op is one ``trainer.train_step`` (``train``,
``train_large``) or one sampled image (``eval``). A run sets up several
times and reports the median set-up time, then times ops until ``seconds``
have passed and at least ``min_ops`` ops ran, so that p90 has ten samples
beyond it.

With a ``Tracer`` the odd-numbered ops run traced and the even ones not,
so one run gives the per-layer figures and the tracing overhead.

The 2-core virtual machine this was tuned on changes speed by up to half
for tens of seconds at a time, so raw times of consecutive runs disagree
by more than any useful bound. Around every op, set-up and image of the
evaluate call the run times ``reference_ms()``, a fixed computation of
the same kind (small BLAS matmuls, elementwise numpy, Python objects), and
reports end-to-end times at reference speed: measured time x REF_MS /
reference time measured next to it. The ratio holds within about 1% where
raw medians of 30-second runs spread by 20%. Raw figures go to the run
record beside them.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from outpaint import evaluation as EV
from outpaint import ppm
from outpaint import prompt as P
from outpaint import sampling as S
from outpaint import synthdata as SD
from outpaint import tensor as T
from outpaint import trainer as TR
from perfbench.tracing import ADAM_SPAN, SETUP_OP, Rebinder, Spans, Tracer, layer_metrics, per_op_counts

MIN_OPS = 100  # p90 then has at least ten samples beyond it
SETUPS = 5  # set-ups per run; setup_s is their median
WARMUP_STEPS = 2
TRAIN_DATASET = 2000  # the criterion-6 desk run
PHASE_A_SHARE = 0.7  # share of `seconds` given to batch-1 sampling on eval
PHASE_B_IMAGES = 32  # images in the one evaluate call on eval
# Just enough samples for phase B: file-creation times swing tenfold on the
# tuning machine, so fewer files make a steadier set-up time.
EVAL_DATASET = PHASE_B_IMAGES
CHECKED_IMAGES = 4  # phase-B images compared byte for byte with phase A
PHASE_B_OP = 1 << 30  # op id of the evaluate call in the trace
REF_MS = 4.0  # about reference_ms() on an idle core of the 2-core machine it was tuned on
REF_REPEATS = 5  # reference timings before and after a set-up or the evaluate call
REF_BETWEEN_IMAGES = 3  # reference timings between two images of the evaluate call


def node_count() -> int:
    """Tensors created so far, read from the tensor module's node-id counter."""
    text = repr(T._node_ids)  # "count(<next id>)"
    return int(text[text.index("(") + 1:-1])


def reference_ms() -> float:
    """Milliseconds taken by a fixed computation shaped like the ops."""
    g = np.random.default_rng(0)
    a, b, c = g.standard_normal((64, 64)), g.standard_normal((64, 256)), g.standard_normal((256, 64))
    t0 = time.perf_counter()
    x = a
    for _ in range(30):
        y = np.exp(-np.abs(x @ b)) @ c
        x = (y - y.mean(axis=1, keepdims=True)) * 0.01 + a
        _objects = [(i, x) for i in range(50)]
    return (time.perf_counter() - t0) * 1e3


def _reference_median(repeats: int) -> float:
    return float(np.median([reference_ms() for _ in range(repeats)]))


class PieceTimer:
    """Times work cut into pieces by reference timings.

    Each piece is scaled to reference speed by the mean of the reference
    timings on either side of it. The first and last pieces are bracketed
    by the median of REF_REPEATS timings.
    """

    def __init__(self):
        self.raw = self.scaled = 0.0
        self._ref = _reference_median(REF_REPEATS)
        self._start = time.perf_counter()

    def split(self, repeats: int = 1) -> None:
        """End the current piece, take reference timings, start the next."""
        seconds = time.perf_counter() - self._start
        ref = _reference_median(repeats)
        self.raw += seconds
        self.scaled += seconds * 2.0 * REF_MS / (self._ref + ref)
        self._ref = ref
        self._start = time.perf_counter()


def latency_stats(ms: list[float]) -> tuple[float, float]:
    """Median and p90 (linear interpolation between closest ranks)."""
    p50, p90 = np.percentile(np.asarray(ms, dtype=np.float64), [50, 90])
    return float(p50), float(p90)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]  # name -> (value, unit)
    aliases: dict[str, str]  # end-to-end name -> the workload-specific name
    exact_counts: dict[str, float]  # per-op counts that must repeat exactly
    problems: list[str] = field(default_factory=list)
    spans: Spans | None = None
    raw: dict[str, float] = field(default_factory=dict)  # end-to-end figures before scaling

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


@dataclass
class OpLog:
    ms: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    nodes: list[int] = field(default_factory=list)
    ref_ms: list[float] = field(default_factory=list)  # reference_ms() before op 0 and after each op
    failed: int = 0

    def scaled_ms(self) -> list[float]:
        """Op times at reference speed, each scaled by the mean of the
        reference timings just before and just after it."""
        return [m * 2.0 * REF_MS / (before + after)
                for m, before, after in zip(self.ms, self.ref_ms, self.ref_ms[1:])]

    def untraced_ms(self) -> list[float]:
        return [m for m, t in zip(self.ms, self.traced) if not t]

    def traced_ms(self) -> list[float]:
        return [m for m, t in zip(self.ms, self.traced) if t]


def _report_exception(what: str) -> None:
    print(f"{what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def run_ops(op: Callable[[int], bool], seconds: float, min_ops: int, tracer: Tracer | None) -> OpLog:
    """Call ``op(i)`` for i = 0, 1, ... until time is up and ``min_ops`` ran.

    ``op`` returns whether its output passed its checks; an op that raises
    or returns False counts as failed.
    """
    log = OpLog()
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    log.ref_ms.append(reference_ms())
    i = 0
    while i < min_ops or clock() < deadline:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.op = i
            tracer.apply()
        n0 = node_count()
        t0 = clock()
        try:
            ok = op(i)
        except Exception:
            if not log.failed:
                _report_exception(f"op {i}")
            ok = False
        t1 = clock()
        log.nodes.append(node_count() - n0)
        if traced:
            tracer.restore()
            tracer.op = SETUP_OP
        log.ms.append((t1 - t0) / 1e6)
        log.ref_ms.append(reference_ms())
        log.traced.append(traced)
        log.failed += not ok
        i += 1
    return log


def timed_setups(setup: Callable[[int], object], n: int, tracer: Tracer | None):
    """Run ``setup(k)`` n times; return the last state and the median
    seconds, raw and at reference speed.

    With a tracer the last set-up runs traced, for the per-set-up figures.
    """
    seconds, scaled = [], []
    reference_ms()  # the first call pays numpy's lazy set-up
    for k in range(n):
        state = None  # let the previous set-up's memory go first
        traced = tracer is not None and k == n - 1
        if traced:
            tracer.apply()
        timer = PieceTimer()
        try:
            state = setup(k)
        finally:
            timer.split(REF_REPEATS)
            if traced:
                tracer.restore()
        seconds.append(timer.raw)
        scaled.append(timer.scaled)
    return state, float(np.median(seconds)), float(np.median(scaled))


class Probes:
    """Correctness hooks on values an op does not return.

    Records the pre-clip gradient norm of every ``clip_gradients`` call and
    checks that every image ``evaluate`` hands to ``detect_keywords`` is
    finite. Active for the whole run, traced or not; each adds one Python
    call per train step or per image. ``between_images`` lets the untraced
    evaluate call take reference timings between its images.
    """

    def __init__(self):
        self.grad_norms: list[float] = []
        self.images_checked = 0
        self.nonfinite_images = 0
        self.between_images: Callable[[], None] | None = None  # run before each detection
        self._rebinder = Rebinder()
        self._rebinder.function("outpaint.trainer", "clip_gradients", self._record_norm)
        self._rebinder.function("outpaint.evaluation", "detect_keywords", self._check_image)

    def _record_norm(self, fn):
        def clip_gradients(*args, **kwargs):
            norm = fn(*args, **kwargs)
            self.grad_norms.append(float(norm))
            return norm

        return clip_gradients

    def _check_image(self, fn):
        def detect_keywords(image, *args, **kwargs):
            self.images_checked += 1
            self.nonfinite_images += not np.isfinite(image).all()
            if self.between_images is not None:
                self.between_images()
            return fn(image, *args, **kwargs)

        return detect_keywords

    def __enter__(self):
        self._rebinder.apply()
        return self

    def __exit__(self, *exc):
        self._rebinder.restore()


def _exact_nodes(log: OpLog, problems: list[str]) -> int:
    counts = sorted(set(log.nodes))
    if len(counts) != 1:
        problems.append(f"tensor.nodes differs between ops: {counts}")
    return counts[0]


def _traced_figures(tracer: Tracer, op_weights: dict[int, int], log: OpLog, nodes: int,
                    exact: dict[str, float], problems: list[str]) -> tuple[dict, Spans]:
    spans = tracer.spans()
    counts, mismatches = per_op_counts(spans, op_weights)
    problems += mismatches
    exact.update(counts)
    figures = layer_metrics(spans, op_weights, n_setups=1)
    figures["tensor.nodes"] = float(nodes)
    untraced, traced = np.median(log.untraced_ms()), np.median(log.traced_ms())
    figures["trace.overhead_pct"] = float(100.0 * (traced / untraced - 1.0))
    return {name: (value, layer_unit(name)) for name, value in figures.items()}, spans


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(".mflop"):
        return "MFLOP"
    if name.endswith(".gflops"):
        return "GFLOP/s"
    return "count"


def _end_to_end(setup_s: list[float], log: OpLog, items: int,
                item_seconds: tuple[float, float]) -> tuple[dict, dict]:
    """End-to-end metrics at reference speed, and the same figures raw.

    ``setup_s`` and ``item_seconds`` are (raw, scaled) pairs; ``items``
    were processed in ``item_seconds``.
    """
    p50, p90 = latency_stats(log.scaled_ms())
    raw_p50, raw_p90 = latency_stats(log.ms)
    metrics = {
        "setup_s": (setup_s[1], "s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_p90": (p90, "ms"),
        "items_per_s": (items / item_seconds[1], "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = {"setup_s": setup_s[0], "op_ms_p50": raw_p50, "op_ms_p90": raw_p90,
           "items_per_s": items / item_seconds[0],
           "speed_factor": float(np.median([REF_MS / r for r in log.ref_ms]))}
    return metrics, raw


def _loss_trend(losses: list[float], problems: list[str]) -> int:
    """Failed ops if the last tenth of the losses is not below the first tenth."""
    tenth = len(losses) // 10
    if tenth < 2:  # too few steps for the comparison to mean anything
        return 0
    first, last = float(np.mean(losses[:tenth])), float(np.mean(losses[-tenth:]))
    if last < first:
        return 0
    problems.append(f"loss did not fall: first tenth {first:.6f}, last tenth {last:.6f}")
    return tenth


def run_train(seed: int, seconds: float, trace: bool, scratch: str, *, image_size: int,
              center_size: int, min_ops: int = MIN_OPS, setups: int = SETUPS) -> Result:
    """Consecutive train steps with the default TrainConfig at one image size."""
    cfg = TR.TrainConfig(seed=seed, image_size=image_size, center_size=center_size)
    spec = SD.SynthSpec(image_size=image_size, center_size=center_size)
    vocab = SD.vocabulary()
    schedule = cfg.schedule()

    def step(state) -> float:
        samples, params, opt = state
        rng = TR.step_rng(cfg.seed, opt.t)  # run_training's per-step generator
        batch = [samples[i] for i in rng.integers(0, len(samples), size=cfg.batch_size)]
        return TR.train_step(batch, params, opt, schedule, rng, vocab, cfg.grad_clip)

    def setup(_k):
        samples, _ = SD.build_dataset(TRAIN_DATASET, seed, spec, uncond_fraction=cfg.uncond_fraction)
        params = TR.init_model(cfg, vocab)
        state = (samples, params, TR.Adam(params.trainable_parameters(), lr=cfg.learning_rate))
        for _ in range(WARMUP_STEPS):
            step(state)
        return state

    problems: list[str] = []
    losses: list[float] = []
    with Probes() as probes:
        tracer = Tracer() if trace else None
        state, *setup_s = timed_setups(setup, setups, tracer)
        if tracer is not None:
            tracer.trace_method(state[2], "step", ADAM_SPAN)

        def op(_i) -> bool:
            norms = len(probes.grad_norms)
            loss = step(state)
            losses.append(loss)
            return (math.isfinite(loss) and len(probes.grad_norms) == norms + 1
                    and math.isfinite(probes.grad_norms[-1]))

        log = run_ops(op, seconds, min_ops, tracer)

    failed = log.failed + _loss_trend(losses, problems)
    nodes = _exact_nodes(log, problems)
    exact = {"tensor.nodes": float(nodes)}
    aliases = {"op_ms_p50": "train_step_ms_p50", "op_ms_p90": "train_step_ms_p90",
               "items_per_s": "train_samples_per_s"}
    if tracer is not None:
        weights = {i: 1 for i, t in enumerate(log.traced) if t}
        metrics, spans = _traced_figures(tracer, weights, log, nodes, exact, problems)
        return Result(len(log.ms), failed, metrics, aliases, exact, problems, spans)
    op_seconds = sum(log.ms) / 1e3, sum(log.scaled_ms()) / 1e3
    metrics, raw = _end_to_end(setup_s, log, cfg.batch_size * len(log.ms), op_seconds)
    return Result(len(log.ms), failed, metrics, aliases, exact, problems, raw=raw)


@dataclass
class EvalState:
    samples: list
    prompts: list
    params: object
    cfg: TR.TrainConfig
    schedule: object


def run_eval(seed: int, seconds: float, trace: bool, scratch: str, *, min_ops: int = MIN_OPS,
             setups: int = SETUPS, phase_b_images: int = PHASE_B_IMAGES) -> Result:
    """Read-side use of the model: batch-1 sampling (phase A), then one
    swapped-prompt evaluate call (phase B), from an on-disk checkpoint and
    dataset."""
    vocab = SD.vocabulary()

    def sample_image(st: EvalState, i: int, n_steps: int) -> np.ndarray:
        # exactly what evaluate does for item i, so phase B must reproduce it
        sample = st.samples[i % len(st.samples)]
        cfg = st.params.cfg
        pe = P.tokenize_and_embed(st.prompts[i % len(st.prompts)], vocab, st.params.text_table,
                                  cfg.l_center, cfg.l_surround)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        masked = sample.image * (1.0 - sample.pixel_mask)
        return S.ddim_sample(st.params, st.schedule, masked, sample.pixel_mask, pe, n_steps, rng)

    def setup(k) -> EvalState:
        data_dir = os.path.join(scratch, f"setup-{k}", "data")
        ckpt = os.path.join(scratch, f"setup-{k}", "model.ckpt")
        samples, seeds = SD.build_dataset(EVAL_DATASET, seed)
        SD.save_dataset(samples, seeds, data_dir)
        samples, _ = SD.load_dataset(data_dir)
        cfg = TR.TrainConfig(seed=seed)
        params = TR.init_model(cfg, vocab)
        TR.save_checkpoint(params, TR.Adam(params.trainable_parameters(), lr=cfg.learning_rate), cfg, ckpt)
        params, _, cfg = TR.load_checkpoint(ckpt, vocab)
        prompts = EV.swap_surrounding_colors([s.caption for s in samples], seed)
        st = EvalState(samples, prompts, params, cfg, cfg.schedule())
        sample_image(st, 0, st.cfg.infer_steps)  # warm-up: the first image, as `outpaint sample` makes
        return st

    problems: list[str] = []
    kept: dict[int, np.ndarray] = {}
    with Probes() as probes:
        tracer = Tracer() if trace else None
        st, *setup_s = timed_setups(setup, setups, tracer)
        # deleted before the kernel writes them back, so that disk traffic
        # from one run does not slow the file writes of the next
        for k in range(setups):
            shutil.rmtree(os.path.join(scratch, f"setup-{k}"))

        def op(i) -> bool:
            gen = sample_image(st, i, st.cfg.infer_steps)
            if i < CHECKED_IMAGES:
                kept[i] = gen
            return bool(np.isfinite(gen).all())

        log = run_ops(op, seconds * PHASE_A_SHARE, min_ops, tracer)

        n_b = min(phase_b_images, len(st.samples))
        out_dir = os.path.join(scratch, "eval-out")
        checked, nonfinite = probes.images_checked, probes.nonfinite_images
        if tracer is not None:
            tracer.op = PHASE_B_OP
            tracer.apply()
        timer = PieceTimer()
        if tracer is None:  # traced, the timings would land inside detect_keywords spans
            probes.between_images = partial(timer.split, REF_BETWEEN_IMAGES)
        n0 = node_count()
        try:
            report = EV.evaluate(st.params, st.schedule, st.samples, n_b, vocab, prompt_mode="custom",
                                 custom_prompts=st.prompts, infer_steps=st.cfg.infer_steps, seed=seed,
                                 out_dir=out_dir)
            failed_b = probes.nonfinite_images - nonfinite
            if probes.images_checked - checked != n_b:
                problems.append(f"evaluate scored {probes.images_checked - checked} of {n_b} images")
            if not math.isfinite(report.center_mse):
                problems.append(f"evaluate center_mse is {report.center_mse}")
        except Exception:
            _report_exception("evaluate")
            failed_b = n_b
        timer.split(REF_REPEATS)
        b_nodes = node_count() - n0
        probes.between_images = None
        if tracer is not None:
            tracer.restore()
            tracer.op = SETUP_OP

    failed_b += _compare_with_phase_a(kept, min(n_b, len(log.ms)), out_dir, scratch, problems)
    nodes = _exact_nodes(log, problems)
    if b_nodes != n_b * nodes:
        problems.append(f"evaluate made {b_nodes} tensors for {n_b} images, {nodes} per image expected")
    exact = {"tensor.nodes": float(nodes)}
    aliases = {"op_ms_p50": "sample_ms_p50", "op_ms_p90": "sample_ms_p90",
               "items_per_s": "eval_images_per_s"}
    attempted, failed = len(log.ms) + n_b, log.failed + failed_b
    if tracer is not None:
        weights = {i: 1 for i, t in enumerate(log.traced) if t}
        weights[PHASE_B_OP] = n_b
        metrics, spans = _traced_figures(tracer, weights, log, nodes, exact, problems)
        return Result(attempted, failed, metrics, aliases, exact, problems, spans)
    metrics, raw = _end_to_end(setup_s, log, n_b, (timer.raw, timer.scaled))
    return Result(attempted, failed, metrics, aliases, exact, problems, raw=raw)


def _compare_with_phase_a(kept: dict[int, np.ndarray], k: int, out_dir: str, scratch: str,
                          problems: list[str]) -> int:
    """Images evaluate wrote for items < k must equal phase A's, as PPM bytes."""
    ref_dir = tempfile.mkdtemp(dir=scratch, prefix="phase-a-")
    mismatched = 0
    for i in range(min(k, CHECKED_IMAGES)):
        if i not in kept:  # phase A op i raised and is already counted
            continue
        ref = os.path.join(ref_dir, f"gen_{i:05d}.ppm")
        ppm.write_ppm(ref, kept[i])
        got = os.path.join(out_dir, f"gen_{i:05d}.ppm")
        with open(ref, "rb") as fa:
            want = fa.read()
        try:
            with open(got, "rb") as fb:
                same = fb.read() == want
        except FileNotFoundError:
            same = False
        if not same:
            mismatched += 1
            problems.append(f"evaluate image {i} differs from ddim_sample with the same seed and prompt")
    return mismatched


WORKLOADS: dict[str, Callable[..., Result]] = {
    # per-op overhead: about a thousand tape nodes per step over 64 tokens
    "train": partial(run_train, image_size=16, center_size=8),
    # arithmetic: 256 tokens, the 256x256 self-attention dominates forward
    "train_large": partial(run_train, image_size=32, center_size=16),
    # the read side: no tape, 50 batch-1 forwards per image, then evaluate
    "eval": run_eval,
}
