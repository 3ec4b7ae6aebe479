"""Tests of the benchmark's own code: arithmetic, tracing, checks and smoke runs.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from outpaint import attention as A
from outpaint import sampling as S
from outpaint import tensor as T
from outpaint import trainer as TR
from perfbench import run, workloads as W
from perfbench.tracing import SETUP_OP, Spans, Tracer

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = dict(min_ops=4, setups=1)


def outpaint_bindings():
    """Every attribute of every loaded outpaint module, by identity."""
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name == "outpaint" or name.startswith("outpaint.")
            for attr, value in vars(mod).items()}


def smoke(workload, trace, tmp_path, **kw):
    extra = dict(SMOKE, phase_b_images=2) if workload == "eval" else dict(SMOKE)
    extra.update(kw)
    return W.WORKLOADS[workload](5, 0.1, trace, str(tmp_path), **extra)


# -- arithmetic ---------------------------------------------------------------


def test_latency_stats_interpolate_between_ranks():
    p50, p90 = W.latency_stats([float(v) for v in range(100, 0, -1)])
    assert p50 == pytest.approx(50.5)
    assert p90 == pytest.approx(90.1)


def test_self_time_subtracts_direct_children_only():
    # 0 [0,100] holds 1 [10,40] and 3 [50,70]; 1 holds 2 [15,25]
    spans = Spans(names=["a", "b"], name=np.array([0, 1, 1, 0]), start=np.array([0, 10, 15, 50]),
                  end=np.array([100, 40, 25, 70]), parent=np.array([-1, 0, 1, 0]),
                  op=np.zeros(4, dtype=np.int32), work=np.zeros(4))
    assert spans.self_time().tolist() == [50, 20, 10, 20]


def test_loss_trend_fails_the_last_tenth_when_loss_does_not_fall():
    problems = []
    assert W._loss_trend([1.0] * 10 + [0.5] * 10, problems) == 0
    assert W._loss_trend([0.5] * 10 + [1.0] * 10, problems) == 2
    assert W._loss_trend([0.5, 1.0], problems) == 0  # too short to judge
    assert len(problems) == 1


# -- tracing --------------------------------------------------------------------


def test_spans_nest_inside_their_callers():
    g = np.random.default_rng(0)
    w = A.CrossAttnWeights(*(T.Tensor(g.normal(size=(4, 4))) for _ in range(3)))
    x = T.Tensor(g.normal(size=(3, 4)))
    tracer = Tracer()
    tracer.op = 7
    with tracer:
        A.cross_attention(x, x, w)
        x + x  # operator sugar reaches the traced primitive too
    spans = tracer.spans()
    names = [spans.names[i] for i in spans.name]
    root = names.index("attention.cross_attention")
    assert spans.parent[root] == -1
    inner = [i for i in range(len(names)) if i != root and spans.parent[i] == root]
    assert {names[i] for i in inner} == {"tensor.matmul", "tensor.transpose", "tensor.scale",
                                         "tensor.softmax_rows"}
    assert all(spans.start[root] <= spans.start[i] <= spans.end[i] <= spans.end[root] for i in inner)
    assert names[-1] == "tensor.add" and spans.parent[-1] == -1
    assert set(spans.op.tolist()) == {7}
    flops = spans.work[[i for i, n in enumerate(names) if n == "tensor.matmul"]]
    assert flops.sum() == 3 * (2 * 3 * 4 * 4) + 2 * (2 * 3 * 3 * 4)  # q, k, v; logits, mix


def test_wrappers_are_fully_restored_after_a_traced_run(tmp_path):
    before = outpaint_bindings()
    result = smoke("train", True, tmp_path)
    after = outpaint_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert result.spans is not None and SETUP_OP in result.spans.op


# -- checks -------------------------------------------------------------------


def test_injected_nonfinite_loss_counts_as_failed(tmp_path, monkeypatch):
    real = TR.train_step
    calls = []

    def nan_on_second_step(*args, **kwargs):
        loss = real(*args, **kwargs)
        calls.append(loss)
        return math.nan if len(calls) == 2 + W.WARMUP_STEPS else loss

    monkeypatch.setattr(TR, "train_step", nan_on_second_step)
    result = smoke("train", False, tmp_path)
    assert result.failed == 1 and not result.correct


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
def test_injected_nonfinite_image_counts_as_failed(tmp_path, monkeypatch):
    real = S.ddim_sample

    def nan_image(*args, **kwargs):
        img = real(*args, **kwargs)
        return np.full_like(img, np.nan) if args[5] > 1 else img  # spare the warm-up

    monkeypatch.setattr(S, "ddim_sample", nan_image)
    result = smoke("eval", False, tmp_path)
    assert result.failed >= result.attempted - 2 and not result.correct


def test_counts_that_change_between_runs_are_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.check_repeat_counts("train", "abc", {"tensor.nodes": 1024.0}) == []
    assert run.check_repeat_counts("train", "abc", {"tensor.nodes": 1024.0}) == []
    assert run.check_repeat_counts("train", "abd", {"tensor.nodes": 1000.0}) == []
    assert len(run.check_repeat_counts("train", "abc", {"tensor.nodes": 1000.0})) == 1


# -- smoke runs -----------------------------------------------------------------


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_declared_metric(workload, trace, tmp_path):
    result = smoke(workload, trace, tmp_path)
    assert result.correct, result.problems
    assert result.failed == 0 and result.attempted >= SMOKE["min_ops"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result.metrics) == [m["name"] for m in declared]
    assert [u for _, u in result.metrics.values()] == [m["unit"] for m in declared]
    if not trace:
        assert all(v > 0 for v, _ in result.metrics.values())
    assert result.exact_counts["tensor.nodes"] > 0


def test_traced_step_is_covered_by_its_parts(tmp_path):
    figures = {k: v for k, (v, _) in smoke("train", True, tmp_path).metrics.items()}
    assert figures["trainer.step_coverage_pct"] >= 90.0
    assert figures["denoiser.forward.calls"] == 4 and figures["denoiser.forward.rows"] == 64


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
