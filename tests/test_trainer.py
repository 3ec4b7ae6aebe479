import gc
import hashlib
import importlib
import math
import os
import pkgutil
import struct
import tracemalloc
import types
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import outpaint
from outpaint import cli
from outpaint import denoiser as DN
from outpaint import diffusion as D
from outpaint import synthdata as SD
from outpaint import tensor as T
from outpaint import trainer as TR
from outpaint.prompt import UNCONDITIONAL
from outpaint.tensor import Tensor


VOCAB = SD.vocabulary()

TOY = TR.TrainConfig(
    iterations=4,
    batch_size=2,
    learning_rate=1e-3,
    seed=3,
    t_steps=20,
    image_size=12,
    center_size=8,
    patch_size=3,
    d_model=16,
    n_blocks=1,
    d_text=8,
    l_center=4,
    l_surround=4,
    checkpoint_every=2,
)


def toy_samples(n=8, seed=0):
    spec = SD.SynthSpec(image_size=12, center_size=8)
    samples, _ = SD.build_dataset(n, seed=seed, spec=spec)
    return samples


# -- adam -------------------------------------------------------------------


def test_adam_zero_grad_leaves_param_unchanged():
    p = np.array([1.0, -2.0, 3.0])
    m = np.zeros(3)
    v = np.zeros(3)
    TR.adam_update(p, np.zeros(3), m, v, t=1, lr=0.1)
    np.testing.assert_array_equal(p, [1.0, -2.0, 3.0])


def test_adam_single_step_matches_bias_correction_oracle():
    rng = np.random.default_rng(0)
    g = rng.uniform(-2, 2, 5)
    p = rng.uniform(-1, 1, 5)
    p0 = p.copy()
    m = np.zeros(5)
    v = np.zeros(5)
    lr = 0.01
    TR.adam_update(p, g, m, v, t=1, lr=lr)
    # independent oracle: at t=1 m_hat = g and sqrt(v_hat) = |g| exactly
    want = p0 - lr * g / (np.abs(g) + TR.ADAM_EPS)
    np.testing.assert_allclose(p, want, atol=1e-12)


def test_adam_constant_gradient_step_size_approaches_lr():
    g = np.array([0.37])
    p = np.array([0.0])
    m = np.zeros(1)
    v = np.zeros(1)
    lr = 0.05
    last = p.copy()
    for t in range(1, 2001):
        TR.adam_update(p, g, m, v, t=t, lr=lr)
        if t >= 1999:
            step = abs(float(p[0] - last[0]))
        last = p.copy()
    assert step == pytest.approx(lr, rel=1e-3)


@pytest.mark.parametrize("shape", [(), (3, 4)])
def test_adam_update_equals_the_textbook_formula_bitwise(shape):
    rng = np.random.default_rng(1)
    p, m, v = rng.uniform(-1, 1, shape), np.zeros(shape), np.zeros(shape)
    want_p, want_m, want_v = p.copy(), m.copy(), v.copy()
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    for t in range(1, 6):
        g = rng.uniform(-2, 2, shape)
        TR.adam_update(p, g, m, v, t=t, lr=lr)
        want_m = b1 * want_m + (1 - b1) * g
        want_v = b2 * want_v + (1 - b2) * g * g
        want_p = want_p - lr * (want_m / (1 - b1**t)) / (np.sqrt(want_v / (1 - b2**t)) + eps)
    assert np.array_equal(p, want_p) and np.array_equal(m, want_m) and np.array_equal(v, want_v)


def test_adam_shape_mismatch():
    with pytest.raises(Exception):
        TR.adam_update(np.zeros(3), np.zeros(4), np.zeros(3), np.zeros(3), 1, 0.1)


def test_clip_gradients_scales_to_max_norm():
    p = Tensor(np.zeros(4), requires_grad=True)
    p.grad = np.array([3.0, 4.0, 0.0, 0.0])
    norm = TR.clip_gradients([("p", p)], 1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(p.grad) == pytest.approx(1.0)
    q = Tensor(np.zeros(2), requires_grad=True)
    q.grad = np.array([0.1, 0.1])
    TR.clip_gradients([("q", q)], 1.0)
    np.testing.assert_array_equal(q.grad, [0.1, 0.1])  # under the cap: untouched


# -- config -------------------------------------------------------------------


def config_via_cli(path, *flags):
    """A config as `outpaint train --config <path> <flags>` builds it."""
    args = cli.build_parser().parse_args(["train", "--data", "d", "--out", "o", "--config", str(path), *flags])
    return cli._config_from_args(args)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(
        "# toy run\niterations = 12\nlearning_rate = 0.01\na_mode = constant:0.25\n\nseed=9 # inline\n"
    )
    cfg = config_via_cli(path)
    assert cfg.iterations == 12
    assert cfg.learning_rate == 0.01
    assert cfg.a_mode == "constant:0.25"
    assert cfg.seed == 9


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("bogus_key = 1\n")
    with pytest.raises(TR.ConfigError):
        config_via_cli(path)


def test_config_key_set_twice_rejected(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("learning_rate = 0.001\n# a comment\nlearning_rate = 0.5\n")
    with pytest.raises(TR.ConfigError, match=r"twice\.cfg:3: 'learning_rate' already set on line 1"):
        config_via_cli(path)
    assert cli.main(["train", "--data", "d", "--out", str(tmp_path / "run"), "--config", str(path)]) == cli.EXIT_USAGE
    assert sorted(os.listdir(tmp_path)) == ["twice.cfg"]


def test_config_bad_value_rejected():
    with pytest.raises(TR.ConfigError):
        TR.config_from_mapping({"iterations": "many"})
    with pytest.raises(TR.ConfigError):
        TR.config_from_mapping({"a_mode": "sometimes"})


def test_config_overrides_win(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("iterations = 12\nseed = 9\n")
    cfg = config_via_cli(path, "--iterations", "5")
    assert cfg.iterations == 5
    assert cfg.seed == 9  # keys no flag overrides still come from the file


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), -float("inf"), -1e-3])
def test_non_finite_or_negative_learning_rate_rejected(lr):
    with pytest.raises(TR.ConfigError, match="learning_rate"):
        TR.TrainConfig(learning_rate=lr)
    with pytest.raises(TR.ConfigError, match="learning_rate"):
        TR.config_from_mapping({"learning_rate": repr(lr)})


@pytest.mark.parametrize("overrides", [
    {"beta_end": "2"},
    {"beta_start": "nan"},
    {"grad_clip": "nan"},
    {"infer_steps": "0"},
    {"center_size": "20", "image_size": "12"},
])
def test_schedule_sampler_clip_and_center_rejected(overrides):
    with pytest.raises(TR.ConfigError):
        TR.config_from_mapping(overrides)


@pytest.mark.parametrize("overrides", [
    {"seed": "-1"},
    {"uncond_fraction": "5"},
    {"uncond_fraction": "-0.5"},
    {"uncond_fraction": "nan"},
])
def test_negative_seed_and_uncond_fraction_outside_unit_interval_rejected(overrides):
    with pytest.raises(TR.ConfigError, match=next(iter(overrides))):
        TR.config_from_mapping(overrides)


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("configs")


_CONFIG_VALUES = st.text(max_size=12) | st.integers(-5, 5000).map(str) | st.floats().map(repr)
_CONFIG_LINES = st.lists(
    st.tuples(st.sampled_from(sorted(TR._PARSERS)) | st.text(min_size=1, max_size=12), _CONFIG_VALUES)
    .map(lambda kv: f"{kv[0]} = {kv[1]}"),
    max_size=6,
).map(lambda lines: "\n".join(lines).encode("utf-8"))


@settings(max_examples=150, deadline=None)
@given(raw=st.binary(max_size=256) | _CONFIG_LINES)
def test_config_file_bytes_load_or_raise_config_error(config_dir, raw):
    path = config_dir / "fuzz.cfg"
    path.write_bytes(raw)
    try:
        assert isinstance(config_via_cli(path), TR.TrainConfig)
    except TR.ConfigError:
        pass


# Partners that keep the cross-value rules (divisibility, token count, center
# mask, schedule order) satisfied while one field sits at a bound.
_BOUND_PARTNERS = {
    ("image_size", "lo"): {"center_size": 2},
    ("image_size", "hi"): {"patch_size": 16},
    ("patch_size", "hi"): {"image_size": 1024},
    ("center_size", "hi"): {"image_size": 1024, "patch_size": 16},
    ("beta_start", "hi"): {"beta_end": TR.TrainConfig.range_of("beta_end")[1]},
    ("beta_end", "lo"): {"beta_start": TR.TrainConfig.range_of("beta_start")[0]},
}


@pytest.mark.parametrize("f", [f for f in fields(TR.TrainConfig) if f.type in ("int", "float")],
                         ids=lambda f: f.name)
def test_every_number_declares_a_range_that_holds_at_its_bounds(f):
    assert "range" in f.metadata, f"{f.name} declares no range"
    lo, hi = f.metadata["range"]
    if f.type == "int":
        below, above = lo - 1, hi + 1
    else:
        below, above = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        with pytest.raises(TR.ConfigError, match=f.name):
            TR.TrainConfig(**{f.name: math.nan})
    for side, bound, outside in (("lo", lo, below), ("hi", hi, above)):
        if math.isfinite(bound):  # an int count may have no ceiling
            partners = _BOUND_PARTNERS.get((f.name, side), {})
            assert getattr(TR.TrainConfig(**{f.name: bound, **partners}), f.name) == bound
            with pytest.raises(TR.ConfigError, match=f.name):
                TR.TrainConfig(**{f.name: outside, **partners})


def test_invalid_model_geometry_rejected_at_construction():
    with pytest.raises(TR.ConfigError):
        TR.TrainConfig(d_model=6)  # 2-d sinusoidal positions need d_model % 4 == 0
    with pytest.raises(TR.ConfigError):
        TR.config_from_mapping({"image_size": "15"})


def test_each_fault_has_one_exception_type():
    for module in pkgutil.iter_modules(outpaint.__path__, "outpaint."):
        importlib.import_module(module.name)
    declared, todo = set(), [Exception]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__module__.startswith("outpaint."):
            declared.add(f"{cls.__module__}.{cls.__qualname__}")
    assert declared == {
        "outpaint.tensor.ShapeMismatch", "outpaint.tensor.GraphConsumed", "outpaint.tensor.NonFinite",
        "outpaint.attention.MaskNotBinary",
        "outpaint.denoiser.ConfigError", "outpaint.denoiser.BadTimestep",
        "outpaint.trainer.CorruptCheckpoint",
        "outpaint.prompt.MalformedPrompt", "outpaint.prompt.LengthExceeded",
        "outpaint.ppm.BadImageFile",
    }


def test_one_error_type_for_a_bad_setting():
    # the rule that refuses a setting raises ConfigError itself: nothing re-wraps or subclasses it
    refusals = {"d_model": lambda: DN.DenoiserConfig(d_model=18),
                "center_size": lambda: SD.SynthSpec(image_size=16, center_size=6),
                "uncond_fraction": lambda: SD.split_conditional([], 1.5, seed=0),
                "beta_start": lambda: D.linear_schedule(10, 0.3, 0.2),
                "n_infer": lambda: D.ddim_timesteps(10, 0)}
    for setting, refuse in refusals.items():
        with pytest.raises(TR.ConfigError, match=setting) as info:
            refuse()
        assert type(info.value) is TR.ConfigError, setting


def test_parse_fusion_mode():
    assert TR.parse_fusion_mode("learnable") == ("learnable", None)
    assert TR.parse_fusion_mode("random") == ("random", None)
    assert TR.parse_fusion_mode("constant:0.5") == ("constant", 0.5)
    for bad in ("constant:lots", "constant:nan", "constant:inf", "constant:-inf"):
        with pytest.raises(TR.ConfigError):
            TR.parse_fusion_mode(bad)


# -- training -----------------------------------------------------------------


def test_one_step_is_bitwise_reproducible():
    samples = toy_samples()

    def one_step():
        params = TR.init_model(TOY, VOCAB)
        opt = TR.Adam(params.trainable_parameters(), lr=TOY.learning_rate)
        rng = TR.step_rng(TOY.seed, 0)
        loss = TR.train_step(samples[:2], params, opt, TOY.schedule(), rng, VOCAB)
        return loss, TR.params_checksum(params)

    loss_a, sum_a = one_step()
    loss_b, sum_b = one_step()
    assert loss_a == loss_b
    assert sum_a == sum_b


def test_every_gradient_is_an_array_of_its_parameter_shape():
    # in-place updates (out=, +=, g[...] =) need arrays; a numpy scalar would be rebound, not written
    cfg = replace(TOY, n_blocks=4, grad_clip=1e-6)  # a tiny clip scales every gradient in place
    params = TR.init_model(cfg, VOCAB)
    opt = TR.Adam(params.trainable_parameters(), lr=cfg.learning_rate)
    TR.train_step(toy_samples()[:2], params, opt, cfg.schedule(), TR.step_rng(cfg.seed, 0), VOCAB, cfg.grad_clip)
    fusion = [name for name, p in opt.named_params if p.ndim == 0]
    assert len(fusion) == 4
    for name, p in opt.named_params:
        assert isinstance(p.grad, np.ndarray) and p.grad.shape == p.shape, name


def next_node_id() -> int:
    text = repr(T._node_ids)  # "count(<next id>)"; reading it does not advance it
    return int(text[text.index("(") + 1:-1])


def test_default_train_step_records_at_most_744_tensors():
    """The tape-size guard: perfbench's tensor.nodes on the train workload."""
    cfg = TR.TrainConfig()
    samples, _ = SD.build_dataset(8, seed=0)
    params = TR.init_model(cfg, VOCAB)
    opt = TR.Adam(params.trainable_parameters(), lr=cfg.learning_rate)
    rng = TR.step_rng(cfg.seed, 0)
    batch = [samples[i] for i in rng.integers(0, len(samples), size=cfg.batch_size)]
    before = next_node_id()
    TR.train_step(batch, params, opt, cfg.schedule(), rng, VOCAB, cfg.grad_clip)
    assert next_node_id() - before <= 744


# params_checksum and the repr of each loss after three default-config steps at
# 16 and 32 px, taken at the commit before ``sample_loss`` was split out of
# ``train_step``; a change here means the training trajectory moved.
DEFAULT_TRAJECTORY_PINS = {
    16: ("96a24a11c9fa78f8041f7c08cb94d8c55b1ac88df703bce7a9185599da8bb12f",
         ["1.0329677136723816", "1.0161623907544564", "0.9519746437627158"]),
    32: ("9070bab49fe5782565933e2c16e6fad1d7695c4160c76146b4511d974aaa3808",
         ["1.0426877732465263", "1.0241792272363228", "0.9888975953021033"]),
}


@pytest.mark.parametrize("size", sorted(DEFAULT_TRAJECTORY_PINS))
def test_default_geometry_trajectory_is_pinned(size):
    cfg = replace(TR.TrainConfig(image_size=size, center_size=size // 2), iterations=3)
    samples, _ = SD.build_dataset(8, seed=0, spec=SD.SynthSpec(size, size // 2))
    params, _, losses = TR.run_training(cfg, samples, VOCAB)
    assert (TR.params_checksum(params), [repr(loss) for loss in losses]) == DEFAULT_TRAJECTORY_PINS[size]


def one_tape_step(batch, params, opt, schedule, rng, vocab) -> float:
    """The step as one tape: every sample's forward, the summed and scaled
    losses, then a single ``backward``. Leaves the gradients unclipped."""
    losses = []
    for sample in batch:
        t = int(rng.integers(1, schedule.t_steps + 1))
        eps = rng.standard_normal(params.cfg.image_shape)
        losses.append(TR.sample_loss(params, sample.image, sample.pixel_mask, sample.caption, t, eps, vocab, schedule))
    total = losses[0]
    for extra in losses[1:]:
        total = T.add(total, extra)
    total = T.scale(total, 1.0 / len(losses))
    opt.zero_grad()
    T.backward(total)
    return total.item()


@pytest.mark.parametrize("cfg", [TOY, TR.TrainConfig()], ids=["toy", "default"])
def test_per_sample_backward_matches_the_one_tape_step(cfg):
    spec = SD.SynthSpec(image_size=cfg.image_size, center_size=cfg.center_size)
    samples, _ = SD.build_dataset(cfg.batch_size, seed=5, spec=spec)
    samples[1] = replace(samples[1], caption=UNCONDITIONAL)  # all PAD: that text_table row sums most across samples

    def run(step, *clip):
        params = TR.init_model(cfg, VOCAB)
        opt = TR.Adam(params.trainable_parameters(), lr=cfg.learning_rate)
        loss = step(samples, params, opt, cfg.schedule(), TR.step_rng(cfg.seed, 0), VOCAB, *clip)
        return loss, {name: p.grad for name, p in opt.named_params}

    loss, grads = run(TR.train_step, 0.0)  # no clipping: the gradients stay as backward wrote them
    want_loss, want_grads = run(one_tape_step)
    assert loss == want_loss
    assert grads.keys() == want_grads.keys()
    for name, want in want_grads.items():
        assert grads[name].shape == want.shape, name
        assert np.linalg.norm(grads[name] - want) <= 1e-12 * np.linalg.norm(want), name


def test_each_sample_tape_is_freed_before_the_next_forward(monkeypatch):
    forward, outputs, alive = DN.forward, [], []

    def watched(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in outputs))
        pred = forward(*args, **kwargs)
        outputs.append(weakref.ref(pred.data))  # Tensor has __slots__; its array can be watched
        return pred

    monkeypatch.setattr(DN, "forward", watched)
    params = TR.init_model(TOY, VOCAB)
    opt = TR.Adam(params.trainable_parameters(), lr=TOY.learning_rate)
    TR.train_step(toy_samples()[:4], params, opt, TOY.schedule(), TR.step_rng(0, 0), VOCAB)
    assert alive == [0, 0, 0, 0]


def tape_mb(loss: Tensor, params: DN.DenoiserParams) -> float:
    """MB of the distinct non-parameter arrays reachable from ``loss`` through
    the tape: node outputs and what the VJP closures keep. A view counts as
    the array it views. Walks the tensor module's objects, tuples, lists and
    closure cells, nothing else."""
    skip = {id(obj) for _, p in params.named_parameters() for obj in (p, p.data)}
    seen, arrays, stack = set(), {}, [loss]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in skip:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            if id(obj) not in skip:
                arrays[id(obj)] = obj.nbytes
        elif isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        elif isinstance(obj, (tuple, list)) or type(obj).__module__ == T.__name__:
            stack.extend(gc.get_referents(obj))
    return sum(arrays.values()) / 1e6


def default_sample(image_size: int):
    """A default-config model at ``image_size`` px and a function that runs one
    sample's forward to its loss, as a train step does."""
    cfg = TR.TrainConfig(image_size=image_size, center_size=image_size // 2)
    sample = SD.build_dataset(1, seed=0, spec=SD.SynthSpec(image_size, image_size // 2))[0][0]
    params, rng = TR.init_model(cfg, VOCAB), TR.step_rng(cfg.seed, 0)
    t = int(rng.integers(1, cfg.t_steps + 1))
    eps = rng.standard_normal(cfg.image_shape)

    def loss() -> Tensor:
        return TR.sample_loss(params, sample.image, sample.pixel_mask, sample.caption, t, eps, VOCAB, cfg.schedule())

    return params, loss


def sample_tape_mb(image_size: int) -> float:
    """``tape_mb`` of one default-config sample's loss at ``image_size`` px, as a train step holds it."""
    params, loss = default_sample(image_size)
    return tape_mb(loss(), params)


def sample_peak_mb(image_size: int) -> float:
    """tracemalloc's peak MB over one default-config sample's forward and backward
    at ``image_size`` px, from zeroed gradients, after one warm forward and backward."""
    params, loss = default_sample(image_size)
    T.backward(loss())
    for _, p in params.trainable_parameters():
        p.zero_grad()
    tracemalloc.start()
    try:
        T.backward(loss())
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_a_32px_sample_tape_keeps_only_what_its_vjps_read():
    # each node keeps only the arrays its VJP reads (gelu one); with every node output kept it is about 26 MB
    assert sample_tape_mb(32) < 13.5


def test_a_32px_sample_backward_frees_each_node_as_it_runs():
    # with the whole tape alive until backward returns (and gelu keeping two arrays) the peak is about 18 MB
    assert sample_peak_mb(32) < 15.5


def test_refcounting_alone_frees_a_trained_model_and_its_activations(monkeypatch):
    record, made = T._record, []

    def watched(data, parents, vjp):
        out = record(data, parents, vjp)
        made.append(weakref.ref(out.data))  # Tensor has __slots__; its array lives as long as it does
        return out

    monkeypatch.setattr(T, "_record", watched)
    gc.disable()
    try:
        params = TR.init_model(TOY, VOCAB)
        opt = TR.Adam(params.trainable_parameters(), lr=TOY.learning_rate)
        TR.train_step(toy_samples()[:2], params, opt, TOY.schedule(), TR.step_rng(0, 0), VOCAB)
        param = weakref.ref(params.patch_w.data)
        del params, opt
        assert param() is None
        assert made and all(ref() is None for ref in made)
    finally:
        gc.enable()


def test_zero_learning_rate_freezes_parameters():
    samples = toy_samples()
    params = TR.init_model(TOY, VOCAB)
    opt = TR.Adam(params.trainable_parameters(), lr=0.0)
    before = TR.params_checksum(params)
    losses = [
        TR.train_step(samples[:2], params, opt, TOY.schedule(), TR.step_rng(7, 0), VOCAB)
        for _ in range(3)
    ]
    assert TR.params_checksum(params) == before
    assert losses[0] == losses[1] == losses[2]


def test_non_finite_step_raises_before_the_update():
    params = TR.init_model(TOY, VOCAB)
    opt = TR.Adam(params.trainable_parameters(), lr=1e-3)
    params.out_b.data[0] = np.nan
    before = TR.params_checksum(params)
    with pytest.raises(T.NonFinite, match="step 1"):
        TR.train_step(toy_samples()[:2], params, opt, TOY.schedule(), TR.step_rng(0, 0), VOCAB)
    assert opt.t == 0
    assert TR.params_checksum(params) == before


def test_geometry_mismatch_rejected():
    params = TR.init_model(TOY, VOCAB)
    opt = TR.Adam(params.trainable_parameters(), lr=1e-3)
    bad = SD.generate(0)  # 16x16 sample vs 12x12 model
    with pytest.raises(T.ShapeMismatch):
        TR.train_step([bad], params, opt, TOY.schedule(), TR.step_rng(0, 0), VOCAB)
    before = TR.params_checksum(params)
    with pytest.raises(T.ShapeMismatch):  # raised before the good sample is backpropagated
        TR.train_step([toy_samples()[0], bad], params, opt, TOY.schedule(), TR.step_rng(0, 0), VOCAB)
    assert TR.params_checksum(params) == before
    assert opt.t == 0
    assert all(p.grad is None for _, p in opt.named_params)


def test_run_training_only_trainable_parameters_change():
    samples = toy_samples()
    cfg = TR.TrainConfig(**{**TOY.__dict__, "a_mode": "constant:0.5", "iterations": 3})
    params, _, _ = TR.run_training(cfg, samples, VOCAB)
    assert params.fusion_values() == [0.5]  # frozen fusion survives training

    cfg_rand = TR.TrainConfig(**{**TOY.__dict__, "a_mode": "random", "iterations": 3})
    params_rand = TR.init_model(cfg_rand, VOCAB)
    init_fusion = params_rand.fusion_values()
    params_rand, _, _ = TR.run_training(cfg_rand, samples, VOCAB, params=params_rand)
    assert params_rand.fusion_values() == init_fusion


def test_training_loss_finite_and_logged(tmp_path):
    samples = toy_samples()
    params, opt, losses = TR.run_training(TOY, samples, VOCAB, out_dir=tmp_path)
    assert all(np.isfinite(losses))
    lines = (tmp_path / "train_log.tsv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == TOY.iterations
    step, loss, fusion = lines[0].split("\t")
    assert step == "1" and float(loss) == losses[0]
    assert len(fusion.split(",")) == TOY.n_blocks


def test_checkpoint_save_load_save_identical_bytes(tmp_path):
    samples = toy_samples()
    params, opt, _ = TR.run_training(TOY, samples, VOCAB)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    TR.save_checkpoint(params, opt, TOY, p1)
    loaded_params, loaded_opt, loaded_cfg = TR.load_checkpoint(p1, VOCAB)
    assert loaded_cfg == TOY
    assert loaded_opt.t == opt.t
    TR.save_checkpoint(loaded_params, loaded_opt, loaded_cfg, p2)
    assert p1.read_bytes() == p2.read_bytes()


# Header key order written by checkpoints from before TrainConfig extended
# DenoiserConfig: training fields first, model fields interleaved.
OLD_HEADER_ORDER = (
    "iterations", "batch_size", "learning_rate", "seed", "uncond_fraction", "a_mode",
    "t_steps", "beta_start", "beta_end", "infer_steps", "image_size", "center_size",
    "channels", "patch_size", "d_model", "n_blocks", "d_text", "l_center", "l_surround",
    "checkpoint_every", "grad_clip",
)


def test_checkpoint_with_old_header_order_loads(tmp_path):
    params, opt, _ = TR.run_training(TOY, toy_samples(), VOCAB)
    path = tmp_path / "new.ckpt"
    TR.save_checkpoint(params, opt, TOY, path)
    raw = path.read_bytes()
    start = len(TR._MAGIC) + 4
    (hlen,) = struct.unpack("<I", raw[len(TR._MAGIC):start])
    lines = raw[start:start + hlen].decode("utf-8").splitlines(keepends=True)
    by_key = {line.split("=", 1)[0]: line for line in lines}
    assert sorted(by_key) == sorted(OLD_HEADER_ORDER)
    header = "".join(by_key[k] for k in OLD_HEADER_ORDER).encode("utf-8")
    assert header != raw[start:start + hlen]
    old = tmp_path / "old.ckpt"
    old.write_bytes(TR._MAGIC + struct.pack("<I", len(header)) + header + raw[start + hlen:])

    loaded, loaded_opt, cfg = TR.load_checkpoint(old, VOCAB)
    assert cfg == TOY
    assert loaded_opt.t == opt.t
    for (name, want), (got_name, got) in zip(params.named_parameters(), loaded.named_parameters()):
        assert got_name == name
        np.testing.assert_array_equal(got.data, want.data)


# sha256 of a freshly initialized TOY checkpoint per fusion mode; a change
# here means the parameter layout, the init draws or the file format moved.
FRESH_TOY_CHECKPOINT_SHA256 = {
    "learnable": "096b25b28866fcbed63a44568fe39fb707e80b6c540475d16bb9ffe2aabe3bba",
    "random": "df06d6c60a56ac3735bd870ea37b4f4071df4d8da3c3990c64cc2f5ebee0bfde",
    "constant:0.5": "b5fcce5ac6813b3fca08b64330c842e1fca818e6b2dda500df57ffa0a6999239",
}


def _no_random_model(*args, **kwargs):
    raise AssertionError("a checkpoint load built a random model")


@pytest.mark.parametrize("a_mode", sorted(FRESH_TOY_CHECKPOINT_SHA256))
def test_fresh_checkpoint_bytes_are_pinned_and_reload_without_a_random_model(tmp_path, monkeypatch, a_mode):
    cfg = replace(TOY, a_mode=a_mode)
    params = TR.init_model(cfg, VOCAB)
    path, again = tmp_path / "fresh.ckpt", tmp_path / "again.ckpt"
    TR.save_checkpoint(params, TR.Adam(params.trainable_parameters(), lr=cfg.learning_rate), cfg, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FRESH_TOY_CHECKPOINT_SHA256[a_mode]

    monkeypatch.setattr(TR, "init_model", _no_random_model)
    monkeypatch.setattr(DN, "init_denoiser_params", _no_random_model)
    loaded, opt, loaded_cfg = TR.load_checkpoint(path, VOCAB)
    assert [(n, t.requires_grad) for n, t in loaded.named_parameters()] == [
        (n, t.requires_grad) for n, t in params.named_parameters()
    ]
    TR.save_checkpoint(loaded, opt, loaded_cfg, again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("a_mode", sorted(FRESH_TOY_CHECKPOINT_SHA256))
def test_split_run_equals_straight_run(tmp_path, a_mode):
    samples = toy_samples()
    cfg10 = replace(TOY, iterations=10, a_mode=a_mode)
    straight, _, straight_losses = TR.run_training(cfg10, samples, VOCAB)

    cfg5 = replace(cfg10, iterations=5)
    half, half_opt, first_losses = TR.run_training(cfg5, samples, VOCAB)
    path = tmp_path / "half.ckpt"
    TR.save_checkpoint(half, half_opt, cfg10, path)
    resumed, resumed_opt, rest_losses = TR.load_checkpoint(path, VOCAB)
    resumed, _, rest_losses = TR.run_training(cfg10, samples, VOCAB, params=resumed, opt=resumed_opt)

    assert first_losses + rest_losses == straight_losses
    assert TR.params_checksum(resumed) == TR.params_checksum(straight)


def test_truncated_checkpoint_raises(tmp_path):
    samples = toy_samples()
    params, opt, _ = TR.run_training(TOY, samples, VOCAB)
    path = tmp_path / "full.ckpt"
    TR.save_checkpoint(params, opt, TOY, path)
    raw = path.read_bytes()
    for cut in (10, len(raw) // 2, len(raw) - 5):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[:cut])
        with pytest.raises(TR.CorruptCheckpoint):
            TR.load_checkpoint(bad, VOCAB)
    garbage = tmp_path / "garbage.ckpt"
    garbage.write_bytes(b"not a checkpoint at all")
    with pytest.raises(TR.CorruptCheckpoint):
        TR.load_checkpoint(garbage, VOCAB)


@pytest.mark.parametrize("header_mode", ["constant:0.25", "constant:0.5000000000000001", "constant:-0.5"])
def test_constant_fusion_must_equal_the_header_constant(tmp_path, header_mode):
    params = TR.init_model(replace(TOY, a_mode="constant:0.5"), VOCAB)
    opt = TR.Adam(params.trainable_parameters(), lr=TOY.learning_rate)
    path = tmp_path / "model.ckpt"
    TR.save_checkpoint(params, opt, replace(TOY, a_mode="constant:0.5"), path)
    assert TR.load_checkpoint(path, VOCAB)[0].fusion_values() == [0.5]
    TR.save_checkpoint(params, opt, replace(TOY, a_mode=header_mode), path)
    with pytest.raises(TR.CorruptCheckpoint, match="fusion"):
        TR.load_checkpoint(path, VOCAB)


@pytest.fixture(scope="module")
def toy_checkpoint(tmp_path_factory):
    params = TR.init_model(TOY, VOCAB)
    path = tmp_path_factory.mktemp("ckpt") / "toy.ckpt"
    TR.save_checkpoint(params, TR.Adam(params.trainable_parameters(), lr=TOY.learning_rate), TOY, path)
    return path


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_loads_or_raises_corrupt(toy_checkpoint, data):
    raw = bytearray(toy_checkpoint.read_bytes())
    # half the positions fall in the first KiB: the magic, the header and the first records
    position = st.integers(0, 1023) | st.integers(0, len(raw) - 1)
    edits = data.draw(st.lists(st.tuples(position, st.integers(0, 255)), min_size=1, max_size=3))
    for pos, byte in edits:
        raw[pos] = byte
    mutated = toy_checkpoint.with_name("mutated.ckpt")
    mutated.write_bytes(bytes(raw))
    try:
        TR.load_checkpoint(mutated, VOCAB)
    except TR.CorruptCheckpoint:
        pass


def _split_checkpoint(raw: bytes):
    """A checkpoint's bytes up to its record count, and its records as [name, dims, data]."""
    pos = len(TR._MAGIC)
    pos += 4 + struct.unpack_from("<I", raw, pos)[0]
    head, (count,) = raw[:pos], struct.unpack_from("<I", raw, pos)
    pos += 4
    records = []
    for _ in range(count):
        (n,) = struct.unpack_from("<I", raw, pos)
        name = raw[pos + 4:pos + 4 + n].decode()
        (rank,) = struct.unpack_from("<I", raw, pos + 4 + n)
        dims = struct.unpack_from(f"<{rank}I", raw, pos + 8 + n)
        start = pos + 8 + n + 4 * rank
        pos = start + 8 * math.prod(dims)
        records.append([name, dims, raw[start:pos]])
    assert pos == len(raw)
    return head, records


def _join_checkpoint(head: bytes, records, count=None) -> bytes:
    out = [head, struct.pack("<I", len(records) if count is None else count)]
    for name, dims, data in records:
        raw = name.encode()
        out.append(struct.pack(f"<I{len(raw)}sI{len(dims)}I", len(raw), raw, len(dims), *dims) + data)
    return b"".join(out)


def _rewritten(raw: bytes, kind: str) -> bytes:
    head, records = _split_checkpoint(raw)
    assert _join_checkpoint(head, records) == raw
    names, count = [name for name, _, _ in records], len(records)
    if kind == "swapped":  # two records of one shape trade places, names included
        i, j = names.index("block0.ln1_g"), names.index("block0.ln1_b")
        records[i], records[j] = records[j], records[i]
    elif kind == "renamed":
        records[names.index("out_b")][0] = "out_bias"
    elif kind in ("count_low", "count_high"):
        count += 1 if kind == "count_high" else -1
    elif kind == "rank_33":
        records[0][1:] = [(1,) * 33, struct.pack("<d", 0.0)]
    elif kind == "transposed":
        records[0][1] = records[0][1][::-1]
    elif kind in ("negative_step", "fractional_step"):
        records[names.index("opt.t")][2] = struct.pack("<d", -1.0 if kind == "negative_step" else 0.5)
    return _join_checkpoint(head, records, count) + (b"\0" if kind == "trailing_byte" else b"")


@pytest.mark.parametrize("kind", ["swapped", "renamed", "count_low", "count_high", "rank_33", "transposed",
                                  "negative_step", "fractional_step", "trailing_byte"])
def test_checkpoint_records_must_come_as_written(toy_checkpoint, tmp_path, kind):
    bad = tmp_path / f"{kind}.ckpt"
    bad.write_bytes(_rewritten(toy_checkpoint.read_bytes(), kind))
    with pytest.raises(TR.CorruptCheckpoint):
        TR.load_checkpoint(bad, VOCAB)
    out = tmp_path / "x.ppm"
    assert cli.main(["sample", "--ckpt", str(bad), "--steps", "2", "--out", str(out)]) == cli.EXIT_CHECKPOINT
    assert not out.exists()


class DiskFull(OSError):
    pass


def _half_write_then_fail(real_open):
    def fake_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        if "w" not in mode:
            return fh
        real_write = fh.write

        def write(data):
            real_write(data[: len(data) // 2])
            raise DiskFull("no space left on device")

        fh.write = write
        return fh
    return fake_open


def _replace_fails(*args):
    raise DiskFull("rename refused")


@pytest.mark.parametrize("failure", ["write", "replace"])
def test_failed_checkpoint_write_keeps_the_previous_one(tmp_path, monkeypatch, failure):
    params, opt, _ = TR.run_training(TOY, toy_samples(), VOCAB)
    path = tmp_path / "model.ckpt"
    TR.save_checkpoint(params, opt, TOY, path)
    before = path.read_bytes()
    params.out_b.data = params.out_b.data + 1.0
    if failure == "write":
        monkeypatch.setattr(TR, "open", _half_write_then_fail(open), raising=False)
    else:
        monkeypatch.setattr(TR.os, "replace", _replace_fails)
    with pytest.raises(DiskFull):
        TR.save_checkpoint(params, opt, TOY, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]


def test_run_training_writes_periodic_checkpoints(tmp_path):
    samples = toy_samples()
    TR.run_training(TOY, samples, VOCAB, out_dir=tmp_path)
    names = sorted(os.listdir(tmp_path))
    assert names == ["ckpt_000002.bin", "ckpt_000004.bin", "model.ckpt", "train_log.tsv"]
    assert (tmp_path / "model.ckpt").read_bytes() == (tmp_path / "ckpt_000004.bin").read_bytes()


def test_run_training_refuses_a_used_out_dir_before_step_1(tmp_path, monkeypatch):
    (tmp_path / "keep.txt").write_text("x")
    monkeypatch.setattr(TR, "train_step", lambda *a, **k: pytest.fail("a step ran"))
    with pytest.raises(FileExistsError):
        TR.run_training(TOY, toy_samples(), VOCAB, out_dir=tmp_path)
    assert os.listdir(tmp_path) == ["keep.txt"] and (tmp_path / "keep.txt").read_text() == "x"


def test_training_progress_on_fixed_samples():
    # 500 steps over 64 fixed samples: the running average must fall.
    samples = toy_samples(64, seed=5)
    cfg = TR.TrainConfig(**{**TOY.__dict__, "iterations": 500, "batch_size": 4})
    _, _, losses = TR.run_training(cfg, samples, VOCAB)
    first = float(np.mean(losses[:100]))
    last = float(np.mean(losses[-100:]))
    assert last < first


def test_ablation_arms_share_base_init_and_learnable_fusion_moves():
    samples = toy_samples(16, seed=6)
    cfg = TR.TrainConfig(**{**TOY.__dict__, "iterations": 30, "batch_size": 2})
    rows = TR.run_ablation(cfg, samples, VOCAB)
    assert [r["a_mode"] for r in rows] == list(TR.ABLATION_MODES)
    checksums = {r["base_checksum"] for r in rows}
    assert len(checksums) == 1  # controlled experiment
    by_mode = {r["a_mode"]: r for r in rows}
    assert by_mode["constant:0.5"]["fusion_init"] == by_mode["constant:0.5"]["fusion_final"] == [0.5]
    assert by_mode["random"]["fusion_init"] == by_mode["random"]["fusion_final"]
    assert by_mode["learnable"]["fusion_init"] == [0.0]
    assert by_mode["learnable"]["fusion_final"] != [0.0]  # gradient reached it
    report = TR.format_ablation_report(rows)
    assert report.startswith("a_mode\t") and "learnable" in report
