import hashlib
import io
import os
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from outpaint import denoiser as DN
from outpaint import synthdata as SD
from outpaint import trainer as TR
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
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    TR.adam_update(p, g, m, v, t=1, lr=lr, beta1=b1, beta2=b2, eps=eps)
    # independent oracle: at t=1 m_hat = g and sqrt(v_hat) = |g| exactly
    want = p0 - lr * g / (np.abs(g) + eps)
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


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(
        "# toy run\niterations = 12\nlearning_rate = 0.01\na_mode = constant:0.25\n\nseed=9 # inline\n"
    )
    cfg = TR.load_config(path)
    assert cfg.iterations == 12
    assert cfg.learning_rate == 0.01
    assert cfg.a_mode == "constant:0.25"
    assert cfg.seed == 9


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("bogus_key = 1\n")
    with pytest.raises(TR.ConfigError):
        TR.load_config(path)


def test_config_bad_value_rejected():
    with pytest.raises(TR.ConfigError):
        TR.config_from_mapping({"iterations": "many"})
    with pytest.raises(TR.ConfigError):
        TR.config_from_mapping({"a_mode": "sometimes"})


def test_config_overrides_win(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("iterations = 12\n")
    cfg = TR.load_config(path, overrides={"iterations": "5"})
    assert cfg.iterations == 5


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
        assert isinstance(TR.load_config(path), TR.TrainConfig)
    except TR.ConfigError:
        pass


def test_invalid_model_geometry_rejected_at_construction():
    with pytest.raises(TR.ConfigError):
        TR.TrainConfig(d_model=6)  # 2-d sinusoidal positions need d_model % 4 == 0
    with pytest.raises(TR.ConfigError):
        TR.config_from_mapping({"image_size": "15"})


def test_parse_fusion_mode():
    assert TR.parse_fusion_mode("learnable") == ("learnable", None)
    assert TR.parse_fusion_mode("random") == ("random", None)
    assert TR.parse_fusion_mode("constant:0.5") == ("constant", 0.5)
    with pytest.raises(TR.ConfigError):
        TR.parse_fusion_mode("constant:lots")


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
    with pytest.raises(TR.NonFiniteTraining, match="step 1"):
        TR.train_step(toy_samples()[:2], params, opt, TOY.schedule(), TR.step_rng(0, 0), VOCAB)
    assert opt.t == 0
    assert TR.params_checksum(params) == before


def test_geometry_mismatch_rejected():
    params = TR.init_model(TOY, VOCAB)
    opt = TR.Adam(params.trainable_parameters(), lr=1e-3)
    bad = SD.generate(0)  # 16x16 sample vs 12x12 model
    with pytest.raises(TR.GeometryMismatch):
        TR.train_step([bad], params, opt, TOY.schedule(), TR.step_rng(0, 0), VOCAB)


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
    log = io.StringIO()
    params, opt, losses = TR.run_training(TOY, samples, VOCAB, log_fh=log)
    assert all(np.isfinite(losses))
    lines = log.getvalue().strip().splitlines()
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
    assert names == ["ckpt_000002.bin", "ckpt_000004.bin"]


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
