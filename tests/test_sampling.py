import numpy as np
import pytest

from outpaint import attention as A
from outpaint import denoiser as DN
from outpaint import diffusion as D
from outpaint import synthdata as SD
from outpaint import tensor as T
from outpaint import trainer as TR
from outpaint.attention import MaskNotBinary
from outpaint.prompt import tokenize_and_embed
from outpaint.sampling import ddim_sample
from outpaint.tensor import NonFinite, ShapeMismatch, Tensor


VOCAB = SD.vocabulary()

CFG = TR.TrainConfig(
    iterations=1, t_steps=10, image_size=12, center_size=8, patch_size=3,
    d_model=16, n_blocks=1, d_text=8, l_center=4, l_surround=4,
)


def setup():
    spec = SD.SynthSpec(image_size=12, center_size=8)
    sample = SD.generate(4, spec)
    params = TR.init_model(CFG, VOCAB)
    pe = tokenize_and_embed(sample.caption, VOCAB, params.text_table, 4, 4)
    return params, sample, pe


def test_ddim_sample_deterministic_given_seed():
    params, sample, pe = setup()
    masked = sample.image * (1 - sample.pixel_mask)
    outs = [
        ddim_sample(params, CFG.schedule(), masked, sample.pixel_mask, pe, 5,
                    np.random.default_rng(3))
        for _ in range(2)
    ]
    np.testing.assert_array_equal(outs[0], outs[1])
    assert outs[0].shape == (3, 12, 12)
    assert np.all(np.isfinite(outs[0]))


def test_ddim_sample_rejects_schedule_mismatch():
    params, sample, pe = setup()
    other = D.linear_schedule(33, 1e-4, 0.02)
    with pytest.raises(ValueError):
        ddim_sample(params, other, sample.image, sample.pixel_mask, pe, 5,
                    np.random.default_rng(0))


def test_non_finite_image_is_rejected():
    params, sample, pe = setup()
    params.out_w.data *= np.inf  # the output head sums +inf and -inf: the predicted noise is NaN
    masked = sample.image * (1 - sample.pixel_mask)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFinite):
        ddim_sample(params, CFG.schedule(), masked, sample.pixel_mask, pe, 5, np.random.default_rng(3))


def test_ddim_sample_leaves_no_gradients():
    params, sample, pe = setup()
    masked = sample.image * (1 - sample.pixel_mask)
    ddim_sample(params, CFG.schedule(), masked, sample.pixel_mask, pe, 5,
                np.random.default_rng(3))
    assert all(t.grad is None for _, t in params.trainable_parameters())


def reference_ddim_sample(params, schedule, masked_img, pixel_mask, pe, n_steps, rng):
    """The sampler written as a full forward at every step."""
    cfg = params.cfg
    x = rng.standard_normal((cfg.channels, cfg.image_size, cfg.image_size))
    taus = D.ddim_timesteps(schedule.t_steps, n_steps)
    with T.no_grad():
        for i in range(len(taus) - 1):
            eps = DN.forward(params, x, masked_img, pixel_mask, int(taus[i]), pe).data
            x = D.ddim_step(x, int(taus[i]), int(taus[i + 1]), eps, schedule)
    return x


def routed_setup(n_blocks=2, t_steps=10):
    cfg = TR.TrainConfig(**{**CFG.__dict__, "n_blocks": n_blocks, "t_steps": t_steps})
    params = TR.init_model(cfg, VOCAB)
    for i, blk in enumerate(params.blocks):
        blk.cross.fusion = Tensor(0.3 + 0.4 * i, requires_grad=True)
    sample = SD.generate(4, SD.SynthSpec(image_size=12, center_size=8))
    mask = (np.random.default_rng(8).random((12, 12)) < 0.4).astype(np.float64)
    pe = tokenize_and_embed(sample.caption, VOCAB, params.text_table, 4, 4)
    return cfg, params, sample.image * (1 - mask), mask, pe


def test_conditioning_once_matches_a_forward_per_step():
    cfg, params, masked, mask, pe = routed_setup()
    args = (params, cfg.schedule(), masked, mask, pe, 6)
    got = ddim_sample(*args, np.random.default_rng(5))
    want = reference_ddim_sample(*args, np.random.default_rng(5))
    assert np.max(np.abs(got - want)) <= 1e-10


def test_surroundings_of_the_input_image_are_never_seen():
    cfg, params, _, mask, pe = routed_setup()
    g = np.random.default_rng(9)
    image = g.uniform(-1, 1, cfg.image_shape)
    repainted = np.where(mask == 1.0, g.uniform(-1, 1, cfg.image_shape), image)
    assert not np.array_equal(image, repainted)
    x_t = g.standard_normal(cfg.image_shape)
    with T.no_grad():
        a, b = (DN.forward(params, x_t, img, mask, 7, pe).data for img in (image, repainted))
    np.testing.assert_array_equal(a, b)
    a, b = (ddim_sample(params, cfg.schedule(), img, mask, pe, 4, np.random.default_rng(2))
            for img in (image, repainted))
    np.testing.assert_array_equal(a, b)


def count_calls(monkeypatch, calls, module, name):
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("n_steps", [3, 50])
def test_prompt_is_routed_once_per_image(monkeypatch, n_steps):
    cfg, params, masked, mask, pe = routed_setup(n_blocks=3, t_steps=100)
    calls = {}
    for module, name in ((A, "route_text"), (DN, "time_embedding"), (DN, "position_grid"), (DN, "denoise")):
        count_calls(monkeypatch, calls, module, name)
    ddim_sample(params, cfg.schedule(), masked, mask, pe, n_steps, np.random.default_rng(0))
    assert calls == {"route_text": 3, "time_embedding": 1, "position_grid": 1, "denoise": n_steps}


def test_inputs_are_validated_before_the_first_step(monkeypatch):
    cfg, params, masked, mask, pe = routed_setup()
    calls = {}
    count_calls(monkeypatch, calls, DN, "denoise")
    bad_mask = mask.copy()
    bad_mask[0, 0] = 0.5
    with pytest.raises(MaskNotBinary):
        ddim_sample(params, cfg.schedule(), masked, bad_mask, pe, 5, np.random.default_rng(0))
    with pytest.raises(ShapeMismatch):
        ddim_sample(params, cfg.schedule(), masked[:, :8], mask, pe, 5, np.random.default_rng(0))
    assert calls == {}
