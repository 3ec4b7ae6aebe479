import numpy as np
import pytest

from outpaint import denoiser as DN
from outpaint import diffusion as D
from outpaint import tensor as T
from outpaint.attention import FUSION_LEARNABLE, MaskNotBinary
from outpaint.prompt import CsPrompt, Vocab, tokenize_and_embed
from outpaint.tensor import ShapeMismatch, Tensor, backward


VOCAB = Vocab(["square", "circle", "red", "blue", "solid", "stripes", "large", "fine"])


def rng(seed=0):
    return np.random.default_rng(seed)


def make_inputs(cfg, g, prompt=None):
    img = g.uniform(-1, 1, (cfg.channels, cfg.image_size, cfg.image_size))
    mask = np.ones((cfg.image_size, cfg.image_size))
    q = cfg.image_size // 4
    mask[q:-q, q:-q] = 0.0
    masked = img * (1.0 - mask)
    x_t = g.standard_normal(img.shape)
    prompt = prompt or CsPrompt(("square", "red"), ("stripes", "blue"))
    return x_t, masked, mask, prompt


def embed(params, prompt):
    cfg = params.cfg
    return tokenize_and_embed(prompt, VOCAB, params.text_table, cfg.l_center, cfg.l_surround)


def test_output_shape_matches_input():
    cfg = DN.DenoiserConfig(image_size=16, channels=3, patch_size=2, d_model=64, n_blocks=4)
    params = DN.init_denoiser_params(cfg, VOCAB, rng(0))
    x_t, masked, mask, prompt = make_inputs(cfg, rng(1))
    out = DN.forward(params, x_t, masked, mask, 10, embed(params, prompt))
    assert out.shape == (3, 16, 16)


def test_concatenated_input_channel_count():
    cfg = DN.DenoiserConfig(channels=3)
    assert cfg.in_channels == 7
    assert DN.DenoiserConfig(channels=1).in_channels == 3


def test_forward_is_deterministic():
    cfg = DN.DenoiserConfig(image_size=8, channels=1, patch_size=2, d_model=16, n_blocks=2)
    params = DN.init_denoiser_params(cfg, VOCAB, rng(2))
    x_t, masked, mask, prompt = make_inputs(cfg, rng(3))
    a = DN.forward(params, x_t, masked, mask, 5, embed(params, prompt)).data
    b = DN.forward(params, x_t, masked, mask, 5, embed(params, prompt)).data
    np.testing.assert_array_equal(a, b)


def test_fusion_zero_ignores_region_branch_weights():
    """At learnable init every site is plain cross-attention (criterion 1),
    so no region-branch weight can reach the output."""
    cfg = DN.DenoiserConfig(image_size=8, channels=3, patch_size=2, d_model=32, n_blocks=3)
    params = DN.init_denoiser_params(cfg, VOCAB, rng(4), fusion_mode=FUSION_LEARNABLE)
    g = rng(5)
    for _ in range(3):
        x_t, masked, mask, prompt = make_inputs(cfg, g)
        pe = embed(params, prompt)
        at_init = DN.forward(params, x_t, masked, mask, 7, pe).data
        for blk in params.blocks:
            for name in ("center_k", "center_v", "surround_k", "surround_v"):
                shape = getattr(blk.cross, name).shape
                setattr(blk.cross, name, Tensor(g.normal(0.0, 1.0, shape), requires_grad=True))
        np.testing.assert_array_equal(DN.forward(params, x_t, masked, mask, 7, pe).data, at_init)


def test_parameter_count_is_pure_function_of_config():
    cfg = DN.DenoiserConfig(image_size=8, channels=1, patch_size=2, d_model=16, n_blocks=1)
    shapes = [
        [(n, t.shape) for n, t in DN.init_denoiser_params(cfg, VOCAB, rng(seed)).named_parameters()]
        for seed in (6, 7)
    ]
    assert shapes[0] == shapes[1]
    names = [n for n, _ in shapes[0]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("cfg", [
    DN.DenoiserConfig(image_size=8, channels=1, patch_size=2, d_model=16, n_blocks=1),
    DN.DenoiserConfig(image_size=12, channels=3, patch_size=3, d_model=20, n_blocks=3, d_text=12),
])
def test_assemble_makes_parameters_in_named_order(cfg):
    calls = []

    def make(name, shape, init):
        calls.append((name, shape))
        return Tensor(np.zeros(shape))

    params = DN.assemble(cfg, VOCAB.size, make)
    assert calls == [(n, t.shape) for n, t in params.named_parameters()]
    initialized = DN.init_denoiser_params(cfg, VOCAB, rng(6))
    assert calls == [(n, t.shape) for n, t in initialized.named_parameters()]


def test_end_to_end_gradients_match_finite_differences():
    cfg = DN.DenoiserConfig(image_size=8, channels=1, patch_size=2, d_model=16, n_blocks=1)
    params = DN.init_denoiser_params(cfg, VOCAB, rng(7))
    g = rng(8)
    x_t, masked, mask, prompt = make_inputs(cfg, g)
    eps = g.standard_normal(x_t.shape)

    def loss_value():
        pe = embed(params, prompt)
        pred = DN.forward(params, x_t, masked, mask, 3, pe)
        return D.training_loss(eps, pred)

    loss = loss_value()
    backward(loss)
    named = params.trainable_parameters()
    picks = []
    for _ in range(50):
        name, tensor = named[int(g.integers(len(named)))]
        picks.append((name, tensor, int(g.integers(tensor.size))))

    # h=1e-4: at h=1e-5 the fd roundoff floor (~1e-11) exceeds the tolerance
    # for parameters whose true gradient is ~1e-9.
    h = 1e-4
    worst = 0.0
    with T.no_grad():
        for name, tensor, idx in picks:
            flat = tensor.data.reshape(-1)
            orig = flat[idx]
            flat[idx] = orig + h
            hi = loss_value().item()
            flat[idx] = orig - h
            lo = loss_value().item()
            flat[idx] = orig
            fd = (hi - lo) / (2 * h)
            analytic = 0.0 if tensor.grad is None else tensor.grad.reshape(-1)[idx]
            worst = max(worst, abs(analytic - fd) / (abs(analytic) + 1e-8))
    assert worst < 1e-3


def test_surrounding_keywords_steer_surrounding_pixels():
    cfg = DN.DenoiserConfig(image_size=8, channels=1, patch_size=2, d_model=16, n_blocks=2)
    params = DN.init_denoiser_params(cfg, VOCAB, rng(9))
    for blk in params.blocks:
        blk.cross.fusion = Tensor(0.5, requires_grad=True)
    g = rng(10)
    x_t, masked, mask, _ = make_inputs(cfg, g)
    pe_a = embed(params, CsPrompt(("square", "red"), ("stripes", "blue")))
    pe_b = embed(params, CsPrompt(("square", "red"), ("solid", "red")))
    out_a = DN.forward(params, x_t, masked, mask, 4, pe_a).data
    out_b = DN.forward(params, x_t, masked, mask, 4, pe_b).data
    diff = np.abs(out_a - out_b)[:, mask == 1.0]
    assert diff.max() > 0.0


def test_forward_validates_inputs():
    cfg = DN.DenoiserConfig(image_size=8, channels=1, patch_size=2, d_model=16, n_blocks=1)
    params = DN.init_denoiser_params(cfg, VOCAB, rng(11))
    x_t, masked, mask, prompt = make_inputs(cfg, rng(12))
    pe = embed(params, prompt)
    with pytest.raises(ShapeMismatch):
        DN.forward(params, x_t[:, :4], masked, mask, 3, pe)
    bad = mask.copy()
    bad[0, 0] = 0.5
    with pytest.raises(MaskNotBinary):
        DN.forward(params, x_t, masked, bad, 3, pe)
    with pytest.raises(ValueError):
        DN.forward(params, x_t, masked, mask, cfg.t_steps + 1, pe)


def test_forward_is_condition_then_denoise():
    cfg = DN.DenoiserConfig(image_size=8, channels=3, patch_size=2, d_model=16, n_blocks=2)
    params = DN.init_denoiser_params(cfg, VOCAB, rng(14))
    for blk in params.blocks:
        blk.cross.fusion = Tensor(0.7, requires_grad=True)
    x_t, masked, _, prompt = make_inputs(cfg, rng(15))
    mask = (rng(16).random((8, 8)) < 0.5).astype(float)
    pe = embed(params, prompt)
    whole = DN.forward(params, x_t, masked, mask, 9, pe).data
    cond = DN.condition(params, masked, mask, pe)
    parts = DN.denoise(params, x_t, DN.time_embedding(params, [9]), cond).data
    np.testing.assert_array_equal(whole, parts)


def test_time_embedding_rows_and_range():
    cfg = DN.DenoiserConfig(image_size=8, channels=1, patch_size=2, d_model=16, n_blocks=1, t_steps=50)
    params = DN.init_denoiser_params(cfg, VOCAB, rng(17))
    rows = DN.time_embedding(params, [50, 25, 0]).data
    assert rows.shape == (3, 16)
    for i, t in enumerate((50, 25, 0)):
        np.testing.assert_allclose(rows[i], DN.time_embedding(params, [t]).data[0], atol=1e-12)
    for t in (-1, cfg.t_steps + 1):
        with pytest.raises(ValueError):
            DN.time_embedding(params, [0, t])


def test_patchify_unpatchify_inverse():
    cfg = DN.DenoiserConfig(image_size=8, channels=3, patch_size=2, d_model=16, n_blocks=1)
    img = rng(13).uniform(-1, 1, (3, 8, 8))
    tokens = DN.patchify(img, 2)
    assert tokens.shape == (16, 12)
    back = DN._unpatchify(Tensor(tokens), cfg).data
    np.testing.assert_array_equal(back, img)


def test_config_validation():
    with pytest.raises(ValueError):
        DN.DenoiserConfig(image_size=15, patch_size=2)
    with pytest.raises(ValueError):
        DN.DenoiserConfig(d_model=18)
    with pytest.raises(ValueError):
        DN.DenoiserConfig(n_blocks=0)


def test_ablation_modes_share_base_initialization():
    cfg = DN.DenoiserConfig(image_size=8, channels=1, patch_size=2, d_model=16, n_blocks=2)
    runs = {
        "learnable": DN.init_denoiser_params(cfg, VOCAB, rng(42), "learnable"),
        "constant": DN.init_denoiser_params(cfg, VOCAB, rng(42), "constant", fusion_constant=0.5),
        "random": DN.init_denoiser_params(cfg, VOCAB, rng(42), "random"),
    }
    ref = {n: t.data.copy() for n, t in runs["learnable"].named_parameters() if not n.endswith("fusion")}
    for params in runs.values():
        for n, t in params.named_parameters():
            if not n.endswith("fusion"):
                np.testing.assert_array_equal(t.data, ref[n])
    assert runs["constant"].fusion_values() == [0.5, 0.5]
    assert runs["learnable"].fusion_values() == [0.0, 0.0]
    for v in runs["random"].fusion_values():
        assert 0.0 <= v <= 1.0


def test_forward_masks_its_own_input():
    # callers pass the plain image: the denoiser zeroes its surroundings itself
    cfg = DN.DenoiserConfig(image_size=8, channels=3, patch_size=2, d_model=16, n_blocks=1)
    params = DN.init_denoiser_params(cfg, VOCAB, rng(21))
    g = rng(22)
    image = g.uniform(-1, 1, (3, 8, 8))
    x_t, _, mask, prompt = make_inputs(cfg, g)
    pe = embed(params, prompt)
    plain = DN.forward(params, x_t, image, mask, 6, pe).data
    premasked = DN.forward(params, x_t, image * (1.0 - mask), mask, 6, pe).data
    assert plain.tobytes() == premasked.tobytes()
