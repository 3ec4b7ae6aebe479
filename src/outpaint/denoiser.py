"""Noise-prediction network: a patch-token transformer over the masked input.

The network sees the channel concatenation (noisy image, masked image,
mask), so a 3-channel image yields a 7-channel input. Patches become
tokens; each of the ``n_blocks`` pre-norm residual blocks runs
self-attention, then region-routed cross-attention against the prompt
embedding (the token mask comes from block-averaging the pixel mask onto
the patch grid), then a feed-forward. The output head projects tokens back
to patches of predicted noise.

Every cross-attention site carries the center/total/surrounding weights;
with the fusion scalar at 0 the whole network is functionally identical to
a twin that uses plain cross-attention everywhere.

``forward`` is three parts, so that a sampler pays for the constant ones
once per image: ``condition`` (validation, known patches, per-block prompt
keys/values and routing), ``time_embedding`` (the timestep MLP over many
timesteps at once) and ``denoise`` (the transformer over one noisy image).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from outpaint import attention as A
from outpaint import tensor as T
from outpaint.attention import CrossAttnWeights, CtsAttnWeights, RoutedText, resize_mask
from outpaint.prompt import PromptEmbedding, Vocab
from outpaint.tensor import ShapeMismatch, Tensor


@dataclass(frozen=True)
class DenoiserConfig:
    image_size: int = 16
    channels: int = 3
    patch_size: int = 2
    d_model: int = 64
    n_blocks: int = 4
    d_text: int = 32
    l_center: int = 8
    l_surround: int = 8
    t_steps: int = 200

    def __post_init__(self):
        for name in ("image_size", "channels", "patch_size", "d_model", "n_blocks", "d_text", "l_center", "l_surround", "t_steps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.image_size % self.patch_size:
            raise ValueError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        if self.d_model % 4:
            raise ValueError("d_model must be divisible by 4 (2-d sinusoidal positions)")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def n_tokens(self) -> int:
        return self.grid * self.grid

    @property
    def in_channels(self) -> int:
        return 2 * self.channels + 1

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.in_channels

    @property
    def out_patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.channels


@dataclass
class BlockParams:
    ln1_g: Tensor
    ln1_b: Tensor
    self_attn: CrossAttnWeights
    ln2_g: Tensor
    ln2_b: Tensor
    cross: CtsAttnWeights
    ln3_g: Tensor
    ln3_b: Tensor
    ff_w1: Tensor
    ff_b1: Tensor
    ff_w2: Tensor
    ff_b2: Tensor


@dataclass
class DenoiserParams:
    cfg: DenoiserConfig
    text_table: Tensor
    patch_w: Tensor
    patch_b: Tensor
    time_w1: Tensor
    time_b1: Tensor
    time_w2: Tensor
    time_b2: Tensor
    blocks: list[BlockParams] = field(default_factory=list)
    out_ln_g: Tensor = None
    out_ln_b: Tensor = None
    out_w: Tensor = None
    out_b: Tensor = None

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """All parameter tensors in stable declaration order."""
        named = [
            ("text_table", self.text_table),
            ("patch_w", self.patch_w),
            ("patch_b", self.patch_b),
            ("time_w1", self.time_w1),
            ("time_b1", self.time_b1),
            ("time_w2", self.time_w2),
            ("time_b2", self.time_b2),
        ]
        for i, blk in enumerate(self.blocks):
            pre = f"block{i}."
            named += [
                (pre + "ln1_g", blk.ln1_g),
                (pre + "ln1_b", blk.ln1_b),
                (pre + "self.w_q", blk.self_attn.w_q),
                (pre + "self.w_k", blk.self_attn.w_k),
                (pre + "self.w_v", blk.self_attn.w_v),
                (pre + "ln2_g", blk.ln2_g),
                (pre + "ln2_b", blk.ln2_b),
            ]
            named += [(pre + "cross." + n, t) for n, t in blk.cross.named_tensors()]
            named += [
                (pre + "ln3_g", blk.ln3_g),
                (pre + "ln3_b", blk.ln3_b),
                (pre + "ff_w1", blk.ff_w1),
                (pre + "ff_b1", blk.ff_b1),
                (pre + "ff_w2", blk.ff_w2),
                (pre + "ff_b2", blk.ff_b2),
            ]
        named += [
            ("out_ln_g", self.out_ln_g),
            ("out_ln_b", self.out_ln_b),
            ("out_w", self.out_w),
            ("out_b", self.out_b),
        ]
        return named

    @staticmethod
    def expected_shapes(cfg: DenoiserConfig, vocab_size: int) -> list[tuple[str, tuple[int, ...]]]:
        """``named_parameters`` names and shapes for ``cfg``, without allocating them."""
        d, dt, out = cfg.d_model, cfg.d_text, cfg.out_patch_dim
        block = [
            ("ln1_g", (d,)), ("ln1_b", (d,)),
            ("self.w_q", (d, d)), ("self.w_k", (d, d)), ("self.w_v", (d, d)),
            ("ln2_g", (d,)), ("ln2_b", (d,)),
            ("cross.base.w_q", (d, d)), ("cross.base.w_k", (dt, d)), ("cross.base.w_v", (dt, d)),
            ("cross.center.w_k", (dt, d)), ("cross.center.w_v", (dt, d)),
            ("cross.surround.w_k", (dt, d)), ("cross.surround.w_v", (dt, d)),
            ("cross.fusion", ()),
            ("ln3_g", (d,)), ("ln3_b", (d,)),
            ("ff_w1", (d, 4 * d)), ("ff_b1", (4 * d,)), ("ff_w2", (4 * d, d)), ("ff_b2", (d,)),
        ]
        return [
            ("text_table", (vocab_size, dt)),
            ("patch_w", (cfg.patch_dim, d)), ("patch_b", (d,)),
            ("time_w1", (d, 4 * d)), ("time_b1", (4 * d,)),
            ("time_w2", (4 * d, d)), ("time_b2", (d,)),
            *((f"block{i}.{name}", shape) for i in range(cfg.n_blocks) for name, shape in block),
            ("out_ln_g", (d,)), ("out_ln_b", (d,)),
            ("out_w", (d, out)), ("out_b", (out,)),
        ]

    def trainable_parameters(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self.named_parameters() if t.requires_grad]

    def fusion_values(self) -> list[float]:
        return [blk.cross.fusion.item() for blk in self.blocks]


def _normal(rng: np.random.Generator, shape, std: float = 0.02, trainable: bool = True) -> Tensor:
    return Tensor(rng.normal(0.0, std, shape), requires_grad=trainable)


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def _ones(shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


def init_denoiser_params(
    cfg: DenoiserConfig,
    vocab: Vocab,
    rng: np.random.Generator,
    fusion_mode: str = A.FUSION_LEARNABLE,
    fusion_constant: float | None = None,
) -> DenoiserParams:
    """Seeded initialization.

    All shared weights are drawn first in a fixed order; fusion scalars are
    drawn last so that runs differing only in fusion mode share bitwise
    identical base parameters.
    """
    d, dt = cfg.d_model, cfg.d_text
    params = DenoiserParams(
        cfg=cfg,
        text_table=_normal(rng, (vocab.size, dt)),
        patch_w=_normal(rng, (cfg.patch_dim, d)),
        patch_b=_zeros(d),
        time_w1=_normal(rng, (d, 4 * d)),
        time_b1=_zeros(4 * d),
        time_w2=_normal(rng, (4 * d, d)),
        time_b2=_zeros(d),
    )
    bases = []
    for _ in range(cfg.n_blocks):
        self_attn = CrossAttnWeights(
            w_q=_normal(rng, (d, d)), w_k=_normal(rng, (d, d)), w_v=_normal(rng, (d, d))
        )
        base = CrossAttnWeights(
            w_q=_normal(rng, (d, d)), w_k=_normal(rng, (dt, d)), w_v=_normal(rng, (dt, d))
        )
        blk = BlockParams(
            ln1_g=_ones(d), ln1_b=_zeros(d),
            self_attn=self_attn,
            ln2_g=_ones(d), ln2_b=_zeros(d),
            cross=None,
            ln3_g=_ones(d), ln3_b=_zeros(d),
            ff_w1=_normal(rng, (d, 4 * d)), ff_b1=_zeros(4 * d),
            ff_w2=_normal(rng, (4 * d, d)), ff_b2=_zeros(d),
        )
        bases.append(base)
        params.blocks.append(blk)
    params.out_ln_g = _ones(d)
    params.out_ln_b = _zeros(d)
    params.out_w = _normal(rng, (d, cfg.out_patch_dim))
    params.out_b = _zeros(cfg.out_patch_dim)
    for blk, base in zip(params.blocks, bases):
        blk.cross = A.init_cts_from_base(base, fusion_mode, constant=fusion_constant, rng=rng)
        # the branch copies train like everything else
        for t in (blk.cross.center_k, blk.cross.center_v, blk.cross.surround_k, blk.cross.surround_v):
            t.requires_grad = True
    return params


def sinusoidal_embedding(pos: float, dim: int) -> np.ndarray:
    """Standard sin/cos embedding of a scalar position."""
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half - 1, 1))
    angles = pos * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)])


@functools.lru_cache(maxsize=8)
def position_grid(cfg: DenoiserConfig) -> np.ndarray:
    """Fixed 2-d sinusoidal positions, one row per patch token (read-only, cached)."""
    quarter = cfg.d_model // 4
    freqs = np.exp(-math.log(10000.0) * np.arange(quarter) / max(quarter - 1, 1))
    coords = np.arange(cfg.grid)
    table = coords[:, None] * freqs[None, :]
    one_d = np.concatenate([np.sin(table), np.cos(table)], axis=1)  # (grid, d/2)
    rows = np.repeat(one_d, cfg.grid, axis=0)
    cols = np.tile(one_d, (cfg.grid, 1))
    grid = np.concatenate([rows, cols], axis=1)  # (n_tokens, d)
    grid.flags.writeable = False
    return grid


def patchify(img: np.ndarray, patch_size: int) -> np.ndarray:
    """(C, H, W) -> (n_tokens, patch_size^2 * C), row-major patch order."""
    c, height, width = img.shape
    p = patch_size
    h, w = height // p, width // p
    return (
        img.reshape(c, h, p, w, p)
        .transpose(1, 3, 0, 2, 4)
        .reshape(h * w, c * p * p)
    )


def _unpatchify(tokens: Tensor, cfg: DenoiserConfig) -> Tensor:
    p, c, g = cfg.patch_size, cfg.channels, cfg.grid
    t = T.reshape(tokens, (g, g, c, p, p))
    t = T.permute(t, (2, 0, 3, 1, 4))
    return T.reshape(t, (c, cfg.image_size, cfg.image_size))


def _layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    return T.add(T.mul(T.layernorm_rows(x), gain), bias)


def _feed_forward(x: Tensor, blk: BlockParams) -> Tensor:
    h = T.gelu(T.add(T.matmul(x, blk.ff_w1), blk.ff_b1))
    return T.add(T.matmul(h, blk.ff_w2), blk.ff_b2)


@dataclass
class Conditioning:
    """What stays fixed while one image is denoised."""

    known: np.ndarray  # (n_tokens, patch^2 * (channels + 1)): masked image and mask patches
    text: list[RoutedText]  # one per block


def condition(
    params: DenoiserParams,
    masked_img: np.ndarray,
    pixel_mask: np.ndarray,
    pe: PromptEmbedding,
    use_region_attention: bool = True,
) -> Conditioning:
    """Validate the known input and route the prompt at every block.

    ``use_region_attention=False`` conditions the baseline twin: plain
    cross-attention over the total prompt stream at every site.
    """
    cfg = params.cfg
    masked_img = np.asarray(masked_img, dtype=np.float64)
    pixel_mask = np.asarray(pixel_mask, dtype=np.float64)
    img_shape = (cfg.channels, cfg.image_size, cfg.image_size)
    if masked_img.shape != img_shape:
        raise ShapeMismatch(f"expected image shape {img_shape}, got {masked_img.shape}")
    if pixel_mask.shape != img_shape[1:]:
        raise ShapeMismatch(f"expected mask shape {img_shape[1:]}, got {pixel_mask.shape}")
    if not np.all((pixel_mask == 0.0) | (pixel_mask == 1.0)):
        raise A.MaskNotBinary("pixel mask entries must be exactly 0 or 1")
    token_mask = resize_mask(pixel_mask, (cfg.grid, cfg.grid)) if use_region_attention else None
    known = patchify(np.concatenate([masked_img, pixel_mask[None]], axis=0), cfg.patch_size)
    return Conditioning(known, [A.route_text(pe, token_mask, blk.cross) for blk in params.blocks])


def time_embedding(params: DenoiserParams, ts) -> Tensor:
    """Timestep MLP over ``ts`` in one pass; row i embeds ts[i]."""
    cfg = params.cfg
    for t in ts:
        if not 0 <= t <= cfg.t_steps:
            raise ValueError(f"t={t} outside [0, {cfg.t_steps}]")
    rows = Tensor(np.stack([sinusoidal_embedding(float(t), cfg.d_model) for t in ts]))
    h = T.gelu(T.add(T.matmul(rows, params.time_w1), params.time_b1))
    return T.add(T.matmul(h, params.time_w2), params.time_b2)


def denoise(params: DenoiserParams, x_t: np.ndarray, temb: Tensor, cond: Conditioning) -> Tensor:
    """Predict the noise in ``x_t`` given one timestep-embedding row and ``cond``."""
    cfg = params.cfg
    x_t = np.asarray(x_t, dtype=np.float64)
    img_shape = (cfg.channels, cfg.image_size, cfg.image_size)
    if x_t.shape != img_shape:
        raise ShapeMismatch(f"expected image shape {img_shape}, got {x_t.shape}")

    patches = np.concatenate([patchify(x_t, cfg.patch_size), cond.known], axis=1)
    x = T.add(T.matmul(Tensor(patches), params.patch_w), params.patch_b)
    x = T.add(x, Tensor(position_grid(cfg)))
    x = T.add(x, temb)

    for blk, text in zip(params.blocks, cond.text):
        h = _layer_norm(x, blk.ln1_g, blk.ln1_b)
        x = T.add(x, A.cross_attention(h, h, blk.self_attn))
        h = _layer_norm(x, blk.ln2_g, blk.ln2_b)
        x = T.add(x, A.routed_attention(h, text, blk.cross))
        h = _layer_norm(x, blk.ln3_g, blk.ln3_b)
        x = T.add(x, _feed_forward(h, blk))

    x = _layer_norm(x, params.out_ln_g, params.out_ln_b)
    out = T.add(T.matmul(x, params.out_w), params.out_b)
    return _unpatchify(out, cfg)


def forward(
    params: DenoiserParams,
    x_t: np.ndarray,
    masked_img: np.ndarray,
    pixel_mask: np.ndarray,
    t: int,
    pe: PromptEmbedding,
    use_region_attention: bool = True,
) -> Tensor:
    """Predict the noise in ``x_t``; output shape equals the input image.

    ``use_region_attention=False`` runs the baseline twin (see ``condition``).
    """
    cond = condition(params, masked_img, pixel_mask, pe, use_region_attention)
    return denoise(params, x_t, time_embedding(params, [t]), cond)
