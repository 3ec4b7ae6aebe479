"""Noise-prediction network: a patch-token transformer over the masked input.

The network sees the channel concatenation (noisy image, masked image,
mask), so a 3-channel image yields a 7-channel input. Callers pass the
plain image; ``condition`` zeroes its surroundings (mask 1) itself.
Patches become tokens; each of the ``n_blocks`` pre-norm residual blocks
runs self-attention, then region-routed cross-attention against the
prompt embedding (the token mask comes from block-averaging the pixel mask
onto the patch grid), then a feed-forward. The output head projects tokens
back to patches of predicted noise.

Every cross-attention site carries the center/total/surrounding weights;
with the fusion scalar at 0 a site computes exactly plain cross-attention,
whatever its region-branch weights hold.

``forward`` is three parts, so that a sampler pays for the constant ones
once per image: ``condition`` (validation, masking, known patches,
per-block prompt keys/values and routing), ``time_embedding`` (the
timestep MLP over many timesteps at once) and ``denoise`` (the transformer
over one noisy image).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, is_dataclass

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
        # sizes that allocate before any checkpoint tensor could bound them
        for name, size, ceiling in (("image_size", self.image_size, 1024), ("token count", self.grid**2, 4096),
                                    ("l_center", self.l_center, 1024), ("l_surround", self.l_surround, 1024),
                                    ("t_steps", self.t_steps, 100_000)):
            if size > ceiling:
                raise ValueError(f"{name} {size} exceeds its ceiling {ceiling}")

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return (self.channels, self.image_size, self.image_size)

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

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
    self_attn: CrossAttnWeights = field(metadata={"name": "self"})
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
    """All weights. A parameter's checkpoint name is its field path, with
    ``metadata["name"]`` standing in for the field name where present."""

    cfg: DenoiserConfig
    text_table: Tensor
    patch_w: Tensor
    patch_b: Tensor
    time_w1: Tensor
    time_b1: Tensor
    time_w2: Tensor
    time_b2: Tensor
    blocks: list[BlockParams] = field(metadata={"name": "block"})
    out_ln_g: Tensor
    out_ln_b: Tensor
    out_w: Tensor
    out_b: Tensor

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """All parameter tensors in field order, which is checkpoint order."""
        return list(_named_tensors(self, ""))

    def trainable_parameters(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self.named_parameters() if t.requires_grad]

    def fusion_values(self) -> list[float]:
        return [blk.cross.fusion.item() for blk in self.blocks]


def _named_tensors(node, prefix: str):
    for f in fields(node):
        name = prefix + f.metadata.get("name", f.name)
        value = getattr(node, f.name)
        if isinstance(value, Tensor):
            yield name, value
        elif isinstance(value, list):
            for i, item in enumerate(value):
                yield from _named_tensors(item, f"{name}{i}.")
        elif is_dataclass(value):
            yield from _named_tensors(value, name + ".")


def assemble(cfg: DenoiserConfig, vocab_size: int, make) -> DenoiserParams:
    """The parameter layout: ``make(name, shape, init)`` builds every tensor,
    once each, in ``named_parameters`` order.

    ``init`` is "normal" (N(0, 0.02^2)), "zeros", "ones", "fusion" (see
    ``attention.init_fusion``) or, for a region branch, the base weight
    tensor it starts as a copy of.
    """
    d, dt = cfg.d_model, cfg.d_text

    def dense(w, b, n_in, n_out):
        return make(w, (n_in, n_out), "normal"), make(b, (n_out,), "zeros")

    def norm(g, b):
        return make(g, (d,), "ones"), make(b, (d,), "zeros")

    def attn(pre, d_in):
        q = make(pre + "w_q", (d, d), "normal")
        return CrossAttnWeights(q, make(pre + "w_k", (d_in, d), "normal"), make(pre + "w_v", (d_in, d), "normal"))

    def cts(pre):
        base = attn(pre + "base.", dt)
        return CtsAttnWeights(
            base,
            make(pre + "center.w_k", (dt, d), base.w_k),
            make(pre + "center.w_v", (dt, d), base.w_v),
            make(pre + "surround.w_k", (dt, d), base.w_k),
            make(pre + "surround.w_v", (dt, d), base.w_v),
            make(pre + "fusion", (), "fusion"),
        )

    def block(pre):
        return BlockParams(
            *norm(pre + "ln1_g", pre + "ln1_b"),
            attn(pre + "self.", d),
            *norm(pre + "ln2_g", pre + "ln2_b"),
            cts(pre + "cross."),
            *norm(pre + "ln3_g", pre + "ln3_b"),
            *dense(pre + "ff_w1", pre + "ff_b1", d, 4 * d),
            *dense(pre + "ff_w2", pre + "ff_b2", 4 * d, d),
        )

    return DenoiserParams(
        cfg,
        make("text_table", (vocab_size, dt), "normal"),
        *dense("patch_w", "patch_b", cfg.patch_dim, d),
        *dense("time_w1", "time_b1", d, 4 * d),
        *dense("time_w2", "time_b2", 4 * d, d),
        [block(f"block{i}.") for i in range(cfg.n_blocks)],
        *norm("out_ln_g", "out_ln_b"),
        *dense("out_w", "out_b", d, cfg.out_patch_dim),
    )


def init_denoiser_params(
    cfg: DenoiserConfig,
    vocab: Vocab,
    rng: np.random.Generator,
    fusion_mode: str = A.FUSION_LEARNABLE,
    fusion_constant: float | None = None,
) -> DenoiserParams:
    """Seeded initialization: normal weights are drawn in parameter order and
    fusion scalars last, so that runs differing only in fusion mode share
    bitwise identical base parameters."""

    def make(name, shape, init):
        if isinstance(init, Tensor):
            return init.copy(requires_grad=True)
        if init == "fusion":
            return None  # set below, after every other draw
        if init == "normal":
            return Tensor(rng.normal(0.0, 0.02, shape), requires_grad=True)
        return Tensor(np.ones(shape) if init == "ones" else np.zeros(shape), requires_grad=True)

    params = assemble(cfg, vocab.size, make)
    for blk in params.blocks:
        blk.cross.fusion = A.init_fusion(fusion_mode, fusion_constant, rng)
    return params


def sinusoidal_embedding(positions, dim: int) -> np.ndarray:
    """Standard sin/cos embedding, one row of width ``dim`` per position."""
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half - 1, 1))
    angles = np.asarray(positions, dtype=np.float64)[:, None] * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


@functools.lru_cache(maxsize=8)
def position_grid(cfg: DenoiserConfig) -> np.ndarray:
    """Fixed 2-d sinusoidal positions, one row per patch token (read-only, cached)."""
    one_d = sinusoidal_embedding(np.arange(cfg.grid), cfg.d_model // 2)  # (grid, d/2)
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
    return T.reshape(t, cfg.image_shape)


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
    image: np.ndarray,
    pixel_mask: np.ndarray,
    pe: PromptEmbedding,
) -> Conditioning:
    """Validate the input, keep only the known part of ``image`` (mask 0) and
    route the prompt at every block."""
    cfg = params.cfg
    image = np.asarray(image, dtype=np.float64)
    pixel_mask = np.asarray(pixel_mask, dtype=np.float64)
    if image.shape != cfg.image_shape:
        raise ShapeMismatch(f"expected image shape {cfg.image_shape}, got {image.shape}")
    if pixel_mask.shape != cfg.image_shape[1:]:
        raise ShapeMismatch(f"expected mask shape {cfg.image_shape[1:]}, got {pixel_mask.shape}")
    if not np.all((pixel_mask == 0.0) | (pixel_mask == 1.0)):
        raise A.MaskNotBinary("pixel mask entries must be exactly 0 or 1")
    token_mask = resize_mask(pixel_mask, (cfg.grid, cfg.grid))
    known = patchify(np.concatenate([image * (1.0 - pixel_mask), pixel_mask[None]], axis=0), cfg.patch_size)
    return Conditioning(known, [A.route_text(pe, token_mask, blk.cross) for blk in params.blocks])


def time_embedding(params: DenoiserParams, ts) -> Tensor:
    """Timestep MLP over ``ts`` in one pass; row i embeds ts[i]."""
    cfg = params.cfg
    ts = np.asarray(ts, dtype=np.float64)
    bad = ts[~((ts >= 0) & (ts <= cfg.t_steps))]
    if bad.size:
        raise ValueError(f"t={bad[0]:g} outside [0, {cfg.t_steps}]")
    rows = Tensor(sinusoidal_embedding(ts, cfg.d_model))
    h = T.gelu(T.add(T.matmul(rows, params.time_w1), params.time_b1))
    return T.add(T.matmul(h, params.time_w2), params.time_b2)


def denoise(params: DenoiserParams, x_t: np.ndarray, temb: Tensor, cond: Conditioning) -> Tensor:
    """Predict the noise in ``x_t`` given one timestep-embedding row and ``cond``."""
    cfg = params.cfg
    x_t = np.asarray(x_t, dtype=np.float64)
    if x_t.shape != cfg.image_shape:
        raise ShapeMismatch(f"expected image shape {cfg.image_shape}, got {x_t.shape}")

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
    image: np.ndarray,
    pixel_mask: np.ndarray,
    t: int,
    pe: PromptEmbedding,
) -> Tensor:
    """Predict the noise in ``x_t``; output shape equals the input image."""
    cond = condition(params, image, pixel_mask, pe)
    return denoise(params, x_t, time_embedding(params, [t]), cond)
