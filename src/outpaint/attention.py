"""Image-text cross-attention with center/total/surrounding region routing.

The baseline operation attends image tokens over the full prompt embedding:

    Y = softmax(Q K^T / sqrt(d_k)) V,  Q = F_img W_q, K = F_txt W_k, V = F_txt W_v

The region-routed variant ("cts": center-total-surrounding) reuses the same
query projection for a second, regional attention over the concatenated
[center; surrounding] prompt streams, whose keys and values come from the
branch weights. The binary region mask (1 = surrounding token, 0 = center
token) routes it: logits of keys outside a token's own region are set to
-inf before the one softmax, so center tokens read only the center stream
and surrounding tokens only the surrounding stream. The regional output is
blended with the baseline through a scalar fusion weight:

    regional = softmax(Q [K_c; K_s]^T / sqrt(d_k) + M) [V_c; V_s]
    output   = baseline + fusion * (regional - baseline)

where M[i, j] is 0 if key j lies in token i's region and -inf otherwise.
At fusion = 0 the module is exactly the baseline, whatever the branches
hold; they start as copies of the baseline key/value weights.

Everything but Q depends only on the prompt and the mask, so it is split
off: ``route_text`` projects the keys and values and builds M once per
prompt and mask, and ``routed_attention`` runs the attention for any
image stream over that result. ``cts_cross_attention`` is the two in turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from outpaint import tensor as T
from outpaint.prompt import PromptEmbedding
from outpaint.tensor import ShapeMismatch, Tensor


class MaskNotBinary(ValueError):
    """Region mask values must all be exactly 0 or 1."""


class IndivisibleGrid(ValueError):
    """Pixel mask dimensions are not divisible by the token grid."""


FUSION_RANDOM = "random"
FUSION_CONSTANT = "constant"
FUSION_LEARNABLE = "learnable"


@dataclass
class CrossAttnWeights:
    """Projection weights for one attention site."""

    w_q: Tensor  # (d_img, d_k)
    w_k: Tensor  # (d_text, d_k)
    w_v: Tensor  # (d_text, d_v)

    def __post_init__(self):
        if self.w_q.shape[1] != self.w_k.shape[1]:
            raise ShapeMismatch(
                f"w_q and w_k disagree on key width: {self.w_q.shape} vs {self.w_k.shape}"
            )


@dataclass
class CtsAttnWeights:
    """Baseline weights plus the center/surrounding key-value branches.

    ``fusion`` is the scalar blend weight (see ``fusion_scalar`` for which
    modes train it). The branch fields carry their checkpoint names in
    ``metadata``.
    """

    base: CrossAttnWeights
    center_k: Tensor = field(metadata={"name": "center.w_k"})
    center_v: Tensor = field(metadata={"name": "center.w_v"})
    surround_k: Tensor = field(metadata={"name": "surround.w_k"})
    surround_v: Tensor = field(metadata={"name": "surround.w_v"})
    fusion: Tensor


@dataclass
class RegionMask:
    """Per-image-token binary mask; 1 = surrounding (generate), 0 = center."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ShapeMismatch(f"region mask must be 1-d, got {vals.shape}")
        if not np.all((vals == 0.0) | (vals == 1.0)):
            raise MaskNotBinary("region mask entries must be exactly 0 or 1")
        self.values = vals

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass
class RoutedText:
    """One site's prompt keys and values, fixed for a given prompt and mask.

    ``k``/``v`` are the total stream's; the regional fields are the
    concatenated [center; surround] stream's and ``bias`` is M, one row per
    image token.
    """

    k: Tensor
    v: Tensor
    k_regional: Tensor
    v_regional: Tensor
    bias: Tensor


def _attend(q: Tensor, k: Tensor, v: Tensor, bias: Tensor | None = None) -> Tensor:
    """softmax(q k^T / sqrt(d_k) + bias) v."""
    logits = T.scale(T.matmul(q, T.transpose(k)), 1.0 / math.sqrt(q.shape[1]))
    if bias is not None:
        logits = T.add(logits, bias)
    return T.matmul(T.softmax_rows(logits), v)


def cross_attention(image_tokens, text_tokens, w: CrossAttnWeights) -> Tensor:
    """Baseline single-head cross-attention of image tokens over text tokens."""
    image_tokens = T.as_tensor(image_tokens)
    text_tokens = T.as_tensor(text_tokens)
    q = T.matmul(image_tokens, w.w_q)
    return _attend(q, T.matmul(text_tokens, w.w_k), T.matmul(text_tokens, w.w_v))


def route_text(pe: PromptEmbedding, mask: RegionMask, w: CtsAttnWeights) -> RoutedText:
    """Project the prompt streams and build the routing bias for ``mask``."""
    k = T.matmul(pe.total, w.base.w_k)
    v = T.matmul(pe.total, w.base.w_v)
    k_regional = T.concat([T.matmul(pe.center, w.center_k), T.matmul(pe.surrounding, w.surround_k)])
    v_regional = T.concat([T.matmul(pe.center, w.center_v), T.matmul(pe.surrounding, w.surround_v)])
    key_is_surround = np.arange(k_regional.shape[0]) >= pe.center.shape[0]
    allowed = (mask.values[:, None] == 1.0) == key_is_surround[None, :]
    return RoutedText(k, v, k_regional, v_regional, Tensor(np.where(allowed, 0.0, -np.inf)))


def routed_attention(image_tokens, text: RoutedText, w: CtsAttnWeights) -> Tensor:
    """Attend image tokens over routed prompt keys (see module docstring).

    The query projection is computed once from the image stream and shared
    by the baseline and the regional attention.
    """
    image_tokens = T.as_tensor(image_tokens)
    if text.bias.shape[0] != image_tokens.shape[0]:
        raise ShapeMismatch(
            f"mask length {text.bias.shape[0]} != image token count {image_tokens.shape[0]}"
        )
    q = T.matmul(image_tokens, w.base.w_q)
    baseline = _attend(q, text.k, text.v)
    regional = _attend(q, text.k_regional, text.v_regional, text.bias)
    return T.add(baseline, T.mul(w.fusion, T.sub(regional, baseline)))


def cts_cross_attention(
    image_tokens, pe: PromptEmbedding, mask: RegionMask, w: CtsAttnWeights
) -> Tensor:
    """Region-routed cross-attention (see module docstring)."""
    return routed_attention(image_tokens, route_text(pe, mask, w), w)


def fusion_scalar(value, fusion_mode: str) -> Tensor:
    """Only learnable fusion trains; random and constant fusion stay frozen."""
    return Tensor(value, requires_grad=fusion_mode == FUSION_LEARNABLE)


def init_fusion(fusion_mode: str, constant: float | None, rng) -> Tensor:
    """Starting fusion weight: learnable starts at 0 (the wrapped module then
    reproduces the baseline exactly), constant pins ``constant`` and random
    draws uniform(0,1) from ``rng``."""
    if fusion_mode == FUSION_LEARNABLE:
        return fusion_scalar(0.0, fusion_mode)
    if fusion_mode == FUSION_CONSTANT and constant is not None:
        return fusion_scalar(float(constant), fusion_mode)
    if fusion_mode == FUSION_RANDOM and rng is not None:
        return fusion_scalar(rng.uniform(0.0, 1.0), fusion_mode)
    raise ValueError(f"bad fusion mode {fusion_mode!r} (constant needs a value, random an rng)")


def init_cts_from_base(
    base: CrossAttnWeights,
    fusion_mode: str = FUSION_LEARNABLE,
    constant: float | None = None,
    rng: np.random.Generator | None = None,
) -> CtsAttnWeights:
    """Wrap baseline weights, deep-copying key/value into both region
    branches; the fusion weight comes from ``init_fusion``."""
    return CtsAttnWeights(
        base=base,
        center_k=base.w_k.copy(),
        center_v=base.w_v.copy(),
        surround_k=base.w_k.copy(),
        surround_v=base.w_v.copy(),
        fusion=init_fusion(fusion_mode, constant, rng),
    )


def resize_mask(pixel_mask, token_grid: tuple[int, int]) -> RegionMask:
    """Block-average a pixel mask onto the token grid and threshold at 0.5.

    Exact halves round up to 1 (surrounding). Token order is row-major,
    matching the patch order of the denoiser.
    """
    pm = np.asarray(pixel_mask, dtype=np.float64)
    if pm.ndim != 2:
        raise ShapeMismatch(f"pixel mask must be 2-d, got {pm.shape}")
    h, w = token_grid
    height, width = pm.shape
    if h <= 0 or w <= 0 or height % h or width % w:
        raise IndivisibleGrid(f"pixel mask {pm.shape} not divisible by token grid {token_grid}")
    cells = pm.reshape(h, height // h, w, width // w).mean(axis=(1, 3))
    return RegionMask((cells >= 0.5).astype(np.float64).reshape(-1))
