"""Deterministic reverse-process sampling of the outpainting network."""

from __future__ import annotations

import numpy as np

from outpaint import denoiser as DN
from outpaint import diffusion as D
from outpaint.prompt import PromptEmbedding
from outpaint.tensor import NonFinite, no_grad, slice_axis


def ddim_sample(
    params: DN.DenoiserParams,
    schedule: D.NoiseSchedule,
    image: np.ndarray,
    pixel_mask: np.ndarray,
    pe: PromptEmbedding,
    n_steps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run the deterministic sampler from pure noise down to a clean image.

    The denoiser sees ``image`` only where ``pixel_mask`` is 0 (the known
    center), at every step; only the start noise is random. The
    input is conditioned and every timestep embedded once, before the steps.
    A finished image with a non-finite pixel raises ``NonFinite``.
    """
    cfg = params.cfg
    if cfg.t_steps != schedule.t_steps:
        raise ValueError(
            f"model trained for {cfg.t_steps} steps, schedule has {schedule.t_steps}"
        )
    x = rng.standard_normal(cfg.image_shape)
    taus = D.ddim_timesteps(schedule.t_steps, n_steps)
    with no_grad():
        cond = DN.condition(params, image, pixel_mask, pe)
        temb = DN.time_embedding(params, taus[:-1])
        for i in range(len(taus) - 1):
            eps = DN.denoise(params, x, slice_axis(temb, 0, i, i + 1), cond).data
            x = D.ddim_step(x, int(taus[i]), int(taus[i + 1]), eps, schedule)
    bad = ~np.isfinite(x)
    if bad.any():
        raise NonFinite(f"{int(bad.sum())} of {x.size} image values are not finite after {n_steps} steps")
    return x
