"""Noise schedule, forward noising, reverse samplers, and the training loss.

Forward process (closed form of the stepwise Gaussian):

    x_t = sqrt(abar_t) x_0 + sqrt(1 - abar_t) eps,  abar_t = prod_{s<=t} (1 - beta_s)

The stochastic reverse step uses the standard posterior-mean coefficient
1/sqrt(alpha_t); the deterministic sampler predicts x_0 and re-noises to
the target step. Schedules are plain numpy and samples are float64 arrays,
used as given; only the training loss is a differentiable tensor op
(gradient flows through the noise prediction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from outpaint import tensor as T
from outpaint.denoiser import BadTimestep, ConfigError
from outpaint.tensor import ShapeMismatch, Tensor


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise rates and their cumulative products.

    ``betas[i]`` is the rate at step ``i + 1``; ``alpha_bars`` has a
    leading 1.0 so that ``alpha_bars[t]`` is valid for t = 0..T.
    """

    betas: np.ndarray
    alpha_bars: np.ndarray

    @property
    def t_steps(self) -> int:
        return len(self.betas)

    def _check(self, t: int) -> None:
        if not 1 <= t <= self.t_steps:
            raise BadTimestep(f"t={t} outside [1, {self.t_steps}]")

    def beta(self, t: int) -> float:
        self._check(t)
        return float(self.betas[t - 1])

    def alpha_bar(self, t: int) -> float:
        if not 0 <= t <= self.t_steps:
            raise BadTimestep(f"t={t} outside [0, {self.t_steps}]")
        return float(self.alpha_bars[t])


def linear_schedule(t_steps: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Linearly spaced rates, inclusive of both endpoints."""
    if t_steps < 1:
        raise ConfigError(f"t_steps must be >= 1, got {t_steps}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ConfigError(f"need 0 < beta_start <= beta_end < 1, got [{beta_start}, {beta_end}]")
    betas = np.linspace(beta_start, beta_end, t_steps)
    alpha_bars = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
    return NoiseSchedule(betas=betas, alpha_bars=alpha_bars)


def forward_sample(x0: np.ndarray, t: int, eps: np.ndarray, s: NoiseSchedule) -> np.ndarray:
    """Jump the clean sample straight to noise level t."""
    s._check(t)
    if x0.shape != eps.shape:
        raise ShapeMismatch(f"x0 {x0.shape} vs eps {eps.shape}")
    ab = s.alpha_bar(t)
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def ddpm_step(
    x_t: np.ndarray,
    t: int,
    eps_pred: np.ndarray,
    s: NoiseSchedule,
    z: np.ndarray | None = None,
) -> np.ndarray:
    """One stochastic reverse step; pass z=None (zero) at t=1."""
    s._check(t)
    if x_t.shape != eps_pred.shape:
        raise ShapeMismatch(f"x_t {x_t.shape} vs eps_pred {eps_pred.shape}")
    beta = s.beta(t)
    mean = (x_t - beta / np.sqrt(1.0 - s.alpha_bar(t)) * eps_pred) / np.sqrt(1.0 - beta)
    if z is None:
        return mean
    if z.shape != x_t.shape:
        raise ShapeMismatch(f"x_t {x_t.shape} vs z {z.shape}")
    return mean + np.sqrt(beta) * z


def ddim_step(
    x_t: np.ndarray, t: int, t_prev: int, eps_pred: np.ndarray, s: NoiseSchedule
) -> np.ndarray:
    """Deterministic reverse step: predict x_0, then re-noise to t_prev."""
    s._check(t)
    if not 0 <= t_prev < t:
        raise BadTimestep(f"need 0 <= t_prev < t, got t_prev={t_prev}, t={t}")
    if x_t.shape != eps_pred.shape:
        raise ShapeMismatch(f"x_t {x_t.shape} vs eps_pred {eps_pred.shape}")
    ab_t = s.alpha_bar(t)
    ab_prev = s.alpha_bar(t_prev)
    x0_hat = (x_t - np.sqrt(1.0 - ab_t) * eps_pred) / np.sqrt(ab_t)
    return np.sqrt(ab_prev) * x0_hat + np.sqrt(1.0 - ab_prev) * eps_pred


def ddim_timesteps(t_steps: int, n_infer: int) -> np.ndarray:
    """Descending uniform-stride step sequence from t_steps down to 0."""
    if n_infer < 1:
        raise ConfigError(f"n_infer must be >= 1, got {n_infer}")
    ts = np.unique(np.round(np.linspace(0, t_steps, min(n_infer, t_steps) + 1)).astype(np.int64))
    return ts[::-1]


def training_loss(eps: np.ndarray, eps_pred: Tensor) -> Tensor:
    """Mean squared error between added and predicted noise (differentiable)."""
    eps_t = Tensor(eps)
    if eps_t.shape != eps_pred.shape:
        raise ShapeMismatch(f"eps {eps_t.shape} vs eps_pred {eps_pred.shape}")
    diff = T.sub(eps_pred, eps_t)
    return T.mean_all(T.mul(diff, diff))
