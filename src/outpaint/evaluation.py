"""Proxy evaluation: keyword detection, center preservation, center copying.

Because the dataset vocabulary is closed and rendering is deterministic,
region keywords can be recovered from pixels by rule instead of by a
learned classifier. Accuracy of that recovery against the conditioning
prompt, plus mean squared error over the preserved center, stand in for
distribution-level image metrics, which are meaningless at this scale.

The detector is total and deterministic on arbitrary [-1, 1] images: every
decision falls back to a documented tie order, so garbage input still maps
to some vocabulary words. Images and masks are float64 arrays, used as given.
"""

from __future__ import annotations

import contextlib
import json
import operator
import os
from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np

from outpaint import ppm
from outpaint import synthdata as SD
from outpaint.prompt import CsPrompt, UNCONDITIONAL, tokenize_and_embed
from outpaint.sampling import ddim_sample
from outpaint.tensor import ShapeMismatch

LIT_THRESHOLD = 0.25  # max-channel above this counts as a lit texture pixel
FG_THRESHOLD = 0.6  # max-channel above this counts as shape foreground
TRANSITION_THRESHOLD = 0.1  # flip fraction above this means a pattern axis
FINE_THRESHOLD = 0.75  # flip fraction above this means the fine cell size


@dataclass
class EvalReport:
    """Region accuracies need every listed attribute right; the texture and
    color accuracies score one surrounding attribute each."""

    region_accuracy_center: float
    region_accuracy_surrounding: float
    texture_accuracy_surrounding: float
    color_accuracy_surrounding: float
    center_mse: float
    n_samples: int

    def to_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in asdict(self).items())

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def copy_center(generated: np.ndarray, original: np.ndarray, pixel_mask: np.ndarray) -> np.ndarray:
    """Paste the original content back into the non-masked (center) region."""
    if generated.shape != original.shape or generated.shape[1:] != pixel_mask.shape:
        raise ShapeMismatch(
            f"copy_center shapes: {generated.shape}, {original.shape}, {pixel_mask.shape}"
        )
    keep = pixel_mask == 0.0
    out = generated.copy()
    out[:, keep] = original[:, keep]
    return out


def _nearest_color(rgb: np.ndarray) -> str:
    """Nearest vocabulary color after max-normalization; ties resolve in
    ``SD.COLORS`` order (red < green < blue < yellow < white)."""
    rgb = np.clip(rgb, 0.0, None)
    peak = rgb.max()
    if peak > 0:
        rgb = rgb / peak
    best, best_d = SD.COLORS[0], np.inf
    for name in SD.COLORS:
        d = float(np.sum((rgb - np.array(SD.COLOR_RGB[name])) ** 2))
        if d < best_d - 1e-12:
            best, best_d = name, d
    return best


def _flip_fractions(binary: np.ndarray, region: np.ndarray) -> tuple[float, float]:
    """Fraction of in-region adjacent pairs whose binarization differs,
    along the vertical and horizontal axes."""
    vpairs = region[:-1] & region[1:]
    hpairs = region[:, :-1] & region[:, 1:]
    vflips = (binary[:-1] != binary[1:]) & vpairs
    hflips = (binary[:, :-1] != binary[:, 1:]) & hpairs
    vfrac = vflips.sum() / vpairs.sum() if vpairs.any() else 0.0
    hfrac = hflips.sum() / hpairs.sum() if hpairs.any() else 0.0
    return float(vfrac), float(hfrac)


def _detect_surrounding(value: np.ndarray, region: np.ndarray) -> tuple[str, str, str]:
    if not region.any():
        return SD.TEXTURES[0], SD.COLORS[0], SD.SHADES[0]
    peak = value.max(axis=0)
    lit = (peak > LIT_THRESHOLD) & region
    color_src = lit if lit.any() else region
    color = _nearest_color(value[:, color_src].mean(axis=1))

    scale = peak[region].max()
    binary = peak > 0.5 * scale if scale > 0 else np.zeros_like(peak, dtype=bool)
    vfrac, hfrac = _flip_fractions(binary, region)
    if vfrac < TRANSITION_THRESHOLD and hfrac < TRANSITION_THRESHOLD:
        texture = "solid"
        brightness = peak[lit].mean() if lit.any() else 0.0
        qualifier = "bright" if brightness > (1.0 + SD.DARK_SHADE) / 2.0 else "dark"
    elif hfrac < TRANSITION_THRESHOLD:
        texture = "stripes"
        qualifier = "fine" if vfrac > FINE_THRESHOLD else "coarse"
    else:
        texture = "checker"
        qualifier = "fine" if (vfrac + hfrac) / 2.0 > FINE_THRESHOLD else "coarse"
    return texture, color, qualifier


def _classify_shape(widths: np.ndarray) -> str:
    if widths.max() == widths.min():
        return "square"
    if np.all(np.diff(widths) >= 0) and widths[-1] > widths[0]:
        return "triangle"
    return "circle"


def _detect_center(value: np.ndarray, region: np.ndarray) -> tuple[str, str, str]:
    if not region.any():
        return SD.SHAPES[0], SD.COLORS[0], SD.SIZES[0]
    peak = value.max(axis=0)
    fg = (peak > FG_THRESHOLD) & region
    if not fg.any():
        return SD.SHAPES[0], _nearest_color(value[:, region].mean(axis=1)), SD.SIZES[-1]
    color = _nearest_color(value[:, fg].mean(axis=1))

    rows = np.where(fg.any(axis=1))[0]
    widths = fg[rows[0]:rows[-1] + 1].sum(axis=1)
    shape = _classify_shape(widths)

    region_rows = np.where(region.any(axis=1))[0]
    region_cols = np.where(region.any(axis=0))[0]
    region_h = region_rows[-1] - region_rows[0] + 1
    region_w = region_cols[-1] - region_cols[0] + 1
    cs = int(min(region_h, region_w))
    areas = [SD.shape_template(shape, size, max(cs, 4)).sum() for size in SD.SIZES]
    diffs = [abs(int(fg.sum()) - a) for a in areas]
    size_word = SD.SIZES[int(np.argmin(diffs))]
    return shape, color, size_word


def detect_keywords(image: np.ndarray, pixel_mask: np.ndarray) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Recover [shape, color, size] and [texture, color, qualifier] words.

    Exact on clean generated samples; deterministic best-effort elsewhere.
    """
    value = np.clip((image + 1.0) / 2.0, 0.0, 1.0)
    surround = pixel_mask == 1.0
    center = ~surround
    texture, s_color, qualifier = _detect_surrounding(value, surround)
    shape, c_color, size_word = _detect_center(value, center)
    return (shape, c_color, size_word), (texture, s_color, qualifier)


def surrounding_chance_rate() -> float:
    """Probability that a random texture/color guess matches the prompt."""
    return 1.0 / (len(SD.COLORS) * len(SD.TEXTURES))


def swap_surrounding_colors(prompts, seed: int) -> list[CsPrompt]:
    """Replace each prompt's surrounding color keyword with a different,
    seeded color; everything else is preserved."""
    rng = np.random.default_rng(seed)
    out = []
    for p in prompts:
        new_sur = []
        for kw in p.surrounding:
            if kw in SD.COLORS:
                others = [c for c in SD.COLORS if c != kw]
                kw = others[int(rng.integers(len(others)))]
            new_sur.append(kw)
        out.append(CsPrompt(p.center, tuple(new_sur)))
    return out


def _rate(hits: list[bool]) -> float:
    return sum(hits) / len(hits) if hits else 0.0


def score(prompts, detected, center_errors) -> EvalReport:
    """The report for one or more images, given each one's prompt, its
    ``detect_keywords`` words and its center MSE (0.0 for an image with no
    kept pixel); the three lists must be of one length.

    A center counts when its detected shape and color are both in the
    prompt, a surrounding when its texture and color both are; texture and
    color are also scored alone. An image whose prompt leaves a region
    empty is left out of that region's denominator.
    """
    pairs = [(p, found) for p, found, _ in zip(prompts, detected, center_errors, strict=True)]
    center = [shape in p.center and color in p.center for p, ((shape, color, _), _) in pairs if p.center]
    texture = [tex in p.surrounding for p, (_, (tex, _, _)) in pairs if p.surrounding]
    color = [col in p.surrounding for p, (_, (_, col, _)) in pairs if p.surrounding]
    return EvalReport(
        region_accuracy_center=_rate(center),
        region_accuracy_surrounding=_rate([t and c for t, c in zip(texture, color)]),
        texture_accuracy_surrounding=_rate(texture),
        color_accuracy_surrounding=_rate(color),
        # left to right, as sum() compensates from Python 3.12 on and can move the last bit
        center_mse=reduce(operator.add, center_errors, 0.0) / len(center_errors),
        n_samples=len(center_errors),
    )


def evaluate(
    params,
    schedule,
    samples,
    n: int,
    vocab,
    prompt_mode: str = "dataset",
    custom_prompts: list[CsPrompt] | None = None,
    infer_steps: int = 50,
    seed: int = 0,
    copy: bool = False,
    out_dir=None,
) -> EvalReport:
    """Sample the model on n dataset items, detect each image's keywords
    and ``score`` them against its prompt.

    Each center error is measured before any center copying. n is clipped
    to the dataset's size; then fewer than one sample, an unknown prompt
    mode or too few prompts raises ``ValueError``.
    """
    n = min(n, len(samples))
    if n < 1:
        raise ValueError(f"nothing to evaluate: n = {n}")
    prompts = {"dataset": [s.caption for s in samples], "unconditional": [UNCONDITIONAL] * n,
               "custom": custom_prompts}.get(prompt_mode)
    if prompts is None or len(prompts) < n:
        raise ValueError(f"prompt mode {prompt_mode!r} is unknown or has fewer than {n} prompts")
    cfg = params.cfg
    detected, center_errors = [], []
    with SD.output_dir(out_dir) if out_dir is not None else contextlib.nullcontext() as out:
        for i, (sample, cond) in enumerate(zip(samples[:n], prompts)):
            pe = tokenize_and_embed(cond, vocab, params.text_table, cfg.l_center, cfg.l_surround)
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            image, mask = sample.image, sample.pixel_mask
            gen = ddim_sample(params, schedule, image, mask, pe, infer_steps, rng)
            keep = mask == 0.0
            center_errors.append(float(((gen - image)[:, keep] ** 2).mean()) if keep.any() else 0.0)
            if copy:
                gen = copy_center(gen, image, mask)
            detected.append(detect_keywords(gen, mask))
            if out is not None:
                ppm.write_ppm(os.path.join(out, f"gen_{i:05d}.ppm"), gen)

        report = score(prompts[:n], detected, center_errors)
        if out is not None:
            for name, text in (("report.txt", report.to_text()), ("report.json", report.to_json() + "\n")):
                with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
    return report
