"""Deterministic synthetic outpainting dataset.

Each sample is a procedurally rendered image whose center region carries a
colored shape on a gray background and whose surroundings carry a colored
texture field, a binary mask marking the surroundings, and a caption whose
keywords describe both regions exactly. Captions follow the fixed order
[shape, color, size] for the center and [texture, color, qualifier] for the
surroundings, so they are canonical and recoverable from pixels alone.

Rendering is anti-alias free and a pure function of (seed, spec): the same
seed always produces bitwise identical samples.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from outpaint import ppm
from outpaint.prompt import CsPrompt, Vocab, parse, render


class BadGeometry(ValueError):
    """Invalid image/center size combination."""


COLOR_RGB = {
    "red": (1.0, 0.0, 0.0),
    "green": (0.0, 1.0, 0.0),
    "blue": (0.0, 0.0, 1.0),
    "yellow": (1.0, 1.0, 0.0),
    "white": (1.0, 1.0, 1.0),
}

BACKGROUND = 0.25  # center-tile background intensity, in [0, 1]
DARK_SHADE = 0.55  # multiplier for the "dark" solid qualifier
DENSITY_CELL = {"fine": 1, "coarse": 2}

# The keyword lists; list order is the detectors' tie order and the vocabulary's.
SHAPES = ("square", "circle", "triangle")
COLORS = tuple(COLOR_RGB)
SIZES = ("large", "small")
TEXTURES = ("solid", "stripes", "checker")
DENSITIES = tuple(DENSITY_CELL)  # surrounding qualifiers of a patterned texture
SHADES = ("bright", "dark")  # surrounding qualifiers of a solid texture


@dataclass(frozen=True)
class SynthSpec:
    """Image geometry; the keywords are the module constants above."""

    image_size: int = 16
    center_size: int = 8


DEFAULT_SPEC = SynthSpec()


def vocabulary() -> Vocab:
    """The closed keyword vocabulary, in canonical order."""
    return Vocab(SHAPES + COLORS + SIZES + TEXTURES + DENSITIES + SHADES)


@dataclass
class SynthSample:
    image: np.ndarray  # (3, H, W) in [-1, 1]
    pixel_mask: np.ndarray  # (H, W), 1 = surrounding
    caption: CsPrompt


# -- masks ----------------------------------------------------------------


def make_center_mask(image_size: int, center_size: int) -> np.ndarray:
    """Zeros on the centered block, ones (to generate) elsewhere."""
    if image_size % 2 or center_size % 2:
        raise BadGeometry(f"sizes must be even, got {image_size}/{center_size}")
    if not 0 < center_size <= image_size:
        raise BadGeometry(f"need 0 < center_size <= image_size, got {center_size}/{image_size}")
    mask = np.ones((image_size, image_size))
    lo = (image_size - center_size) // 2
    mask[lo:lo + center_size, lo:lo + center_size] = 0.0
    return mask


def make_irregular_mask(seed: int, image_size: int, min_keep_fraction: float) -> np.ndarray:
    """Random blob of 1-3 overlapping ellipses near the center, kept (0).

    Every ellipse contains the central pixel, so the kept region is
    4-connected; radii are grown until at least ``min_keep_fraction`` of
    the image is kept. Deterministic per seed.
    """
    if not 0.0 < min_keep_fraction < 1.0:
        raise BadGeometry(f"min_keep_fraction must be in (0, 1), got {min_keep_fraction}")
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    c = image_size / 2.0
    ellipses = []
    for _ in range(n):
        ry = rng.uniform(image_size / 5.0, image_size / 3.0)
        rx = rng.uniform(image_size / 5.0, image_size / 3.0)
        cy = c + rng.uniform(-ry / 4.0, ry / 4.0)
        cx = c + rng.uniform(-rx / 4.0, rx / 4.0)
        ellipses.append((cy, cx, ry, rx))
    yy, xx = np.mgrid[0:image_size, 0:image_size]
    scale = 1.0
    while True:
        kept = np.zeros((image_size, image_size), dtype=bool)
        for cy, cx, ry, rx in ellipses:
            kept |= ((yy - cy) / (ry * scale)) ** 2 + ((xx - cx) / (rx * scale)) ** 2 <= 1.0
        if kept.mean() >= min_keep_fraction:
            return 1.0 - kept.astype(np.float64)
        scale *= 1.25


# -- rendering ------------------------------------------------------------


def shape_template(shape: str, size_word: str, center_size: int) -> np.ndarray:
    """Boolean foreground raster of a shape inside a center tile."""
    cs = center_size
    side = cs - 2 if size_word == "large" else cs // 2
    c0 = (cs - 1) / 2.0
    yy, xx = np.mgrid[0:cs, 0:cs]
    if shape == "square":
        half = side / 2.0
        return (np.abs(yy - c0) <= half) & (np.abs(xx - c0) <= half)
    if shape == "circle":
        r = side / 2.0
        return (yy - c0) ** 2 + (xx - c0) ** 2 <= r * r
    if shape == "triangle":
        top = (cs - side) // 2
        rel = yy - top
        inside_rows = (rel >= 0) & (rel < side)
        return inside_rows & (np.abs(xx - c0) <= (rel + 1) / 2.0)
    raise ValueError(f"unknown shape {shape!r}")


def render_center_tile(shape: str, color: str, size_word: str, center_size: int) -> np.ndarray:
    """(3, cs, cs) tile in [0, 1]: gray background, full-intensity shape."""
    tile = np.full((3, center_size, center_size), BACKGROUND)
    fg = shape_template(shape, size_word, center_size)
    rgb = COLOR_RGB[color]
    for ch in range(3):
        tile[ch][fg] = rgb[ch]
    return tile


def render_surrounding_field(texture: str, color: str, qualifier: str, image_size: int) -> np.ndarray:
    """(3, H, W) texture field in [0, 1] covering the whole image."""
    rgb = np.array(COLOR_RGB[color]).reshape(3, 1, 1)
    yy, xx = np.mgrid[0:image_size, 0:image_size]
    if texture == "solid":
        shade = 1.0 if qualifier == "bright" else DARK_SHADE
        return np.broadcast_to(rgb * shade, (3, image_size, image_size)).copy()
    cell = DENSITY_CELL[qualifier]
    if texture == "stripes":
        lit = (yy // cell) % 2 == 0
    elif texture == "checker":
        lit = ((yy // cell) + (xx // cell)) % 2 == 0
    else:
        raise ValueError(f"unknown texture {texture!r}")
    return rgb * lit[None, :, :].astype(np.float64)


def generate(seed: int, spec: SynthSpec = DEFAULT_SPEC) -> SynthSample:
    """Render one sample; captions are correct by construction."""
    if not spec.center_size < spec.image_size:
        raise BadGeometry(f"center {spec.center_size} must be smaller than image {spec.image_size}")
    if spec.center_size < 8:
        # below 8 px the large/small shape renders coincide, so captions
        # would no longer be recoverable from pixels
        raise BadGeometry(f"center_size must be >= 8, got {spec.center_size}")
    rng = np.random.default_rng(seed)
    shape = SHAPES[rng.integers(len(SHAPES))]
    center_color = COLORS[rng.integers(len(COLORS))]
    size_word = SIZES[rng.integers(len(SIZES))]
    texture = TEXTURES[rng.integers(len(TEXTURES))]
    surround_color = COLORS[rng.integers(len(COLORS))]
    pool = SHADES if texture == "solid" else DENSITIES
    qualifier = pool[rng.integers(len(pool))]

    mask = make_center_mask(spec.image_size, spec.center_size)
    img = render_surrounding_field(texture, surround_color, qualifier, spec.image_size)
    img[:, mask == 0.0] = render_center_tile(shape, center_color, size_word, spec.center_size).reshape(3, -1)

    caption = CsPrompt(
        (shape, center_color, size_word),
        (texture, surround_color, qualifier),
    )
    return SynthSample(image=img * 2.0 - 1.0, pixel_mask=mask, caption=caption)


def split_conditional(samples: Sequence[SynthSample], uncond_fraction: float, seed: int) -> list[SynthSample]:
    """Blank the captions of a seeded uncond_fraction subset.

    The subset is the prefix of a seeded permutation, so the replaced count
    is exactly round(fraction * n).
    """
    if not 0.0 <= uncond_fraction <= 1.0:
        raise ValueError(f"uncond_fraction must be in [0, 1], got {uncond_fraction}")
    n = len(samples)
    k = int(round(uncond_fraction * n))
    chosen = set(np.random.default_rng(seed).permutation(n)[:k].tolist())
    return [
        replace(s, caption=CsPrompt()) if i in chosen else s
        for i, s in enumerate(samples)
    ]


def build_dataset(
    n: int,
    seed: int,
    spec: SynthSpec = DEFAULT_SPEC,
    uncond_fraction: float = 0.0,
    irregular: bool = False,
) -> tuple[list[SynthSample], list[int]]:
    """Generate n samples with per-sample seeds derived from the base seed.

    Irregular masks keep at least the center square's share of the image.
    """
    seeds = [
        int(np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(1)[0])
        for i in range(n)
    ]
    samples = [generate(s, spec) for s in seeds]
    if irregular:
        keep = (spec.center_size / spec.image_size) ** 2
        samples = [
            replace(s, pixel_mask=make_irregular_mask(sd, spec.image_size, keep))
            for s, sd in zip(samples, seeds)
        ]
    if uncond_fraction:
        samples = split_conditional(samples, uncond_fraction, seed)
    return samples, seeds


# -- on-disk layout --------------------------------------------------------
# manifest.tsv: one record per line, `seed<TAB>image_path<TAB>mask_path<TAB>caption`


def save_dataset(samples: Sequence[SynthSample], seeds: Sequence[int], out_dir) -> None:
    img_dir = os.path.join(out_dir, "images")
    mask_dir = os.path.join(out_dir, "masks")
    os.makedirs(img_dir, exist_ok=True)
    os.makedirs(mask_dir, exist_ok=True)
    lines = []
    for i, (sample, seed) in enumerate(zip(samples, seeds)):
        img_rel = f"images/{i:05d}.ppm"
        mask_rel = f"masks/{i:05d}.pgm"
        ppm.write_ppm(os.path.join(out_dir, img_rel), sample.image)
        ppm.write_pgm(os.path.join(out_dir, mask_rel), sample.pixel_mask)
        lines.append(f"{seed}\t{img_rel}\t{mask_rel}\t{render(sample.caption)}\n")
    with open(os.path.join(out_dir, "manifest.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def load_dataset(in_dir) -> tuple[list[SynthSample], list[int]]:
    samples = []
    seeds = []
    with open(os.path.join(in_dir, "manifest.tsv"), encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            seed_s, img_rel, mask_rel, caption = line.split("\t")
            samples.append(
                SynthSample(
                    image=ppm.read_ppm(os.path.join(in_dir, img_rel)),
                    pixel_mask=ppm.read_pgm(os.path.join(in_dir, mask_rel)),
                    caption=parse(caption),
                )
            )
            seeds.append(int(seed_s))
    return samples, seeds
