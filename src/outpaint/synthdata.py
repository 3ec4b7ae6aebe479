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

import contextlib
import functools
import os
import shutil
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from outpaint import ppm
from outpaint.denoiser import ConfigError, DenoiserConfig
from outpaint.prompt import CsPrompt, Vocab, parse, render


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

    def __post_init__(self):
        # below 8 px the large/small shape renders coincide, so captions would no longer be
        # recoverable from pixels; above the model's image_size ceiling no model trains on it
        ceiling = DenoiserConfig.range_of("image_size")[1]
        if self.image_size % 2 or self.center_size % 2 or not 8 <= self.center_size < self.image_size <= ceiling:
            raise ConfigError(f"need even sizes with 8 <= center_size < image_size <= {ceiling}, "
                              f"got {self.center_size}/{self.image_size}")


DEFAULT_SPEC = SynthSpec()


def vocabulary() -> Vocab:
    """The closed keyword vocabulary, in canonical order."""
    return Vocab(SHAPES + COLORS + SIZES + TEXTURES + DENSITIES + SHADES)


@dataclass
class SynthSample:
    """A caption and what its pixels are made from; ``image`` ((3, H, W) in
    [-1, 1]) and ``pixel_mask`` ((H, W), 1 = surrounding) are fresh arrays on
    each access. A built sample keeps the caption its image renders from (the
    training ``caption`` may be blanked) and its mask's geometry or bool
    raster; a loaded one keeps its files' uint8 rasters."""

    make_image: Callable[[], np.ndarray]
    make_mask: Callable[[], np.ndarray]
    caption: CsPrompt

    @property
    def image(self) -> np.ndarray:
        return self.make_image()

    @property
    def pixel_mask(self) -> np.ndarray:
        return self.make_mask()


def _center_block(image_size: int, center_size: int) -> tuple[slice, slice]:
    """The row and column slices of the centered block that a center mask keeps."""
    if image_size % 2 or center_size % 2:
        raise ConfigError(f"sizes must be even, got {image_size}/{center_size}")
    if not 0 < center_size <= image_size:
        raise ConfigError(f"need 0 < center_size <= image_size, got {center_size}/{image_size}")
    lo = (image_size - center_size) // 2
    return (slice(lo, lo + center_size),) * 2


def make_center_mask(image_size: int, center_size: int) -> np.ndarray:
    """Zeros on the centered block, ones (to generate) elsewhere."""
    mask = np.ones((image_size, image_size))
    mask[_center_block(image_size, center_size)] = 0.0
    return mask


def make_irregular_mask(seed: int, image_size: int, min_keep_fraction: float) -> np.ndarray:
    """Random blob of 1-3 overlapping ellipses near the center, kept (0).

    Every ellipse contains the central pixel, so the kept region is
    4-connected; radii are grown until at least ``min_keep_fraction`` of
    the image is kept. Deterministic per seed.
    """
    if not 0.0 < min_keep_fraction < 1.0:
        raise ConfigError(f"min_keep_fraction must be in (0, 1), got {min_keep_fraction}")
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
    yy, xx = np.arange(image_size)[:, None], np.arange(image_size)
    scale = 1.0
    while True:
        kept = np.zeros((image_size, image_size), dtype=bool)
        for cy, cx, ry, rx in ellipses:
            kept |= ((yy - cy) / (ry * scale)) ** 2 + ((xx - cx) / (rx * scale)) ** 2 <= 1.0
        if kept.mean() >= min_keep_fraction:
            return 1.0 - kept.astype(np.float64)
        scale *= 1.25


def shape_template(shape: str, size_word: str, center_size: int) -> np.ndarray:
    """Boolean foreground raster of a shape inside a center tile."""
    cs = center_size
    side = cs - 2 if size_word == "large" else cs // 2
    c0 = (cs - 1) / 2.0
    yy, xx = np.arange(cs)[:, None], np.arange(cs)
    if shape == "square":
        half = side / 2.0
        return (np.abs(yy - c0) <= half) & (np.abs(xx - c0) <= half)
    if shape == "circle":
        r = side / 2.0
        return (yy - c0) ** 2 + (xx - c0) ** 2 <= r * r
    if shape == "triangle":
        rel = yy - (cs - side) // 2
        return (rel >= 0) & (rel < side) & (np.abs(xx - c0) <= (rel + 1) / 2.0)
    raise ValueError(f"unknown shape {shape!r}")


def render_center_tile(shape: str, color: str, size_word: str, center_size: int) -> np.ndarray:
    """(3, cs, cs) tile in [0, 1]: gray background, full-intensity shape."""
    return np.where(shape_template(shape, size_word, center_size), np.reshape(COLOR_RGB[color], (3, 1, 1)), BACKGROUND)


def render_surrounding_field(texture: str, color: str, qualifier: str, image_size: int) -> np.ndarray:
    """(3, H, W) texture field in [0, 1] covering the whole image."""
    if texture == "solid":
        lit = 1.0 if qualifier == "bright" else DARK_SHADE
    elif texture in ("stripes", "checker"):
        cells = np.arange(image_size) // DENSITY_CELL[qualifier]
        lit = (cells[:, None] if texture == "stripes" else cells[:, None] + cells) % 2 == 0
    else:
        raise ValueError(f"unknown texture {texture!r}")
    field = np.empty((3, image_size, image_size))
    np.multiply(np.reshape(COLOR_RGB[color], (3, 1, 1)), lit, out=field)
    return field


def draw_caption(seed: int) -> CsPrompt:
    """The seed's six keywords, drawn in caption order."""
    rng = np.random.default_rng(seed)
    shape = SHAPES[rng.integers(len(SHAPES))]
    center_color = COLORS[rng.integers(len(COLORS))]
    size_word = SIZES[rng.integers(len(SIZES))]
    texture = TEXTURES[rng.integers(len(TEXTURES))]
    surround_color = COLORS[rng.integers(len(COLORS))]
    pool = SHADES if texture == "solid" else DENSITIES
    qualifier = pool[rng.integers(len(pool))]
    return CsPrompt((shape, center_color, size_word), (texture, surround_color, qualifier))


def render_image(caption: CsPrompt, spec: SynthSpec = DEFAULT_SPEC) -> np.ndarray:
    """(3, H, W) image in [-1, 1] that a full six-keyword caption describes."""
    (shape, center_color, size_word), (texture, surround_color, qualifier) = caption.center, caption.surrounding
    img = render_surrounding_field(texture, surround_color, qualifier, spec.image_size)
    rows, cols = _center_block(spec.image_size, spec.center_size)
    img[:, rows, cols] = render_center_tile(shape, center_color, size_word, spec.center_size)
    return img * 2.0 - 1.0


def generate(seed: int, spec: SynthSpec = DEFAULT_SPEC) -> SynthSample:
    """One center-mask sample; captions are correct by construction."""
    caption = draw_caption(seed)
    return SynthSample(functools.partial(render_image, caption, spec),
                       functools.partial(make_center_mask, spec.image_size, spec.center_size), caption)


def split_conditional(samples: Sequence[SynthSample], uncond_fraction: float, seed: int) -> list[SynthSample]:
    """Blank the captions of a seeded uncond_fraction subset.

    The subset is the prefix of a seeded permutation, so the replaced count
    is exactly round(fraction * n).
    """
    if not 0.0 <= uncond_fraction <= 1.0:
        raise ConfigError(f"uncond_fraction must be in [0, 1], got {uncond_fraction}")
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

    Each sample is ``generate``'s for its seed, except that an irregular mask
    (kept as a bool raster) keeps at least the center square's share of the
    image.
    """
    seeds = [
        int(np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(1)[0])
        for i in range(n)
    ]
    samples = [generate(s, spec) for s in seeds]
    if irregular:
        keep = (spec.center_size / spec.image_size) ** 2
        for sample, s in zip(samples, seeds):
            sample.make_mask = functools.partial((make_irregular_mask(s, spec.image_size, keep) == 1.0).astype, float)
    if uncond_fraction:
        samples = split_conditional(samples, uncond_fraction, seed)
    return samples, seeds


# -- on-disk layout --------------------------------------------------------
# manifest.tsv: `seed<TAB>image_path<TAB>mask_path<TAB>caption` lines, paths inside the dataset


def output_dir(out):
    """``with output_dir(out) as tmp`` yields a new ``<out>.partial``, renamed onto ``out`` if the
    block succeeds and removed, with the parents it made, if it raises. ``out`` may be missing
    (parents are made) or an empty real directory (its mode is kept); anything else, or a
    ``<out>.partial`` left by a killed run, raises ``FileExistsError`` at the call, so
    ``output_dir(out)`` alone checks a ``--out``."""
    out = os.path.normpath(out)
    tmp = out + ".partial"
    if os.path.islink(out) or os.path.lexists(out) and not (os.path.isdir(out) and not os.listdir(out)):
        raise FileExistsError(f"{out}: exists and is not an empty directory, or is a symbolic link")
    if os.path.lexists(tmp):
        raise FileExistsError(f"{tmp}: left by an interrupted write; remove it first")
    @contextlib.contextmanager
    def staged():
        made = [tmp]  # tmp and the parents it lacks, deepest first: what a failed write removes
        while not os.path.lexists(os.path.dirname(made[-1]) or os.curdir):
            made.append(os.path.dirname(made[-1]))
        os.makedirs(tmp)  # and its parents, with the mode a new out gets
        try:
            if os.path.isdir(out):
                shutil.copymode(out, tmp)
            yield tmp
            os.replace(tmp, out)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            for parent in made[1:]:
                with contextlib.suppress(OSError):
                    os.rmdir(parent)
            raise
    return staged()


@contextlib.contextmanager
def output_file(path):
    """``output_dir`` for one file, which may exist: the caller writes the yielded ``<path>.tmp``."""
    tmp = f"{path}.tmp"
    made = [tmp]  # tmp and the parents it lacks, deepest first: what a failed write removes
    while not os.path.lexists(os.path.dirname(made[-1]) or os.curdir):
        made.append(os.path.dirname(made[-1]))
    os.makedirs(os.path.dirname(tmp) or os.curdir, exist_ok=True)
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        if os.path.lexists(tmp):
            os.unlink(tmp)
        for parent in made[1:]:
            with contextlib.suppress(OSError):
                os.rmdir(parent)
        raise


def save_dataset(samples: Sequence[SynthSample], seeds: Sequence[int], out_dir) -> None:
    """Write the dataset through ``output_dir``: all of it, or on any failure nothing."""
    with output_dir(out_dir) as tmp:
        os.mkdir(os.path.join(tmp, "images"))
        os.mkdir(os.path.join(tmp, "masks"))
        lines = []
        for i, (sample, seed) in enumerate(zip(samples, seeds)):
            img_rel = f"images/{i:05d}.ppm"
            mask_rel = f"masks/{i:05d}.pgm"
            ppm.write_ppm(os.path.join(tmp, img_rel), sample.image)
            ppm.write_pgm(os.path.join(tmp, mask_rel), sample.pixel_mask)
            lines.append(f"{seed}\t{img_rel}\t{mask_rel}\t{render(sample.caption)}\n")
        with open(os.path.join(tmp, "manifest.tsv"), "w", encoding="utf-8") as fh:
            fh.writelines(lines)


def load_dataset(in_dir) -> tuple[list[SynthSample], list[int]]:
    """A saved dataset, whose samples keep their files' pixel bytes, each
    distinct mask raster once; an error names its manifest line."""
    manifest = os.path.join(in_dir, "manifest.tsv")
    masks = {}  # (raster shape, raster bytes) -> the one mask maker of every file with those bytes

    def read(rel, magic):
        if os.path.isabs(rel) or os.pardir in rel.split(os.sep):
            raise ValueError(f"manifest path {rel!r} leaves the dataset directory")
        raw = ppm.read_raster(os.path.join(in_dir, rel), magic)
        make = functools.partial(ppm.from_raster, raw)
        return make if magic == b"P6" else masks.setdefault((raw.shape, raw.tobytes()), make)

    samples = []
    seeds = []
    with open(manifest, encoding="utf-8", errors="surrogateescape") as fh:  # a byte not UTF-8 fails on its line
        for number, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                line.encode("utf-8")  # raises at a surrogate-escaped byte
                seed_s, img_rel, mask_rel, caption = line.split("\t")
                samples.append(SynthSample(read(img_rel, b"P6"), read(mask_rel, b"P5"), parse(caption)))
                seeds.append(int(seed_s))
            except UnicodeEncodeError as exc:  # a ValueError that type(exc) cannot rebuild from one message
                byte = ord(line[exc.start]) - 0xDC00
                raise ValueError(f"{manifest}:{number}: not UTF-8 text (byte 0x{byte:02x})") from exc
            except (OSError, ValueError) as exc:
                raise type(exc)(f"{manifest}:{number}: {exc}") from exc
    return samples, seeds
