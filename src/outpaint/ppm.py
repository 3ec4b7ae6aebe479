"""Binary PPM/PGM image files.

Images are float64 arrays in [-1, 1]; a pixel p maps to the byte
round((p + 1) * 127.5) clamped to [0, 255]. Color images are P6 (maxval
255, shape (3, H, W)); masks are P5 grayscale where 255 means masked
(generate) and 0 means kept. The writers take float64 arrays as given.
"""

from __future__ import annotations

import os

import numpy as np


class BadImageFile(ValueError):
    """File is not the expected PPM/PGM variant."""


def float_to_byte(img: np.ndarray) -> np.ndarray:
    return np.clip(np.round((img + 1.0) * 127.5), 0, 255).astype(np.uint8)


def byte_to_float(raw: np.ndarray) -> np.ndarray:
    return raw.astype(np.float64) / 127.5 - 1.0


def _write_raster(path, magic: bytes, raw: np.ndarray) -> None:
    """(H, W[, channels]) bytes behind a maxval-255 header; the inverse of ``read_raster``."""
    h, w = raw.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + f"\n{w} {h}\n255\n".encode("ascii"))
        fh.write(raw.tobytes())


def write_ppm(path, img: np.ndarray) -> None:
    """Write a (3, H, W) float image in [-1, 1] as binary P6."""
    if img.ndim != 3 or img.shape[0] != 3:
        raise BadImageFile(f"expected (3, H, W) image, got {img.shape}")
    _write_raster(path, b"P6", float_to_byte(img).transpose(1, 2, 0))


def write_pgm(path, mask: np.ndarray) -> None:
    """Write a (H, W) binary mask as P5; 255 = masked, 0 = kept."""
    if mask.ndim != 2:
        raise BadImageFile(f"expected (H, W) mask, got {mask.shape}")
    _write_raster(path, b"P5", (mask * 255).astype(np.uint8))


def _read_header(fh, magic: bytes):
    got = fh.read(2)
    if got != magic:
        raise BadImageFile(f"bad magic {got!r}, expected {magic!r}")
    fields, token = [], bytearray()
    while len(fields) < 3:  # token by token: the raster starts after the one whitespace byte behind maxval
        c = fh.read(1)
        if not c:
            raise BadImageFile("truncated header")
        if c == b"#":
            fh.readline()  # a comment runs to the end of its line
        elif not c.isspace():
            token += c
            continue
        if token:
            fields.append(bytes(token))
            token.clear()
    try:
        w, h, maxval = (int(v) for v in fields)
    except ValueError:
        raise BadImageFile(f"non-integer header field in {fields}") from None
    if w <= 0 or h <= 0:
        raise BadImageFile(f"image size {w}x{h} is not positive")
    if maxval != 255:
        raise BadImageFile(f"unsupported maxval {maxval}")
    return w, h


def read_raster(path, magic: bytes) -> np.ndarray:
    """(H, W, 3) bytes of a P6 file or (H, W, 1) of a P5; a size beyond the end of the file is never allocated."""
    with open(path, "rb") as fh:
        try:
            w, h = _read_header(fh, magic)
            n = (3 if magic == b"P6" else 1) * w * h
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if n > left:
                raise BadImageFile(f"expected {n} pixel bytes, only {left} left")
        except BadImageFile as exc:
            raise BadImageFile(f"{path}: {exc}") from None
        raw = fh.read(n)
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, -1)


def from_raster(raw: np.ndarray) -> np.ndarray:
    """A P6 raster as a (3, H, W) float image in [-1, 1], a P5 one as an (H, W) mask in {0, 1}."""
    return byte_to_float(raw.transpose(2, 0, 1)) if raw.shape[2] == 3 else (raw[:, :, 0] >= 128).astype(np.float64)


def read_ppm(path) -> np.ndarray:
    """Read a binary P6 file back to a (3, H, W) float image in [-1, 1]."""
    return from_raster(read_raster(path, b"P6"))


def read_pgm(path) -> np.ndarray:
    """Read a binary P5 mask back to (H, W) floats in {0, 1}."""
    return from_raster(read_raster(path, b"P5"))
