import contextlib
import hashlib
import io
import itertools
import os
import stat
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from outpaint import cli
from outpaint import ppm
from outpaint import synthdata as SD
from outpaint.evaluation import detect_keywords
from outpaint.prompt import CsPrompt, render


def test_generate_is_deterministic():
    # seeds 0-9 cover every texture; each read makes new arrays, so writing
    # into one (or into a center mask) cannot change a later sample
    for seed in range(10):
        a = SD.generate(seed)
        want_image, want_mask = a.image.copy(), a.pixel_mask.copy()
        for arr in (a.image, a.pixel_mask, SD.make_center_mask(16, 8)):
            assert arr.flags.writeable and arr.flags.owndata
            arr[...] = 7.0
        b = SD.generate(seed)
        np.testing.assert_array_equal(b.image, want_image)
        np.testing.assert_array_equal(b.pixel_mask, want_mask)
        assert a.caption == b.caption


def test_generate_caption_structure_and_range():
    for seed in range(50):
        s = SD.generate(seed)
        shape, color, size = s.caption.center
        texture, s_color, qual = s.caption.surrounding
        assert shape in SD.SHAPES and color in SD.COLORS and size in SD.SIZES
        assert texture in SD.TEXTURES and s_color in SD.COLORS
        assert qual in (SD.SHADES if texture == "solid" else SD.DENSITIES)
        assert s.image.shape == (3, 16, 16)
        assert s.image.min() >= -1.0 and s.image.max() <= 1.0


def test_caption_keywords_all_in_vocabulary():
    vocab = SD.vocabulary()
    for seed in range(100):
        s = SD.generate(seed)
        for kw in s.caption.center + s.caption.surrounding:
            assert kw in vocab.words


def test_detector_round_trip_on_generated_samples():
    for seed in range(300):
        s = SD.generate(seed)
        det_center, det_surround = detect_keywords(s.image, s.pixel_mask)
        assert det_center == s.caption.center
        assert det_surround == s.caption.surrounding


def test_detector_round_trip_exhaustive_combinations():
    spec = SD.DEFAULT_SPEC
    lo = (spec.image_size - spec.center_size) // 2
    hi = lo + spec.center_size
    mask = SD.make_center_mask(spec.image_size, spec.center_size)
    for shape, c_color, size in itertools.product(SD.SHAPES, SD.COLORS, SD.SIZES):
        for texture, s_color in itertools.product(SD.TEXTURES, SD.COLORS):
            for qual in SD.SHADES if texture == "solid" else SD.DENSITIES:
                img = SD.render_surrounding_field(texture, s_color, qual, spec.image_size)
                img[:, lo:hi, lo:hi] = SD.render_center_tile(shape, c_color, size, spec.center_size)
                det_c, det_s = detect_keywords(img * 2 - 1, mask)
                assert det_c == (shape, c_color, size)
                assert det_s == (texture, s_color, qual)


def test_detector_round_trip_survives_quantization(tmp_path):
    for seed in range(30):
        s = SD.generate(seed)
        path = tmp_path / "img.ppm"
        ppm.write_ppm(path, s.image)
        det_c, det_s = detect_keywords(ppm.read_ppm(path), s.pixel_mask)
        assert (det_c, det_s) == (s.caption.center, s.caption.surrounding)


def test_center_mask_paper_geometry_fraction():
    mask = SD.make_center_mask(192, 128)
    assert mask.mean() == pytest.approx(1.0 - (128 / 192) ** 2)
    assert mask.mean() == pytest.approx(0.555555555, abs=1e-6)


def test_center_mask_degenerate_and_arithmetic():
    np.testing.assert_array_equal(SD.make_center_mask(16, 16), np.zeros((16, 16)))
    assert SD.make_center_mask(16, 8).sum() == 256 - 64


def test_center_mask_bad_geometry():
    with pytest.raises(SD.BadGeometry):
        SD.make_center_mask(15, 8)
    with pytest.raises(SD.BadGeometry):
        SD.make_center_mask(16, 7)
    with pytest.raises(SD.BadGeometry):
        SD.make_center_mask(16, 18)


def test_generate_large_geometry_round_trip():
    spec = SD.SynthSpec(image_size=192, center_size=128)
    for seed in range(5):
        s = SD.generate(seed, spec)
        det_c, det_s = detect_keywords(s.image, s.pixel_mask)
        assert (det_c, det_s) == (s.caption.center, s.caption.surrounding)
        assert s.pixel_mask.mean() == pytest.approx(1 - (128 / 192) ** 2)


def _flood_kept(mask):
    kept = mask == 0.0
    seen = np.zeros_like(kept)
    stack = [tuple(np.argwhere(kept)[0])]
    seen[stack[0]] = True
    while stack:
        y, x = stack.pop()
        for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ny, nx = y + dy, x + dx
            if 0 <= ny < mask.shape[0] and 0 <= nx < mask.shape[1]:
                if kept[ny, nx] and not seen[ny, nx]:
                    seen[ny, nx] = True
                    stack.append((ny, nx))
    return kept, seen


def test_irregular_mask_deterministic():
    a = SD.make_irregular_mask(7, 16, 0.2)
    b = SD.make_irregular_mask(7, 16, 0.2)
    np.testing.assert_array_equal(a, b)


def test_irregular_mask_keep_fraction_binary_and_connected():
    for seed in range(200):
        mask = SD.make_irregular_mask(seed, 16, 0.25)
        assert set(np.unique(mask)) <= {0.0, 1.0}
        assert (mask == 0.0).mean() >= 0.25
        kept, seen = _flood_kept(mask)
        assert (kept == seen).all(), f"kept region disconnected at seed {seed}"


def test_irregular_mask_rejects_bad_fraction():
    with pytest.raises(SD.BadGeometry):
        SD.make_irregular_mask(0, 16, 0.0)
    with pytest.raises(SD.BadGeometry):
        SD.make_irregular_mask(0, 16, 1.0)


def test_split_conditional_counts():
    samples, _ = SD.build_dataset(50, seed=1)
    assert sum(s.caption.is_unconditional for s in SD.split_conditional(samples, 0.0, 3)) == 0
    assert sum(s.caption.is_unconditional for s in SD.split_conditional(samples, 1.0, 3)) == 50
    out = SD.split_conditional(samples, 0.2, 3)
    assert sum(s.caption.is_unconditional for s in out) == 10
    # untouched samples keep their captions
    kept = [(a, b) for a, b in zip(samples, out) if not b.caption.is_unconditional]
    assert all(a.caption == b.caption for a, b in kept)


def test_split_conditional_exact_count_large():
    samples, _ = SD.build_dataset(1000, seed=2)
    out = SD.split_conditional(samples, 0.2, 9)
    assert sum(s.caption.is_unconditional for s in out) == 200


def test_build_dataset_deterministic_and_distinct():
    a, seeds_a = SD.build_dataset(20, seed=5)
    b, seeds_b = SD.build_dataset(20, seed=5)
    assert seeds_a == seeds_b
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.image, y.image)
    assert len(set(seeds_a)) == 20


def test_build_dataset_irregular_masks():
    samples, _ = SD.build_dataset(10, seed=6, irregular=True)
    for s in samples:
        assert set(np.unique(s.pixel_mask)) <= {0.0, 1.0}
        assert (s.pixel_mask == 0).mean() >= (8 / 16) ** 2


def _dataset_sha256(samples, seeds):
    h = hashlib.sha256()
    for s, seed in zip(samples, seeds):
        h.update(s.image.tobytes())
        h.update(s.pixel_mask.tobytes())
        h.update(render(s.caption).encode())
        h.update(str(seed).encode())
    return h.hexdigest()


# sha256 over the images, masks, captions and seeds of build_dataset(200, 1, ...),
# unchanged since they were first pinned; any change means the data moved
@pytest.mark.parametrize("image_size,center_size,options,want", [
    (16, 8, {}, "6ea0ded8da8115967e7af1a29a8f57258f3e7f744a0d3f2528552aff2c90a1a6"),
    (32, 16, {}, "abb81872993e959f914acdad774b07b2b461d0c1ef953ed50b7bbcfc3a5e1741"),
    (16, 8, {"irregular": True, "uncond_fraction": 0.1},
     "692b504c951f5ec22d741c3b9032859ac51f68981a40b0e8c47e81c7f3c6415a"),
])
def test_build_dataset_bytes_are_pinned(image_size, center_size, options, want):
    spec = SD.SynthSpec(image_size=image_size, center_size=center_size)
    assert _dataset_sha256(*SD.build_dataset(200, 1, spec, **options)) == want


def _read_every_piece(size):
    sample = SD.generate(0, SD.SynthSpec(image_size=size, center_size=size - 2))
    sample.image, sample.pixel_mask
    SD.make_irregular_mask(0, size, 0.25)
    for shape, size_word in itertools.product(SD.SHAPES, SD.SIZES):
        SD.shape_template(shape, size_word, size - 2)
    for texture in SD.TEXTURES:
        for qualifier in SD.SHADES if texture == "solid" else SD.DENSITIES:
            SD.render_surrounding_field(texture, "red", qualifier, size)


def test_reads_at_the_largest_geometries_leave_under_1_mb_held():
    # every piece of a sample's pixels is made on the read, so once the results
    # are dropped nothing is left behind, even at the image_size ceiling
    _read_every_piece(16)  # any lazy import happens before the trace
    ceiling = SD.DenoiserConfig.range_of("image_size")[1]
    tracemalloc.start()
    try:
        for size in range(ceiling, ceiling - 32, -2):
            _read_every_piece(size)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1e6, f"reads left {held / 1e6:.1f} MB held"


# -- dataset memory --------------------------------------------------------------
# A sample keeps a caption or its files' bytes and makes float arrays on access;
# one float64 image per sample would hold 49 MB at 2,000 samples of 32 px.

SPEC_32 = SD.SynthSpec(image_size=32, center_size=16)


@pytest.fixture(scope="module")
def dataset_32():
    return SD.build_dataset(2000, 1, SPEC_32, uncond_fraction=0.1)


def test_dataset_sample_bytes_equal_generate(dataset_32):
    for s, seed in zip(*dataset_32):
        fresh = SD.generate(seed, SPEC_32)
        assert s.image.tobytes() == fresh.image.tobytes()
        assert s.pixel_mask.tobytes() == fresh.pixel_mask.tobytes()
        assert s.caption in (fresh.caption, CsPrompt())


def test_irregular_masks_stay_per_sample():
    samples, seeds = SD.build_dataset(50, 1, irregular=True)
    for s, seed in zip(samples, seeds):
        assert s.pixel_mask.tobytes() == SD.make_irregular_mask(seed, 16, 0.25).tobytes()


def test_every_access_makes_fresh_arrays(tmp_path):
    built, seeds = SD.build_dataset(6, 2, irregular=True)
    SD.save_dataset(built, seeds, tmp_path / "data")
    for s in built + SD.load_dataset(tmp_path / "data")[0] + [SD.generate(5)]:
        for name in ("image", "pixel_mask"):
            arr = getattr(s, name)
            want = arr.copy()
            assert arr.flags.writeable and arr.flags.owndata
            arr[...] = 7.0
            np.testing.assert_array_equal(getattr(s, name), want)


def _held_mb(make_dataset) -> float:
    tracemalloc.start()
    try:
        samples, _ = make_dataset()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(samples) == 2000
    return held / 1e6


def test_dataset_of_2000_32px_samples_holds_under_4_mb():
    held = _held_mb(lambda: SD.build_dataset(2000, 1, SPEC_32))
    assert held < 4, f"the dataset holds {held:.1f} MB"


def test_irregular_dataset_of_2000_32px_samples_holds_under_6_mb():
    held = _held_mb(lambda: SD.build_dataset(2000, 1, SPEC_32, irregular=True))
    assert held < 6, f"the dataset holds {held:.1f} MB"


def test_loaded_dataset_of_2000_32px_samples_holds_under_10_mb(tmp_path, dataset_32):
    SD.save_dataset(*dataset_32, tmp_path / "data")
    held = _held_mb(lambda: SD.load_dataset(tmp_path / "data"))
    assert held < 10, f"the dataset holds {held:.1f} MB"


def _failing_third_write(real_write):
    calls = []

    def write(path, img):
        calls.append(path)
        if len(calls) == 3:
            raise OSError("disk full")
        real_write(path, img)
    return write


def test_failed_dataset_write_leaves_nothing(tmp_path, monkeypatch):
    samples, seeds = SD.build_dataset(4, seed=3)
    monkeypatch.setattr(ppm, "write_ppm", _failing_third_write(ppm.write_ppm))
    out = tmp_path / "nested" / "data"
    with pytest.raises(OSError, match="disk full"):
        SD.save_dataset(samples, seeds, out)
    assert not out.exists()
    assert os.listdir(tmp_path / "nested") == []


def test_save_dataset_accepts_missing_or_empty_and_refuses_anything_else(tmp_path):
    samples, seeds = SD.build_dataset(3, seed=4)
    fresh, empty, control = tmp_path / "a" / "b" / "fresh", tmp_path / "empty", tmp_path / "control"
    empty.mkdir()
    control.mkdir()
    os.chmod(empty, 0o750)
    SD.save_dataset(samples, seeds, str(fresh) + os.sep)
    SD.save_dataset(samples, seeds, empty)
    assert sorted(os.listdir(tmp_path)) == ["a", "control", "empty"]
    assert stat.S_IMODE(os.stat(empty).st_mode) == 0o750  # an empty directory keeps its mode
    assert stat.S_IMODE(os.stat(fresh).st_mode) == stat.S_IMODE(os.stat(control).st_mode)
    for path in (fresh, fresh / "manifest.tsv"):
        before = sorted(os.listdir(fresh))
        with pytest.raises(FileExistsError):
            SD.save_dataset(samples, seeds, path)
        assert sorted(os.listdir(fresh)) == before


def test_dataset_save_load_round_trip(tmp_path):
    samples, seeds = SD.build_dataset(8, seed=7, uncond_fraction=0.25)
    SD.save_dataset(samples, seeds, tmp_path)
    loaded, loaded_seeds = SD.load_dataset(tmp_path)
    assert loaded_seeds == seeds
    assert len(loaded) == 8
    for a, b in zip(samples, loaded):
        assert a.caption == b.caption
        np.testing.assert_array_equal(a.pixel_mask, b.pixel_mask)
        # a loaded image is its built one quantized to bytes, which moves BACKGROUND and DARK_SHADE
        assert b.image.tobytes() == ppm.byte_to_float(ppm.float_to_byte(a.image)).tobytes()
    assert (tmp_path / "manifest.tsv").exists()


def test_ppm_byte_mapping():
    img = np.full((3, 2, 2), -1.0)
    img[0, 0, 0] = 1.0
    raw = ppm.float_to_byte(img)
    assert raw[0, 0, 0] == 255 and raw[1, 0, 0] == 0
    assert ppm.float_to_byte(np.array([[0.0]]))[0, 0] == 128  # round(127.5) -> 128


def test_pgm_mask_round_trip(tmp_path):
    mask = SD.make_center_mask(16, 8)
    path = tmp_path / "m.pgm"
    ppm.write_pgm(path, mask)
    np.testing.assert_array_equal(ppm.read_pgm(path), mask)
    header = path.read_bytes()[:20]
    assert header.startswith(b"P5\n16 16\n255\n")


@pytest.mark.parametrize("header", [b"P6 2 1 255 ", b"P6 2 1 255\t", b"P6\n2 1\n255 ", b"P6\n2 1 # c\n255\r"])
def test_the_raster_starts_after_the_one_whitespace_byte_behind_maxval(tmp_path, header):
    pixels = bytes([10, 200, 30, 40, 50, 60])  # the first is a newline byte, 0x0A
    path = tmp_path / "x.ppm"
    path.write_bytes(header + pixels + bytes(reversed(pixels)))  # a second raster after the first
    assert ppm.read_raster(path, b"P6").reshape(-1).tolist() == list(pixels)


# arbitrary bytes, and pixel bytes behind a header whose sizes are small,
# huge, zero, negative or not numbers
_SIZE = st.sampled_from([b"1", b"2", b"3", b"0", b"-1", b"100000", b"ab"]) | st.just(b"1")
_IMAGE_BYTES = st.binary(max_size=64) | st.builds(
    lambda magic, w, sep, h, maxval, end, pixels: magic + b"\n" + w + sep + h + sep + maxval + end + pixels,
    st.sampled_from([b"P5", b"P6"]), _SIZE, st.sampled_from([b" ", b"\n", b" #c\n"]), _SIZE,
    st.sampled_from([b"255", b"65535"]), st.sampled_from([b"\n", b" ", b"\t", b"\r"]),
    st.binary(max_size=12) | st.binary(min_size=12, max_size=40),
)


@settings(max_examples=300, deadline=None)
@given(_IMAGE_BYTES)
def test_image_readers_load_or_raise_bad_image_file(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/x.pnm"
        with open(path, "wb") as fh:
            fh.write(raw)
        for read, rank in ((ppm.read_ppm, 3), (ppm.read_pgm, 2)):
            try:
                img = read(path)
            except ppm.BadImageFile:
                continue
            assert img.ndim == rank and img.size > 0
            assert img.min() >= -1.0 and img.max() <= 1.0


# -- manifest.tsv ---------------------------------------------------------------


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifest") / "data"
    samples, seeds = SD.build_dataset(2, 0, SD.SynthSpec(image_size=12, center_size=8))
    SD.save_dataset(samples, seeds, root)
    return root


@contextlib.contextmanager
def manifest(root, raw: bytes):
    """The dataset at ``root`` with ``raw`` as its manifest, for the duration."""
    path = root / "manifest.tsv"
    saved = path.read_bytes()
    path.write_bytes(raw)
    try:
        yield root
    finally:
        path.write_bytes(saved)


def escaping_paths(root, kind):
    """Paths to a real file of the dataset that leave its directory on the way."""
    return [str(root / kind), f"../{root.name}/{kind}", f"images/../{kind}"]


@pytest.mark.parametrize("column,kind", [(1, "images/00000.ppm"), (2, "masks/00000.pgm")])
@pytest.mark.parametrize("escape", range(3))
def test_manifest_path_outside_the_dataset_is_rejected(manifest_dir, column, kind, escape):
    fields = ["0", "images/00000.ppm", "masks/00000.pgm", "Center:; Surrounding:"]
    fields[column] = escaping_paths(manifest_dir, kind)[escape]
    with manifest(manifest_dir, "\t".join(fields).encode() + b"\n"), \
            pytest.raises(ValueError, match="leaves the dataset directory"):
        SD.load_dataset(manifest_dir)


# encodable as UTF-8 (no lone surrogates), and without the tab and newlines that split fields and lines
_TEXT = st.text(st.characters(codec="utf-8", blacklist_characters="\t\n\r"), max_size=10)
_WORDS = st.sampled_from(SD.vocabulary().words) | st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6)
_SEEDS = st.integers(-5, 10**6).map(str)
_IMAGES = st.sampled_from(["images/00000.ppm", "images/00001.ppm"])
_MASKS = st.sampled_from(["masks/00000.pgm", "masks/00001.pgm"])
_CAPTIONS = st.tuples(st.lists(_WORDS, max_size=3), st.lists(_WORDS, max_size=3)).map(
    lambda cs: f"Center:{','.join(cs[0])}; Surrounding:{','.join(cs[1])}")
_ROWS = (
    st.tuples(_SEEDS, _IMAGES, _MASKS, _CAPTIONS)  # well formed; unknown words load as UNK tokens
    | st.tuples(_SEEDS | _TEXT, _IMAGES | _MASKS | _TEXT, _MASKS | _IMAGES | _TEXT, _CAPTIONS | _TEXT)
    | st.lists(_TEXT, max_size=6)  # mostly wrong field counts
).map(list)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_ROWS, max_size=4), escape=st.none() | st.tuples(st.integers(0, 3), st.integers(1, 2),
       st.integers(0, 2)), junk=st.none() | st.tuples(st.binary(min_size=1, max_size=4), st.integers(0, 999)))
def test_manifest_lines_load_or_raise(manifest_dir, rows, escape, junk):
    """Every manifest loads or raises ``ValueError``/``OSError``; one with a
    path that leaves the dataset raises, and ``train`` on a manifest that
    raises exits 3 with one line on stderr."""
    rows = [list(r) for r in rows]
    if escape is not None and rows:  # one row's image or mask path leaves the dataset
        row, column, kind = escape
        rows[row % len(rows)] = ["0", "images/00000.ppm", "masks/00000.pgm", "Center:; Surrounding:"]
        rows[row % len(rows)][column] = escaping_paths(manifest_dir, "images/00000.ppm")[kind]
    leaves = any(len(r) == 4 and (p.startswith("/") or ".." in p.split("/")) for r in rows for p in r[1:3])
    raw = "\n".join("\t".join(r) for r in rows).encode()
    if junk is not None:  # stray bytes, often not UTF-8; they may also break up the escaping path
        at = junk[1] % (len(raw) + 1)
        raw, leaves = raw[:at] + junk[0] + raw[at:], False
    with manifest(manifest_dir, raw):
        try:
            samples, seeds = SD.load_dataset(manifest_dir)
        except (ValueError, OSError):
            pass
        else:
            event("loads")
            assert not leaves and len(samples) == len(seeds)
            return
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(["train", "--data", str(manifest_dir), "--out", f"{tmp}/run", "--image-size", "12"])
            assert not os.path.exists(f"{tmp}/run")
    assert code == cli.EXIT_DATA, err.getvalue()
    assert len(err.getvalue().splitlines()) == 1 and "Traceback" not in err.getvalue()
