import argparse
import csv
import dataclasses
import filecmp
import io
import os
import resource
import signal
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from outpaint import cli
from outpaint import evaluation as EV
from outpaint import ppm
from outpaint import synthdata as SD
from outpaint import trainer as TR
from outpaint.sampling import ddim_sample
from outpaint.tensor import NonFinite


def run(argv):
    return cli.main(argv)


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


TOY_SETTINGS = [  # the toy run's settings that train and ablate both read
    "--iterations", "3",
    "--batch-size", "2",
    "--t-steps", "10",
    "--infer-steps", "4",
    "--image-size", "12",
    "--center-size", "8",
    "--patch-size", "3",
    "--d-model", "16",
    "--n-blocks", "1",
    "--d-text", "8",
    "--l-center", "4",
    "--l-surround", "4",
]
TOY_FLAGS = TOY_SETTINGS + ["--checkpoint-every", "2"]  # train's; ablate's arms write no checkpoint


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("toyrun")
    data = str(root / "data")
    run_dir = str(root / "run")
    assert run(["gen-data", "--out", data, "--n", "10", "--seed", "3",
                "--image-size", "12", "--center-size", "8"]) == 0
    assert run(["train", "--data", data, "--out", run_dir] + TOY_FLAGS) == 0
    return data, run_dir


def test_gen_data_twice_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run(["gen-data", "--out", str(out), "--n", "12", "--seed", "7"]) == 0
    assert tree_bytes(a) == tree_bytes(b)


WRITERS = ("gen-data", "train", "eval", "ablate")  # the commands whose --out is a directory


def writer_argv(command, toy_run, first=True):
    """``command``'s flags, all but ``--out``; a second run differs from the first."""
    data, run_dir = toy_run
    return {
        "gen-data": ["gen-data", "--n", "3" if first else "5", "--seed", "1"],
        "train": ["train", "--data", data, *TOY_FLAGS, "--iterations", "2" if first else "1", "--checkpoint-every", "1"],
        "eval": ["eval", "--ckpt", run_dir + "/model.ckpt", "--data", data, "--steps", "2", "--n", "4" if first else "2"],
        "ablate": ["ablate", "--data", data, "--eval-n", "2", *TOY_SETTINGS, "--iterations", "2" if first else "1"],
    }[command]


def forbid_work(monkeypatch):
    """Make building a dataset, training and sampling fail the test."""
    def work(*args, **kwargs):
        pytest.fail("a command did work it cannot write")

    for module, name in ((SD, "build_dataset"), (TR, "run_training"), (EV, "ddim_sample")):
        monkeypatch.setattr(module, name, work)


@pytest.mark.parametrize("command", WRITERS)
def test_a_second_run_into_the_same_out_exits_3_and_changes_nothing(tmp_path, toy_run, monkeypatch, capsys, command):
    out = tmp_path / "d"
    assert run(writer_argv(command, toy_run) + ["--out", str(out)]) == 0
    before = tree_bytes(out)
    capsys.readouterr()
    forbid_work(monkeypatch)
    assert run(writer_argv(command, toy_run, first=False) + ["--out", str(out)]) == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("outpaint: FileExistsError:"), err
    assert tree_bytes(out) == before
    assert sorted(os.listdir(tmp_path)) == ["d"]


def test_gen_data_refuses_a_non_empty_out_before_building_anything(tmp_path, monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("gen-data built a dataset it cannot write")

    monkeypatch.setattr(SD, "build_dataset", no_build)
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "keep.txt").write_text("x")
    assert run(["gen-data", "--out", str(tmp_path / "d"), "--n", "20000"]) == cli.EXIT_DATA
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert tree_bytes(tmp_path) == {os.path.join("d", "keep.txt"): b"x"}


def test_gen_data_refuses_a_symlinked_out_before_building_anything(tmp_path, monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("gen-data built a dataset it cannot write")

    monkeypatch.setattr(SD, "build_dataset", no_build)
    target, link = tmp_path / "target", tmp_path / "link"
    target.mkdir()
    link.symlink_to(target, target_is_directory=True)
    assert run(["gen-data", "--out", str(link), "--n", "4"]) == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("outpaint: FileExistsError:") and str(link) in err[0], err
    assert os.readlink(link) == str(target) and os.listdir(target) == []
    assert sorted(os.listdir(tmp_path)) == ["link", "target"]


@pytest.mark.parametrize("command", WRITERS)
def test_a_leftover_partial_write_is_refused_before_any_work(tmp_path, toy_run, monkeypatch, capsys, command):
    forbid_work(monkeypatch)
    (tmp_path / "d.partial" / "images").mkdir(parents=True)  # what a killed write leaves
    (tmp_path / "d.partial" / "images" / "00000.ppm").write_bytes(b"P6")
    before = tree_bytes(tmp_path)
    assert run(writer_argv(command, toy_run) + ["--out", str(tmp_path / "d")]) == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "d.partial" in err[0], err
    assert tree_bytes(tmp_path) == before
    assert sorted(os.listdir(tmp_path)) == ["d.partial"]


def test_gen_data_uncond_fraction_count(tmp_path):
    out = tmp_path / "d"
    assert run(["gen-data", "--out", str(out), "--n", "100", "--seed", "1",
                "--uncond-fraction", "0.2"]) == 0
    lines = (out / "manifest.tsv").read_text().splitlines()
    assert len(lines) == 100
    uncond = [l for l in lines if l.endswith("Center:; Surrounding:")]
    assert len(uncond) == 20


def test_gen_data_paper_geometry_mask_fraction(tmp_path):
    out = tmp_path / "g"
    assert run(["gen-data", "--out", str(out), "--n", "2", "--seed", "1",
                "--image-size", "192", "--center-size", "128"]) == 0
    mask = ppm.read_pgm(out / "masks" / "00000.pgm")
    assert mask.mean() == pytest.approx(1 - (128 / 192) ** 2)


def test_gen_data_bad_geometry_exit_code(tmp_path):
    assert run(["gen-data", "--out", str(tmp_path / "x"), "--n", "2",
                "--image-size", "15", "--center-size", "8"]) == cli.EXIT_USAGE
    assert not (tmp_path / "x").exists()


def test_gen_data_irregular_masks(tmp_path):
    out = tmp_path / "irr"
    assert run(["gen-data", "--out", str(out), "--n", "4", "--seed", "2", "--irregular"]) == 0
    mask = ppm.read_pgm(out / "masks" / "00000.pgm")
    center_block = SD.make_center_mask(16, 8)
    assert not np.array_equal(mask, center_block)
    assert set(np.unique(mask)) <= {0.0, 1.0}


def test_train_writes_log_and_checkpoints(toy_run):
    _, run_dir = toy_run
    assert sorted(os.listdir(run_dir)) == ["ckpt_000002.bin", "ckpt_000003.bin", "model.ckpt", "train_log.tsv"]
    log_lines = open(os.path.join(run_dir, "train_log.tsv")).read().splitlines()
    assert len(log_lines) == 3
    step, loss, fusion = log_lines[-1].split("\t")
    assert step == "3" and float(loss) > 0
    assert os.path.exists(os.path.join(run_dir, "model.ckpt"))
    assert os.path.exists(os.path.join(run_dir, "ckpt_000002.bin"))


def test_each_checkpoint_finds_its_steps_log_lines_on_disk(tmp_path, toy_run, monkeypatch):
    data, _ = toy_run
    logged = {}  # checkpoint name -> the step column of train_log.tsv as its write began
    real = TR.save_checkpoint

    def save(params, opt, cfg, path):
        with open(os.path.join(os.path.dirname(path), "train_log.tsv"), encoding="utf-8") as fh:
            logged[os.path.basename(path)] = [line.split("\t")[0] for line in fh]
        real(params, opt, cfg, path)

    monkeypatch.setattr(TR, "save_checkpoint", save)
    assert run(["train", "--data", data, "--out", str(tmp_path / "run")] + TOY_FLAGS + ["--checkpoint-every", "1"]) == 0
    steps = [str(t) for t in range(1, 4)]
    assert logged == {"ckpt_000001.bin": steps[:1], "ckpt_000002.bin": steps[:2], "ckpt_000003.bin": steps,
                      "model.ckpt": steps}


def test_a_library_run_leaves_the_tree_train_leaves(tmp_path, toy_run):
    data, _ = toy_run
    flags = zip(TOY_FLAGS[::2], TOY_FLAGS[1::2])
    cfg = TR.config_from_mapping({flag[2:].replace("-", "_"): value for flag, value in flags})
    TR.run_training(cfg, SD.load_dataset(data)[0], SD.vocabulary(), out_dir=tmp_path / "lib")
    assert run(["train", "--data", data, "--out", str(tmp_path / "cli")] + TOY_FLAGS) == 0
    lib, cli_tree = tree_bytes(tmp_path / "lib"), tree_bytes(tmp_path / "cli")
    assert sorted(lib) == ["ckpt_000002.bin", "ckpt_000003.bin", "model.ckpt", "train_log.tsv"]
    assert lib == cli_tree


def test_non_finite_training_exits_3_and_keeps_only_finite_checkpoints(tmp_path, toy_run, capsys):
    data, _ = toy_run
    run_dir = tmp_path / "nan"
    flags = TOY_FLAGS + ["--learning-rate", "1e200", "--checkpoint-every", "1"]
    assert run(["train", "--data", data, "--out", str(run_dir)] + flags) == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "NonFinite: step 2:" in err[0], err
    ckpts = sorted(n for n in os.listdir(run_dir) if n.endswith((".bin", ".ckpt")))
    assert ckpts == ["ckpt_000001.bin"]  # step 2 failed before its update
    for name in ckpts:
        params, _, _ = TR.load_checkpoint(run_dir / name)
        assert all(np.isfinite(t.data).all() for _, t in params.named_parameters())


def test_non_finite_learning_rate_exits_2_before_any_checkpoint(tmp_path, toy_run, capsys):
    data, _ = toy_run
    flags = TOY_FLAGS + ["--learning-rate", "nan", "--checkpoint-every", "1"]
    assert run(["train", "--data", data, "--out", str(tmp_path / "nan")] + flags) == cli.EXIT_USAGE
    assert "learning_rate" in capsys.readouterr().err
    assert not list(tmp_path.glob("nan/ckpt_*.bin"))


def test_mixed_geometry_dataset_exits_3_before_step_1(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(["gen-data", "--out", str(data), "--n", "6", "--seed", "3",
                "--image-size", "12", "--center-size", "8"]) == 0
    # a 16x16 sample at index 3 of a 12x12 dataset: step 1 does not draw it, step 2 does
    stray = SD.generate(0)
    ppm.write_ppm(data / "images" / "00003.ppm", stray.image)
    ppm.write_pgm(data / "masks" / "00003.pgm", stray.pixel_mask)
    run_dir = tmp_path / "run"
    flags = TOY_FLAGS + ["--checkpoint-every", "1"]
    assert run(["train", "--data", str(data), "--out", str(run_dir)] + flags) == cli.EXIT_DATA
    assert not (run_dir / "ckpt_000001.bin").exists()
    err = capsys.readouterr().err
    assert "ShapeMismatch:" in err and "sample 3" in err, err


def test_empty_dataset_exits_3_and_writes_nothing(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(["gen-data", "--out", str(data), "--n", "2", "--seed", "3",
                "--image-size", "12", "--center-size", "8"]) == 0
    (data / "manifest.tsv").write_text("")
    capsys.readouterr()
    assert run(["train", "--data", str(data), "--out", str(tmp_path / "run")] + TOY_FLAGS) == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert err == [f"outpaint: ValueError: {data}: empty dataset"], err
    assert sorted(os.listdir(tmp_path)) == ["data"]


def test_over_long_caption_exits_3_before_anything_is_written(tmp_path, toy_run, capsys):
    data = tmp_path / "data"
    assert run(["gen-data", "--out", str(data), "--n", "6", "--seed", "3",
                "--image-size", "12", "--center-size", "8"]) == 0
    # sample 3 names four center keywords; a window of 4 holds the marker and three
    manifest = data / "manifest.tsv"
    lines = manifest.read_text().splitlines(keepends=True)
    head, _ = lines[3].rsplit("\t", 1)
    lines[3] = head + "\tCenter:square,green,large,bright; Surrounding:solid,red,dark\n"
    manifest.write_text("".join(lines))
    ckpt = toy_run[1] + "/model.ckpt"
    for argv in (["train", "--data", str(data)] + TOY_FLAGS + ["--checkpoint-every", "1"],
                 ["eval", "--ckpt", ckpt, "--data", str(data), "--steps", "2"],
                 ["ablate", "--data", str(data), "--eval-n", "2"] + TOY_SETTINGS):
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == cli.EXIT_DATA, argv[0]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "LengthExceeded" in err[0] and "sample 3 caption" in err[0], err
        assert not out.exists(), argv[0]


def _extra_field(data, fields):
    fields.append("extra")


def _bad_seed(data, fields):
    fields[0] = "abc"


def _corrupt_image(data, fields):
    (data / fields[1]).write_bytes(b"XX\n12 12\n255\n" + bytes(3 * 12 * 12))


@pytest.mark.parametrize("break_line,error,names_image", [
    (_extra_field, "ValueError", False),
    (_bad_seed, "ValueError", False),
    (_corrupt_image, "BadImageFile", True),
])
def test_bad_manifest_line_error_names_the_line_and_file(tmp_path, capsys, break_line, error, names_image):
    data = tmp_path / "data"
    assert run(["gen-data", "--out", str(data), "--n", "3", "--seed", "3",
                "--image-size", "12", "--center-size", "8"]) == 0
    manifest = data / "manifest.tsv"
    lines = manifest.read_text().splitlines()
    fields = lines[1].split("\t")
    break_line(data, fields)
    lines[1] = "\t".join(fields)
    manifest.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["train", "--data", str(data), "--out", str(tmp_path / "run")] + TOY_FLAGS) == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"outpaint: {error}: {manifest}:2: " in err[0], err
    assert not names_image or f"{data / fields[1]}: " in err[0], err
    assert not (tmp_path / "run").exists()


def test_non_utf8_manifest_byte_error_names_the_line_and_file(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(["gen-data", "--out", str(data), "--n", "3", "--seed", "3",
                "--image-size", "12", "--center-size", "8"]) == 0
    manifest = data / "manifest.tsv"
    manifest.write_bytes(manifest.read_bytes().rstrip(b"\n") + b"\xff\n")
    before = tree_bytes(tmp_path)
    capsys.readouterr()
    assert run(["train", "--data", str(data), "--out", str(tmp_path / "run")] + TOY_FLAGS) == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"outpaint: ValueError: {manifest}:3: not UTF-8 text (byte 0xff)" in err[0], err
    assert tree_bytes(tmp_path) == before


def test_non_finite_sample_exits_3_and_writes_no_image(tmp_path, toy_run, capsys):
    data, _ = toy_run
    run_dir = tmp_path / "nan"
    flags = TOY_FLAGS + ["--learning-rate", "1e200", "--checkpoint-every", "1"]
    assert run(["train", "--data", data, "--out", str(run_dir)] + flags) == cli.EXIT_DATA
    capsys.readouterr()
    out = tmp_path / "out" / "x.ppm"
    assert run(["sample", "--ckpt", str(run_dir / "ckpt_000001.bin"), "--out", str(out)]) == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "NonFinite:" in err[0], err
    assert not out.exists()


def test_train_rejects_unknown_config_key(tmp_path, toy_run):
    data, _ = toy_run
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 1\n")
    code = run(["train", "--data", data, "--out", str(tmp_path / "r"), "--config", str(cfg)])
    assert code == cli.EXIT_USAGE


def test_config_file_with_a_utf8_byte_order_mark_trains_the_same_run(tmp_path, toy_run):
    data, _ = toy_run
    flags = TOY_FLAGS[2:]  # all but --iterations, which the file sets first, behind the byte-order mark
    keys = [flag[2:].replace("-", "_") for flag in flags[::2]]
    text = "iterations = 1\n" + "".join(f"{k} = {v}\n" for k, v in zip(keys, flags[1::2]))
    trees = []
    for name, raw in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(raw)
        assert run(["train", "--data", data, "--out", str(tmp_path / name), "--config", str(cfg)]) == 0, name
        trees.append(tree_bytes(tmp_path / name))
    assert trees[0] == trees[1]


def test_sample_deterministic_and_copy(tmp_path, toy_run):
    data, run_dir = toy_run
    ckpt = os.path.join(run_dir, "model.ckpt")
    src = os.path.join(data, "images", "00000.ppm")
    outs = [str(tmp_path / f"s{i}.ppm") for i in range(2)]
    for out in outs:
        code = run(["sample", "--ckpt", ckpt, "--image", src,
                    "--prompt", "Center:circle,red,large; Surrounding:solid,blue,bright",
                    "--steps", "4", "--seed", "11", "--out", out])
        assert code == 0
    assert open(outs[0], "rb").read() == open(outs[1], "rb").read()

    copied = str(tmp_path / "copy.ppm")
    assert run(["sample", "--ckpt", ckpt, "--image", src, "--steps", "4",
                "--seed", "11", "--copy", "--out", copied]) == 0
    gen = ppm.read_ppm(copied)
    source = ppm.read_ppm(src)
    mask = SD.make_center_mask(12, 8)
    np.testing.assert_array_equal(gen[:, mask == 0], source[:, mask == 0])


def test_failed_sample_write_keeps_the_previous_file(tmp_path, toy_run, monkeypatch, capsys):
    ckpt = os.path.join(toy_run[1], "model.ckpt")
    out = tmp_path / "x.ppm"
    assert run(["sample", "--ckpt", ckpt, "--steps", "2", "--out", str(out)]) == 0
    before = out.read_bytes()

    def half_write_then_fail(path, img):
        with open(path, "wb") as fh:
            fh.write(before[: len(before) // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(ppm, "write_ppm", half_write_then_fail)
    capsys.readouterr()
    assert run(["sample", "--ckpt", ckpt, "--steps", "2", "--seed", "1", "--out", str(out)]) == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "no space left on device" in err[0], err
    assert out.read_bytes() == before
    nested = tmp_path / "a" / "b" / "s.ppm"  # its missing parents are made, then removed with the failure
    assert run(["sample", "--ckpt", ckpt, "--steps", "2", "--out", str(nested)]) == cli.EXIT_DATA
    assert os.listdir(tmp_path) == ["x.ppm"]


def test_sample_with_a_dataset_mask_file(tmp_path, toy_run):
    _, run_dir = toy_run
    ckpt = os.path.join(run_dir, "model.ckpt")
    data = tmp_path / "blobs"
    assert run(["gen-data", "--out", str(data), "--n", "2", "--seed", "4",
                "--image-size", "12", "--center-size", "8", "--irregular"]) == 0
    mask_path, src = str(data / "masks" / "00001.pgm"), str(data / "images" / "00001.ppm")
    mask = ppm.read_pgm(mask_path)
    assert not np.array_equal(mask, SD.make_center_mask(12, 8))

    blank = tmp_path / "blank.ppm"  # no --image: the known content is the zero image
    assert run(["sample", "--ckpt", ckpt, "--mask", mask_path, "--steps", "3", "--seed", "3",
                "--out", str(blank)]) == 0
    assert ppm.read_ppm(blank).shape == (3, 12, 12)

    copied = tmp_path / "copy.ppm"
    assert run(["sample", "--ckpt", ckpt, "--image", src, "--mask", mask_path, "--steps", "3",
                "--seed", "3", "--copy", "--out", str(copied)]) == 0
    gen, source = ppm.read_ppm(copied), ppm.read_ppm(src)
    np.testing.assert_array_equal(gen[:, mask == 0], source[:, mask == 0])


def test_sample_with_a_mask_file_of_the_wrong_size_exits_3_and_writes_nothing(tmp_path, toy_run, capsys):
    _, run_dir = toy_run
    mask_path = tmp_path / "small.pgm"
    ppm.write_pgm(mask_path, SD.make_center_mask(8, 4))
    out = tmp_path / "x.ppm"
    assert run(["sample", "--ckpt", os.path.join(run_dir, "model.ckpt"), "--mask", str(mask_path),
                "--out", str(out)]) == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("outpaint: ShapeMismatch:") and str(mask_path) in err[0], err
    assert not out.exists()


def test_sample_with_an_image_file_of_the_wrong_size_exits_3_and_writes_nothing(tmp_path, toy_run, capsys):
    _, run_dir = toy_run
    image_path = tmp_path / "small.ppm"
    ppm.write_ppm(image_path, np.zeros((3, 8, 8)))
    out = tmp_path / "x.ppm"
    assert run(["sample", "--ckpt", os.path.join(run_dir, "model.ckpt"), "--image", str(image_path),
                "--out", str(out)]) == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("outpaint: ShapeMismatch:") and str(image_path) in err[0], err
    assert not out.exists()


def test_sample_unconditional_prompt_accepted(tmp_path, toy_run):
    _, run_dir = toy_run
    ckpt = os.path.join(run_dir, "model.ckpt")
    out = str(tmp_path / "u.ppm")
    assert run(["sample", "--ckpt", ckpt, "--prompt", "Center:; Surrounding:",
                "--steps", "3", "--seed", "5", "--out", out]) == 0
    assert os.path.exists(out)


def test_sample_malformed_prompt_exit_code(tmp_path, toy_run):
    _, run_dir = toy_run
    code = run(["sample", "--ckpt", os.path.join(run_dir, "model.ckpt"),
                "--prompt", "not a cs prompt", "--out", str(tmp_path / "x.ppm")])
    assert code == cli.EXIT_DATA


def test_sample_corrupt_checkpoint_exit_code(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage")
    code = run(["sample", "--ckpt", str(bad), "--out", str(tmp_path / "x.ppm")])
    assert code == cli.EXIT_CHECKPOINT


def _ckpt(header: bytes, records: bytes = b"") -> bytes:
    return TR._MAGIC + struct.pack("<I", len(header)) + header + records


_GOOD_HEADER = TR._config_header(TR.TrainConfig())
_ONE_RECORD = struct.pack("<I", 1)


def _toy_checkpoint(a_mode="learnable") -> tuple[bytes, bytes]:
    """Header and records of a real toy checkpoint; no tensor shape depends on
    t_steps, image_size or the prompt windows."""
    cfg = TR.TrainConfig(t_steps=10, image_size=12, patch_size=3, d_model=16, n_blocks=1, d_text=8,
                         l_center=4, l_surround=4, a_mode=a_mode)
    params = TR.init_model(cfg, SD.vocabulary())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "toy.ckpt")
        TR.save_checkpoint(params, TR.Adam(params.trainable_parameters(), lr=1e-3), cfg, path)
        with open(path, "rb") as fh:
            blob = fh.read()
    header = TR._config_header(cfg)
    return header, blob[len(_ckpt(header)):]


_TOY_HEADER, _TOY_RECORDS = _toy_checkpoint()
_CONSTANT_HEADER, _CONSTANT_RECORDS = _toy_checkpoint("constant:0.5")  # no moments for the frozen fusion

HOSTILE_CHECKPOINTS = {
    "huge_tensor_dims": _ckpt(
        _GOOD_HEADER,
        _ONE_RECORD + struct.pack("<I", 1) + b"x" + struct.pack("<5I", 4, *(2**31,) * 4),
    ),
    "header_line_without_equals": _ckpt(b"iterations\n"),
    "non_utf8_header": _ckpt(b"seed=\xff\xfe\n"),
    "non_utf8_tensor_name": _ckpt(_GOOD_HEADER, _ONE_RECORD + struct.pack("<I", 2) + b"\xff\xfe"),
    # a model of about 300 GiB declared by a header alone, and one of about 10 GiB inside every ceiling
    "huge_model_header": _ckpt(_GOOD_HEADER.replace(b"d_model=64\n", b"d_model=100000\n"), struct.pack("<I", 0)),
    "large_model_header": _ckpt(
        _GOOD_HEADER.replace(b"d_model=64\nn_blocks=4\nd_text=32\n", b"d_model=1024\nn_blocks=64\nd_text=1024\n"),
        struct.pack("<I", 0),
    ),
    # sizes no tensor shape bounds, declared over the records of a real toy model
    "huge_t_steps": _ckpt(_TOY_HEADER.replace(b"t_steps=10\n", b"t_steps=8589934592\n"), _TOY_RECORDS),
    "huge_image_size": _ckpt(_TOY_HEADER.replace(b"image_size=12\n", b"image_size=393216\n"), _TOY_RECORDS),
    "huge_l_center": _ckpt(_TOY_HEADER.replace(b"l_center=4\n", b"l_center=8589934592\n"), _TOY_RECORDS),
    "nan_constant_fusion": _ckpt(_CONSTANT_HEADER.replace(b"constant:0.5", b"constant:nan"), _CONSTANT_RECORDS),
    # a header reporting another constant than the frozen fusion the records hold
    "mismatched_constant_fusion": _ckpt(_CONSTANT_HEADER.replace(b"constant:0.5", b"constant:0.25"),
                                        _CONSTANT_RECORDS),
    # a key set twice, which a config file may not do either
    "duplicate_header_key": _ckpt(_TOY_HEADER + b"learning_rate=0.5\n", _TOY_RECORDS),
}
# Address-space cap for the child: far above a healthy run, far below any
# allocation from header sizes, so a regression fails fast instead of paging.
_CHILD_ADDRESS_SPACE = 2 * 1024**3


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_CHILD_ADDRESS_SPACE, _CHILD_ADDRESS_SPACE))


def _capped_cli(argv):
    """Run the CLI in a child process under the address-space cap."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "outpaint.cli", *argv], capture_output=True,
                          text=True, env=env, preexec_fn=_cap_address_space, timeout=120)  # a hang fails


@pytest.mark.parametrize("name", sorted(HOSTILE_CHECKPOINTS))
def test_hostile_checkpoint_exits_4_without_traceback(tmp_path, name):
    ckpt = tmp_path / "hostile.ckpt"
    ckpt.write_bytes(HOSTILE_CHECKPOINTS[name])
    done = _capped_cli(["sample", "--ckpt", str(ckpt), "--out", str(tmp_path / "x.ppm")])
    assert done.returncode == cli.EXIT_CHECKPOINT, done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("flag,value", [("--t-steps", "8589934592"), ("--image-size", "393216"),
                                        ("--l-center", "8589934592"), ("--d-model", "1000000"),
                                        ("--d-text", "100000000"), ("--n-blocks", "100000000"),
                                        ("--batch-size", "10000000000"), ("--image-size", "198")])
def test_hostile_size_flag_exits_2_before_any_checkpoint(tmp_path, toy_run, flag, value):
    data, _ = toy_run
    run_dir = tmp_path / "run"
    flags = TOY_FLAGS + ["--checkpoint-every", "1", flag, value]
    done = _capped_cli(["train", "--data", data, "--out", str(run_dir)] + flags)
    assert done.returncode == cli.EXIT_USAGE, done.stderr
    assert "ceiling" in done.stderr and len(done.stderr.splitlines()) == 1
    assert not run_dir.exists()


def test_model_too_large_for_memory_exits_3_and_writes_nothing(tmp_path):
    # inside every ceiling, but the 3.5 GiB patch projection alone exceeds the child's address space
    data = tmp_path / "data"
    assert run(["gen-data", "--out", str(data), "--n", "1", "--image-size", "256", "--center-size", "128"]) == 0
    run_dir = tmp_path / "run"
    done = _capped_cli(["train", "--data", str(data), "--out", str(run_dir), "--image-size", "256",
                        "--center-size", "128", "--patch-size", "256", "--d-model", "1024"])
    assert done.returncode == cli.EXIT_DATA, done.stderr
    err = done.stderr.splitlines()
    assert len(err) == 1 and "MemoryError" in err[0], err
    assert not run_dir.exists()


# the TrainConfig settings each command does not read, and so offers neither as a flag nor as a --config key
UNREAD = {"train": ["uncond_fraction", "channels"],
          "ablate": ["uncond_fraction", "channels", "a_mode", "checkpoint_every"]}


def config_flags(command):
    """The TrainConfig settings ``command`` offers as flags, read from the parser ``main`` uses."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [a.dest.removeprefix("cfg_") for a in sub.choices[command]._actions if a.dest.startswith("cfg_")]


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_config_flag_help_shows_the_declared_range_and_default(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "400")  # no wrapped help lines
    assert run([command, "--help"]) == cli.EXIT_OK
    text = capsys.readouterr().out
    offered = [f for f in dataclasses.fields(TR.TrainConfig) if f.name not in UNREAD[command]]
    assert [f.name for f in offered] == config_flags(command)
    assert len(offered) == {"train": 19, "ablate": 17}[command]
    for f in offered:
        span = "range [{}, {}], ".format(*f.metadata["range"]) if "range" in f.metadata else ""
        assert f"--{f.name.replace('_', '-')} " in text and f"{span}default {f.default}\n" in text, f.name
    for name in UNREAD[command]:
        assert f"--{name.replace('_', '-')} " not in text, name


@pytest.mark.parametrize("command,name", [(c, n) for c in UNREAD for n in UNREAD[c]])
def test_an_unread_setting_exits_2_as_a_flag_or_a_config_key_and_writes_nothing(tmp_path, toy_run, monkeypatch,
                                                                                capsys, command, name):
    forbid_work(monkeypatch)
    monkeypatch.setattr(SD, "load_dataset", lambda *a, **k: pytest.fail("a dataset was loaded"))
    value = str(getattr(TR.TrainConfig(), name))  # the default: in range, and still refused
    out = tmp_path / "out"
    argv = [command, "--data", toy_run[0], "--out", str(out)] + TOY_SETTINGS
    flag = f"--{name.replace('_', '-')}"
    assert run(argv + [flag, value]) == cli.EXIT_USAGE
    assert f"error: unrecognized arguments: {flag} {value}\n" in capsys.readouterr().err
    assert not out.exists()
    config = tmp_path / "c.cfg"
    config.write_text(f"iterations = 2\n{name} = {value}\n")
    assert run(argv + ["--config", str(config)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err == [f"outpaint: config error: {config}: {command} does not read {name!r}: "
                   f"{cli.UNREAD_SETTINGS[command][name]}"], err
    assert sorted(os.listdir(tmp_path)) == ["c.cfg"]


# a second in-range value for every config setting: TOY_FLAGS's value, or the default, differs from it
OTHER_VALUE = {
    "patch_size": "4", "d_model": "12", "n_blocks": "2", "d_text": "4", "l_center": "5", "l_surround": "5",
    "t_steps": "12", "iterations": "4", "batch_size": "3", "learning_rate": "0.01", "seed": "1",
    "a_mode": "random", "beta_start": "0.001", "beta_end": "0.1", "infer_steps": "3", "center_size": "4",
    "checkpoint_every": "1", "grad_clip": "0.01",
}
# image_size is the dataset's; ablate's arms evaluate each sample with its own mask, so its center_size
# is only checked against image_size
SAME_OUTPUT = {"train": {"image_size"}, "ablate": {"image_size", "center_size"}}


def train_outputs(root, data, flags):
    """The log, checkpoint names and trained weights of a toy train run, and the image ``sample`` makes from it."""
    assert run(["train", "--data", data, "--out", str(root / "run")] + flags) == 0
    assert run(["sample", "--ckpt", str(root / "run" / "model.ckpt"), "--out", str(root / "x.ppm")]) == 0
    params, _, _ = TR.load_checkpoint(root / "run" / "model.ckpt")
    return ((root / "run" / "train_log.tsv").read_bytes(), sorted(os.listdir(root / "run")),
            TR.params_checksum(params), (root / "x.ppm").read_bytes())


def ablate_outputs(root, data, flags):
    assert run(["ablate", "--data", data, "--out", str(root), "--eval-n", "2"] + flags) == 0
    return (root / "ablation.tsv").read_bytes()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_every_config_flag_changes_the_output(tmp_path, toy_run, command):
    outputs, base = {"train": (train_outputs, TOY_FLAGS), "ablate": (ablate_outputs, TOY_SETTINGS)}[command]
    first = outputs(tmp_path / "base", toy_run[0], base)
    unchanged = []
    for name in config_flags(command):
        if name in SAME_OUTPUT[command]:
            continue
        assert name in OTHER_VALUE, f"{command} offers --{name.replace('_', '-')}, which has no second value here"
        if outputs(tmp_path / name, toy_run[0], base + [f"--{name.replace('_', '-')}", OTHER_VALUE[name]]) == first:
            unchanged.append(name)
    assert unchanged == []


def test_bad_beta_end_exits_2_before_any_checkpoint(tmp_path, toy_run, capsys):
    data, _ = toy_run
    flags = TOY_FLAGS + ["--beta-end", "2", "--checkpoint-every", "1"]
    assert run(["train", "--data", data, "--out", str(tmp_path / "b")] + flags) == cli.EXIT_USAGE
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("b/*.bin"))


def test_endless_checkpoint_file_exits_4_without_traceback(tmp_path):
    # reads stop at the magic: every later read is bounded by the file's size (0 here)
    done = _capped_cli(["sample", "--ckpt", "/dev/zero", "--out", str(tmp_path / "x.ppm")])
    assert done.returncode == cli.EXIT_CHECKPOINT, done.stderr
    assert "Traceback" not in done.stderr


# header sizes: 10^10 pixels declared by a 33-byte file, and sizes that are not positive integers
HOSTILE_IMAGE_SIZES = {"huge": b"100000 100000", "non_integer": b"ab 2", "negative": b"-1 -1", "zero": b"0 0",
                       "truncated": b"12"}  # "255" is read as the height, and the file ends inside maxval


@pytest.mark.parametrize("flag,magic", [("--image", b"P6"), ("--mask", b"P5")])
@pytest.mark.parametrize("name", sorted(HOSTILE_IMAGE_SIZES))
def test_hostile_image_header_exits_3_without_traceback(tmp_path, toy_run, name, flag, magic):
    _, run_dir = toy_run
    hostile = tmp_path / "hostile.pnm"
    hostile.write_bytes(magic + b"\n" + HOSTILE_IMAGE_SIZES[name] + b"\n255\n" + bytes(12))
    out = tmp_path / "x.ppm"
    done = _capped_cli(["sample", "--ckpt", os.path.join(run_dir, "model.ckpt"), flag, str(hostile),
                        "--out", str(out)])
    assert done.returncode == cli.EXIT_DATA, done.stderr
    assert "BadImageFile" in done.stderr and "Traceback" not in done.stderr
    assert not out.exists()


def test_eval_runs_and_is_deterministic(tmp_path, toy_run):
    data, run_dir = toy_run
    ckpt = os.path.join(run_dir, "model.ckpt")
    reports = []
    for name in ("e1", "e2"):
        out = str(tmp_path / name)
        assert run(["eval", "--ckpt", ckpt, "--data", data, "--n", "3",
                    "--steps", "3", "--seed", "2", "--out", out]) == 0
        reports.append(open(os.path.join(out, "report.json")).read())
    assert reports[0] == reports[1]
    assert tree_bytes(tmp_path / "e1") == tree_bytes(tmp_path / "e2")


def test_eval_of_no_samples_exits_2_and_writes_no_report(tmp_path, toy_run, monkeypatch, capsys):
    data, run_dir = toy_run
    monkeypatch.setattr(TR, "load_checkpoint", lambda *a, **k: pytest.fail("the checkpoint was read"))
    out = tmp_path / "none"
    assert run(["eval", "--ckpt", run_dir + "/model.ckpt", "--data", data, "--n", "0",
                "--out", str(out)]) == cli.EXIT_USAGE
    assert "error: argument --n: must be in [1, inf], got 0\n" in capsys.readouterr().err
    assert not out.exists()


def test_eval_failing_at_a_later_image_exits_3_and_leaves_no_out(tmp_path, toy_run, monkeypatch, capsys):
    data, run_dir = toy_run
    calls = []

    def second_image_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise NonFinite("3 of 432 image values are not finite after 2 steps")
        return ddim_sample(*args, **kwargs)

    monkeypatch.setattr(EV, "ddim_sample", second_image_fails)
    for out in (tmp_path / "rep", tmp_path / "new" / "parent" / "rep"):  # missing parents are made, then removed
        calls.clear()
        assert run(["eval", "--ckpt", run_dir + "/model.ckpt", "--data", data, "--n", "3", "--steps", "2",
                    "--out", str(out)]) == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "NonFinite:" in err[0], err
        assert len(calls) == 2 and os.listdir(tmp_path) == []


KILL_AT_SECOND_IMAGE = """
import os, signal, sys
from outpaint import cli, evaluation as EV
real, calls = EV.ddim_sample, []
def kill_at_second_image(*args, **kwargs):
    calls.append(1)
    if len(calls) == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(*args, **kwargs)
EV.ddim_sample = kill_at_second_image
sys.exit(cli.main(sys.argv[1:]))
"""


def test_a_killed_eval_leaves_its_partial_and_the_rerun_refuses_it(tmp_path, toy_run, capsys):
    data, run_dir = toy_run
    argv = ["eval", "--ckpt", run_dir + "/model.ckpt", "--data", data, "--n", "3", "--steps", "2",
            "--out", str(tmp_path / "rep")]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__)), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", KILL_AT_SECOND_IMAGE, *argv], env=env, timeout=300)
    assert done.returncode == -signal.SIGKILL
    assert os.listdir(tmp_path) == ["rep.partial"] and os.listdir(tmp_path / "rep.partial") == ["gen_00000.ppm"]
    before = tree_bytes(tmp_path)
    assert run(argv) == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"{tmp_path / 'rep.partial'}: left by an interrupted write" in err[0], err
    assert tree_bytes(tmp_path) == before


def test_eval_swapped_mode(tmp_path, toy_run):
    data, run_dir = toy_run
    out = str(tmp_path / "sw")
    assert run(["eval", "--ckpt", run_dir + "/model.ckpt", "--data", data, "--n", "2",
                "--mode", "swapped", "--steps", "3", "--seed", "2", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "report.txt"))


def test_eval_clips_n_to_the_dataset_in_every_mode(tmp_path, toy_run, capsys):
    _, run_dir = toy_run
    data = str(tmp_path / "five")
    assert run(["gen-data", "--out", data, "--n", "5", "--seed", "3",
                "--image-size", "12", "--center-size", "8"]) == 0
    for mode in ("dataset", "swapped"):
        capsys.readouterr()
        assert run(["eval", "--ckpt", run_dir + "/model.ckpt", "--data", data, "--n", "10",
                    "--mode", mode, "--steps", "2", "--out", str(tmp_path / mode)]) == 0, mode
        assert "n_samples = 5\n" in capsys.readouterr().out, mode


@pytest.mark.parametrize("argv", [
    ["gen-data", "--n", "0"],
    ["gen-data", "--n", "-3"],
    ["ablate", "--eval-n", "0"] + TOY_SETTINGS,
    ["eval", "--n", "0"],
    ["sample", "--steps", "0"],
    ["eval", "--steps", "-1"],
])
def test_count_flags_below_1_exit_2_and_write_nothing(tmp_path, toy_run, monkeypatch, argv):
    monkeypatch.setattr(TR, "run_training", lambda *a, **k: pytest.fail("an ablation arm trained"))
    monkeypatch.setattr(TR, "load_checkpoint", lambda *a, **k: pytest.fail("the checkpoint was read"))
    out = tmp_path / "out"
    data, run_dir = toy_run
    inputs = {"gen-data": [], "ablate": ["--data", data], "sample": ["--ckpt", run_dir + "/model.ckpt"],
              "eval": ["--ckpt", run_dir + "/model.ckpt", "--data", data]}[argv[0]]
    assert run(argv + inputs + ["--out", str(out)]) == cli.EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen-data", "--n", "2", "--seed", "-1"],
    ["gen-data", "--n", "2", "--uncond-fraction", "2"],
    ["gen-data", "--n", "2", "--uncond-fraction", "nan"],
    ["gen-data", "--n", "2", "--image-size", "13"],
    ["gen-data", "--n", "2", "--center-size", "0"],
    ["gen-data", "--n", "2", "--image-size", "393216"],
    ["sample", "--seed", "-1"],
    ["eval", "--seed", "-1"],
    ["train", "--seed", "-1"],
    ["train", "--uncond-fraction", "5"],
    ["train", "--a-mode", "constant:nan"],
    ["train", "--a-mode", "constant:inf"],
], ids=" ".join)
def test_bad_seed_fraction_or_geometry_flag_exits_2_and_writes_nothing(tmp_path, toy_run, argv):
    data, run_dir = toy_run
    inputs = {"gen-data": [], "sample": ["--ckpt", run_dir + "/model.ckpt"],
              "eval": ["--ckpt", run_dir + "/model.ckpt", "--data", data],
              "train": ["--data", data] + TOY_FLAGS}[argv[0]]
    out = tmp_path / "out"
    assert run(argv + inputs + ["--out", str(out)]) == cli.EXIT_USAGE
    assert not out.exists()


BAD_NUMBERS = ("-1", "nan", "inf", "-inf", "", "1e400", "x")
REQUIRED = {"gen-data": ["--n", "1"], "train": ["--data", "d"], "sample": ["--ckpt", "m.ckpt"],
            "eval": ["--ckpt", "m.ckpt", "--data", "d"], "ablate": ["--data", "d"]}  # all but --out


def numeric_flags():
    """Every (command, option) whose value is a number, read from the parser ``main`` uses: an
    option with an argparse type, or a config flag of an int or float TrainConfig field."""
    numbers = {f"cfg_{f.name}" for f in dataclasses.fields(TR.TrainConfig) if f.type in ("int", "float")}
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, a.option_strings[-1]) for command, p in sub.choices.items() for a in p._actions
            if a.type is not None or a.dest in numbers]


def test_every_bad_numeric_flag_value_exits_2_before_any_file_is_read(tmp_path, monkeypatch, capsys):
    class FileRead(Exception):
        pass

    def read(*args, **kwargs):
        raise FileRead

    for module, name in ((TR, "load_checkpoint"), (SD, "load_dataset"), (SD, "build_dataset"),
                         (TR, "run_training")):
        monkeypatch.setattr(module, name, read)
    flags = numeric_flags()
    assert {command for command, _ in flags} == set(REQUIRED)
    assert ("sample", "--steps") in flags and ("eval", "--steps") in flags and ("train", "--grad-clip") in flags
    failures = []
    for i, (command, flag) in enumerate(flags):
        for token in BAD_NUMBERS:
            out = tmp_path / f"out{i}{token}"
            try:
                code = run([command, *REQUIRED[command], f"{flag}={token}", "--out", str(out)])
            except FileRead:
                code = "a file was read"
            if code != cli.EXIT_USAGE or "Traceback" in capsys.readouterr().err or out.exists():
                failures.append(f"{command} {flag}={token}: {code}")
    assert not failures, failures
    assert not os.listdir(tmp_path)


def test_usage_errors_exit_2():
    assert run([]) == cli.EXIT_USAGE
    assert run(["gen-data"]) == cli.EXIT_USAGE  # missing required flags
    assert run(["train", "--data", "x", "--out", "y", "--bogus"]) == cli.EXIT_USAGE


def test_ablate_smoke(tmp_path, toy_run):
    data, _ = toy_run
    out = str(tmp_path / "ab")
    code = run(["ablate", "--data", data, "--out", out, "--eval-n", "2"] + TOY_SETTINGS)
    assert code == 0
    text = open(os.path.join(out, "ablation.tsv")).read()
    assert text.splitlines()[0].startswith("a_mode")
    assert len(text.splitlines()) == 4
    rows = list(csv.DictReader(io.StringIO(text), delimiter="\t"))
    assert [r["a_mode"] for r in rows] == list(TR.ABLATION_MODES)
    for row in rows:
        assert None not in row and None not in row.values()  # as many fields as the header names
        assert int(row["n_samples"]) == 2
        for f in dataclasses.fields(EV.EvalReport):
            float(row[f.name])


def test_failed_ablate_exits_3_and_leaves_no_out(tmp_path, toy_run, capsys):
    out = tmp_path / "ab"
    flags = TOY_SETTINGS + ["--learning-rate", "1e200"]
    assert run(["ablate", "--data", toy_run[0], "--out", str(out), "--eval-n", "2"] + flags) == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "NonFinite: step 2:" in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["file", "non-empty directory"])
def test_ablate_into_a_used_out_exits_3_before_any_arm_trains(tmp_path, toy_run, monkeypatch, capsys, kind):
    monkeypatch.setattr(TR, "run_training", lambda *a, **k: pytest.fail("an ablation arm trained"))
    out = tmp_path / "ab"
    if kind == "file":
        out.write_text("x")
    else:
        out.mkdir()
        (out / "ablation.tsv").write_text("x")
    before = tree_bytes(tmp_path)
    assert run(["ablate", "--data", toy_run[0], "--out", str(out), "--eval-n", "2"] + TOY_SETTINGS) == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("outpaint: FileExistsError:"), err
    assert tree_bytes(tmp_path) == before
    assert sorted(os.listdir(tmp_path)) == ["ab"]
