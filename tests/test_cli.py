import filecmp
import os
import resource
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from outpaint import cli
from outpaint import ppm
from outpaint import synthdata as SD
from outpaint import trainer as TR


def run(argv):
    return cli.main(argv)


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


TOY_FLAGS = [
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
    "--checkpoint-every", "2",
]


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
                "--image-size", "15", "--center-size", "8"]) == cli.EXIT_DATA


def test_gen_data_irregular_masks(tmp_path):
    out = tmp_path / "irr"
    assert run(["gen-data", "--out", str(out), "--n", "4", "--seed", "2", "--irregular"]) == 0
    mask = ppm.read_pgm(out / "masks" / "00000.pgm")
    center_block = SD.make_center_mask(16, 8)
    assert not np.array_equal(mask, center_block)
    assert set(np.unique(mask)) <= {0.0, 1.0}


def test_train_writes_log_and_checkpoints(toy_run):
    _, run_dir = toy_run
    log_lines = open(os.path.join(run_dir, "train_log.tsv")).read().splitlines()
    assert len(log_lines) == 3
    step, loss, fusion = log_lines[-1].split("\t")
    assert step == "3" and float(loss) > 0
    assert os.path.exists(os.path.join(run_dir, "model.ckpt"))
    assert os.path.exists(os.path.join(run_dir, "ckpt_000002.bin"))


def test_non_finite_training_exits_3_and_keeps_only_finite_checkpoints(tmp_path, toy_run, capsys):
    data, _ = toy_run
    run_dir = tmp_path / "nan"
    flags = TOY_FLAGS + ["--learning-rate", "1e200", "--checkpoint-every", "1"]
    assert run(["train", "--data", data, "--out", str(run_dir)] + flags) == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "NonFiniteTraining: step 2:" in err[0], err
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
    assert "GeometryMismatch" in err and "sample 3" in err, err


def test_non_finite_sample_exits_3_and_writes_no_image(tmp_path, toy_run, capsys):
    data, _ = toy_run
    run_dir = tmp_path / "nan"
    flags = TOY_FLAGS + ["--learning-rate", "1e200", "--checkpoint-every", "1"]
    assert run(["train", "--data", data, "--out", str(run_dir)] + flags) == cli.EXIT_DATA
    capsys.readouterr()
    out = tmp_path / "out" / "x.ppm"
    assert run(["sample", "--ckpt", str(run_dir / "ckpt_000001.bin"), "--out", str(out)]) == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "NonFiniteImage" in err[0], err
    assert not out.exists()


def test_train_rejects_unknown_config_key(tmp_path, toy_run):
    data, _ = toy_run
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 1\n")
    code = run(["train", "--data", data, "--out", str(tmp_path / "r"), "--config", str(cfg)])
    assert code == cli.EXIT_USAGE


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


def _toy_checkpoint() -> tuple[bytes, bytes]:
    """Header and records of a real toy checkpoint; no tensor shape depends on
    t_steps, image_size or the prompt windows."""
    cfg = TR.TrainConfig(t_steps=10, image_size=12, patch_size=3, d_model=16, n_blocks=1, d_text=8,
                         l_center=4, l_surround=4)
    params = TR.init_model(cfg, SD.vocabulary())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "toy.ckpt")
        TR.save_checkpoint(params, TR.Adam(params.trainable_parameters(), lr=1e-3), cfg, path)
        with open(path, "rb") as fh:
            blob = fh.read()
    header = TR._config_header(cfg)
    return header, blob[len(_ckpt(header)):]


_TOY_HEADER, _TOY_RECORDS = _toy_checkpoint()

HOSTILE_CHECKPOINTS = {
    "huge_tensor_dims": _ckpt(
        _GOOD_HEADER,
        _ONE_RECORD + struct.pack("<I", 1) + b"x" + struct.pack("<5I", 4, *(2**31,) * 4),
    ),
    "header_line_without_equals": _ckpt(b"iterations\n"),
    "non_utf8_header": _ckpt(b"seed=\xff\xfe\n"),
    "non_utf8_tensor_name": _ckpt(_GOOD_HEADER, _ONE_RECORD + struct.pack("<I", 2) + b"\xff\xfe"),
    # a model of about 300 GiB declared by a header alone
    "huge_model_header": _ckpt(TR._config_header(TR.TrainConfig(d_model=100000)), struct.pack("<I", 0)),
    # sizes no tensor shape bounds, declared over the records of a real toy model
    "huge_t_steps": _ckpt(_TOY_HEADER.replace(b"t_steps=10\n", b"t_steps=8589934592\n"), _TOY_RECORDS),
    "huge_image_size": _ckpt(_TOY_HEADER.replace(b"image_size=12\n", b"image_size=393216\n"), _TOY_RECORDS),
    "huge_l_center": _ckpt(_TOY_HEADER.replace(b"l_center=4\n", b"l_center=8589934592\n"), _TOY_RECORDS),
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
                          text=True, env=env, preexec_fn=_cap_address_space)


@pytest.mark.parametrize("name", sorted(HOSTILE_CHECKPOINTS))
def test_hostile_checkpoint_exits_4_without_traceback(tmp_path, name):
    ckpt = tmp_path / "hostile.ckpt"
    ckpt.write_bytes(HOSTILE_CHECKPOINTS[name])
    done = _capped_cli(["sample", "--ckpt", str(ckpt), "--out", str(tmp_path / "x.ppm")])
    assert done.returncode == cli.EXIT_CHECKPOINT, done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("flag,value", [("--t-steps", "8589934592"), ("--image-size", "393216"),
                                        ("--l-center", "8589934592")])
def test_hostile_size_flag_exits_2_before_any_checkpoint(tmp_path, toy_run, flag, value):
    data, _ = toy_run
    run_dir = tmp_path / "run"
    flags = TOY_FLAGS + ["--checkpoint-every", "1", flag, value]
    done = _capped_cli(["train", "--data", data, "--out", str(run_dir)] + flags)
    assert done.returncode == cli.EXIT_USAGE, done.stderr
    assert "ceiling" in done.stderr and "Traceback" not in done.stderr
    assert not list(run_dir.glob("*.bin"))


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
HOSTILE_IMAGE_SIZES = {"huge": b"100000 100000", "non_integer": b"ab 2", "negative": b"-1 -1", "zero": b"0 0"}


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


def test_eval_of_no_samples_exits_3_and_writes_no_report(tmp_path, toy_run, capsys):
    data, run_dir = toy_run
    out = tmp_path / "none"
    assert run(["eval", "--ckpt", run_dir + "/model.ckpt", "--data", data, "--n", "0",
                "--out", str(out)]) == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "nothing to evaluate" in err[0], err
    assert not out.exists()


def test_eval_swapped_mode(tmp_path, toy_run):
    data, run_dir = toy_run
    out = str(tmp_path / "sw")
    assert run(["eval", "--ckpt", run_dir + "/model.ckpt", "--data", data, "--n", "2",
                "--mode", "swapped", "--steps", "3", "--seed", "2", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "report.txt"))


def test_usage_errors_exit_2():
    assert run([]) == cli.EXIT_USAGE
    assert run(["gen-data"]) == cli.EXIT_USAGE  # missing required flags
    assert run(["train", "--data", "x", "--out", "y", "--bogus"]) == cli.EXIT_USAGE


def test_ablate_smoke(tmp_path, toy_run):
    data, _ = toy_run
    out = str(tmp_path / "ab")
    code = run(["ablate", "--data", data, "--out", out, "--eval-n", "2"] + TOY_FLAGS)
    assert code == 0
    text = open(os.path.join(out, "ablation.tsv")).read()
    assert text.splitlines()[0].startswith("a_mode")
    assert len(text.splitlines()) == 4
