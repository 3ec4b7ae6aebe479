"""Check that this checkout's CLI does byte for byte what a git revision's does.

    python tools/same_bytes.py --against HEAD

Unpacks ``git archive REV`` into a temporary directory (``tools/bench.py``'s
``unpack``). On each side, this checkout and REV, runs the ``CORPUS`` argvs
with ``python -m outpaint.cli``, in order, in a fresh temporary directory that
holds only the ``FILES`` fixtures, with ``PYTHONPATH`` set to that side's
``src/`` and ``OPENBLAS_NUM_THREADS=1``. For each argv it keeps the exit code,
stdout and stderr, with the temporary directory's path replaced by ``<tmp>``,
and the SHA-256 of every file the argv wrote, changed or removed. Prints one
line per argv that differs between the sides and exits 1 on any difference,
0 when there is none.

The corpus is the CI walkthrough at criterion 10's toy sizes, criterion 10's
argvs, and one argv per refusal kind.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PLACEHOLDER = "<tmp>"

TOY = ("--batch-size 2 --t-steps 10 --infer-steps 4 --image-size 12 --center-size 8 --patch-size 3"
       " --d-model 16 --n-blocks 1 --d-text 8 --l-center 4 --l-surround 4").split()
PROMPT = "Center:circle,red,large; Surrounding:solid,green,bright"

FILES = {
    # a checkpoint cut short inside its config header
    "bad.ckpt": b"OUTPAINT-CKPT-1\n" + struct.pack("<I", 400) + b"iterations=2\nbatch_size=2\n",
    "bad.cfg": b"iterations 3\n",  # no '='
    "bad.ppm": b"P7\n12 12\n255\n" + bytes(12 * 12 * 3),
}

CORPUS = [
    # the CI walkthrough
    ["gen-data", "--out", "d", "--n", "6", "--seed", "21", "--image-size", "12", "--center-size", "8",
     "--uncond-fraction", "0.2"],
    ["train", "--data", "d", "--out", "run", "--iterations", "2", *TOY],
    ["sample", "--ckpt", "bad.ckpt", "--steps", "0", "--out", "s0.ppm"],
    ["sample", "--ckpt", "run/model.ckpt", "--image", "d/images/00000.ppm", "--prompt", PROMPT, "--seed", "9",
     "--copy", "--out", "sample.ppm"],
    ["eval", "--ckpt", "run/model.ckpt", "--data", "d", "--n", "2", "--mode", "swapped", "--out", "report"],
    ["eval", "--ckpt", "run/model.ckpt", "--data", "d", "--n", "2", "--mode", "unconditional",
     "--out", "report_unconditional"],
    ["eval", "--ckpt", "run/model.ckpt", "--data", "d", "--n", "1", "--out", "report"],
    ["sample", "--ckpt", "run/model.ckpt", "--mask", "d/masks/00001.pgm", "--seed", "3", "--out", "sample_mask.ppm"],
    ["gen-data", "--out", "di", "--n", "4", "--seed", "5", "--image-size", "12", "--center-size", "8", "--irregular"],
    ["eval", "--ckpt", "run/model.ckpt", "--data", "di", "--n", "4", "--copy", "--out", "report_irregular"],
    ["ablate", "--data", "d", "--out", "ablation", "--eval-n", "2", "--iterations", "2", *TOY],
    ["ablate", "--data", "d", "--out", "ablation_refused", "--a-mode", "random", *TOY],
    # criterion 10
    ["gen-data", "--out", "c10/data", "--n", "12", "--seed", "21", "--image-size", "12", "--center-size", "8",
     "--uncond-fraction", "0.25"],
    ["train", "--data", "c10/data", "--out", "c10/train", "--iterations", "6", *TOY, "--checkpoint-every", "3"],
    ["sample", "--ckpt", "c10/train/model.ckpt", "--image", "c10/data/images/00000.ppm", "--prompt", PROMPT,
     "--seed", "9", "--copy", "--out", "c10/sample.ppm"],
    ["eval", "--ckpt", "c10/train/model.ckpt", "--data", "c10/data", "--n", "3", "--steps", "3", "--seed", "4",
     "--out", "c10/eval"],
    # one refusal of each kind
    ["train", "--data", "d", "--out", "refused_unread", "--uncond-fraction", "0.3", *TOY],
    ["train", "--data", "d", "--out", "refused_number", "--learning-rate", "nan", *TOY],
    ["train", "--data", "d", "--out", "refused_config", "--config", "bad.cfg", *TOY],
    ["sample", "--ckpt", "bad.ckpt", "--out", "refused_checkpoint.ppm"],
    ["train", "--data", "d", "--out", "run", "--iterations", "2", *TOY],
    ["sample", "--ckpt", "run/model.ckpt", "--image", "bad.ppm", "--out", "refused_ppm.ppm"],
]


def tree_hashes(root: Path) -> dict[str, str]:
    """SHA-256 of every file under ``root``, by its path relative to ``root``."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def run_side(side: Path, corpus: list[list[str]], files: dict[str, bytes]) -> list[dict]:
    """Run ``corpus`` with ``side/src`` on ``PYTHONPATH`` in a fresh directory
    holding ``files``; per argv, its exit code, stdout, stderr and the files it
    wrote, changed (path -> SHA-256) or removed (path -> None)."""
    env = dict(os.environ, PYTHONPATH=str(side / "src"), OPENBLAS_NUM_THREADS="1")
    records = []
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        work = Path(tmp).resolve()  # the path the CLI sees as its working directory
        for name, data in files.items():
            (work / name).write_bytes(data)
        before = tree_hashes(work)
        for argv in corpus:
            done = subprocess.run([sys.executable, "-m", "outpaint.cli", *argv], cwd=work, env=env,
                                  capture_output=True, text=True)
            after = tree_hashes(work)
            written = {path: sha for path, sha in after.items() if before.get(path) != sha}
            written.update({path: None for path in before if path not in after})
            records.append({"code": done.returncode, "files": written,
                            "stdout": done.stdout.replace(str(work), PLACEHOLDER),
                            "stderr": done.stderr.replace(str(work), PLACEHOLDER)})
            before = after
    return records


def compare(ours: Path, theirs: Path, corpus: list[list[str]], files: dict[str, bytes]) -> list[str]:
    """Run ``corpus`` on the two source trees; one line per argv whose records
    differ, naming the argv and what differs."""
    lines = []
    for argv, a, b in zip(corpus, run_side(ours, corpus, files), run_side(theirs, corpus, files)):
        what = [f"exit {a['code']} vs {b['code']}"] if a["code"] != b["code"] else []
        what += [name for name in ("stdout", "stderr") if a[name] != b[name]]
        paths = sorted(p for p in a["files"].keys() | b["files"].keys() if a["files"].get(p) != b["files"].get(p))
        what += [f"files {' '.join(paths)}"] if paths else []
        if what:
            lines.append(f"differs: outpaint {shlex.join(argv)}: {'; '.join(what)}")
    return lines


def main(argv=None) -> int:
    from bench import unpack  # tools/ is this script's directory, so first on its path

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="REV", required=True, help="the git revision to compare with")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-bytes-against-") as tmp:
        try:
            commit = unpack(args.against, tmp)
        except subprocess.CalledProcessError as exc:
            ap.error(f"--against {args.against}: {exc.cmd[3]} failed: {exc.stderr!r}")
        lines = compare(ROOT, Path(tmp), CORPUS, FILES)
    print("\n".join(lines) or f"same_bytes: no difference in {len(CORPUS)} argvs against {commit}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
