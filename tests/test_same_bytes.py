"""tools/same_bytes.py on a two-argv corpus, against copies of this source tree with one change each."""

import importlib.util
import shlex
import shutil
from pathlib import Path

_spec = importlib.util.spec_from_file_location("same_bytes", Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)

CORPUS = [
    ["gen-data", "--out", "d", "--n", "2", "--seed", "1", "--image-size", "12", "--center-size", "8"],
    ["gen-data", "--out", "d", "--n", "1"],  # a used --out: exit 3 and one stderr line
]

FLIP_LAST_BYTE = '''
_write_ppm = write_ppm


def write_ppm(path, img):
    _write_ppm(path, img)
    with open(path, "r+b") as fh:
        fh.seek(-1, 2)
        last = fh.read(1)[0]
        fh.seek(-1, 2)
        fh.write(bytes([last ^ 1]))
'''


def side(tmp_path, module=None, edit=None) -> Path:
    """A copy of this tree's ``src/``, with ``edit(text)`` applied to ``outpaint/<module>.py``."""
    root = tmp_path / "side"
    shutil.copytree(same_bytes.ROOT / "src" / "outpaint", root / "src" / "outpaint",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if module is not None:
        path = root / "src" / "outpaint" / f"{module}.py"
        path.write_text(edit(path.read_text()))
    return root


def test_identical_sides_report_nothing(tmp_path):
    assert same_bytes.compare(same_bytes.ROOT, side(tmp_path), CORPUS, {}) == []


def test_a_flipped_image_byte_is_reported_with_its_argv(tmp_path):
    lines = same_bytes.compare(same_bytes.ROOT, side(tmp_path, "ppm", lambda text: text + FLIP_LAST_BYTE), CORPUS, {})
    assert len(lines) == 1
    assert lines[0].startswith(f"differs: outpaint {shlex.join(CORPUS[0])}: files ")
    assert "d/images/00000.ppm" in lines[0].split()


def test_a_changed_stderr_line_is_reported(tmp_path):
    changed = side(tmp_path, "synthdata", lambda text: text.replace("exists and is not an empty", "exists and is no empty"))
    assert same_bytes.compare(same_bytes.ROOT, changed, CORPUS, {}) == [
        f"differs: outpaint {shlex.join(CORPUS[1])}: stderr"]
