"""Benchmark command for the outpaint engine.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Runs one workload (see perfbench/README.md) in this process with OpenBLAS
pinned to one thread, prints every metric with its unit and, as the last
line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.
The full record, with the environment, goes to perfbench/out/.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # must be set before numpy is imported

import argparse
import hashlib
import json
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
SRC = ROOT / "src" / "outpaint"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("train", "train_large", "eval"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def source_digest() -> str:
    """SHA-256 over the program's source files, in name order."""
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    """HEAD of the repository rooted here, or "unknown" outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def check_repeat_counts(workload: str, digest: str, counts: dict) -> list[str]:
    """Compare exact per-op counts with earlier runs of the same source.

    Earlier runs' counts live in perfbench/out/counts.json, keyed by
    workload and source digest; new keys are added, differing ones reported.
    """
    path = OUT / "counts.json"
    try:
        known = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        known = {}
    seen = known.setdefault(f"{workload}@{digest}", {})
    problems = [f"{name} = {value} per op, an earlier run had {seen[name]}"
                for name, value in counts.items() if name in seen and seen[name] != value]
    if not problems:
        seen.update(counts)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC.parent), str(ROOT)]
    import outpaint

    if Path(outpaint.__file__).resolve().parent != SRC:
        print(f"perfbench: imported outpaint from {outpaint.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    env = environment(args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT, prefix=f"scratch-{args.workload}-")
    try:
        result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result.problems += check_repeat_counts(args.workload, env["source_sha256"], result.exact_counts)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if result.spans is not None:
        result.spans.save(OUT / f"{tag}-spans.npz")
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace, "env": env,
        "attempted": result.attempted, "failed": result.failed,
        "failure_rate": result.failed / result.attempted, "problems": result.problems,
        "exact_counts": result.exact_counts, "aliases": result.aliases,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
        "raw": result.raw,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in result.metrics.items():
        alias = result.aliases.get(name)
        print(f"{name} {value:.6g} {unit}" + (f"  ({alias})" if alias else ""))
    print(f"attempted {result.attempted} failed {result.failed} "
          f"failure_rate {record['failure_rate']:.6g}")
    if result.raw:
        print("raw " + " ".join(f"{k} {v:.6g}" for k, v in result.raw.items()))
    for problem in result.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
