"""Collect perfbench's end-to-end metrics into one BENCH file.

    python tools/bench.py --seeds 10 --seconds 25                  # this checkout
    python tools/bench.py --seeds 10 --seconds 25 --against HEAD   # and HEAD, in pairs

Runs ``perfbench/run.py --trace 0`` in a subprocess with
``OPENBLAS_NUM_THREADS=1``, once per workload and seed (seeds 1 to N), and
writes ``BENCH_<n>.json`` (the next free n) or ``--out``. For every
end-to-end metric in ``BENCHMARK.json`` it records the median, quartiles, n
and each run's value in seed order; it also records the first run's ``env``
record and every run that was not ``correct``, which no statistic includes.

``--against REV`` unpacks ``git archive REV`` into a temporary directory and
runs it as a second side, the two sides taking turns to run first seed by
seed. Each metric then also gets ``wins``: the pairs (same workload and seed,
both correct) in which this checkout read better, out of ``pairs``; ties
count for neither side.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_run(stdout: str, returncode: int) -> dict:
    """One harness run's record: ``correct``, ``metrics`` (name -> value and unit), ``env``."""
    lines = stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"returncode": returncode, "correct": False, "metrics": {}, "env": None}
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return {"returncode": returncode, "correct": bool(last.get("correct")) and returncode == 0,
            "attempted": last.get("attempted"), "failed": last.get("failed"),
            "metrics": last.get("metrics", {}), "env": env}


def run_harness(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    record = parse_run(done.stdout, done.returncode)
    if not record["correct"]:
        record["output_tail"] = (done.stdout + done.stderr)[-2000:]
    return record


def summarize(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and n of a non-empty list."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def side_metrics(runs: dict[int, dict], better: dict[str, str]) -> dict:
    """Each end-to-end metric over a side's correct runs (seed -> record)."""
    out = {}
    for name, direction in better.items():
        got = [runs[seed]["metrics"][name] for seed in sorted(runs)
               if runs[seed]["correct"] and name in runs[seed]["metrics"]]
        if got:
            values = [m["value"] for m in got]
            out[name] = {"unit": got[0]["unit"], "better": direction, **summarize(values), "values": values}
    return out


def count_wins(tree: dict[int, dict], against: dict[int, dict], better: dict[str, str]) -> dict:
    """Per metric, the seeds where both sides ran correctly and ``tree`` read strictly better."""
    out = {}
    seeds = [s for s in sorted(tree) if s in against and tree[s]["correct"] and against[s]["correct"]]
    for name, direction in better.items():
        pairs = [(tree[s]["metrics"][name]["value"], against[s]["metrics"][name]["value"]) for s in seeds
                 if name in tree[s]["metrics"] and name in against[s]["metrics"]]
        wins = sum(a < b if direction == "lower" else a > b for a, b in pairs)
        out[name] = {"wins": wins, "pairs": len(pairs)}
    return out


def collect(sides: dict[str, Path], workloads: list[str], seeds: list[int], seconds: float,
            better: dict[str, str], run) -> dict:
    """Run every side on every workload and seed with ``run`` (``run_harness``'s
    signature), the first side alternating by seed."""
    runs = {side: {w: {} for w in workloads} for side in sides}
    for w in workloads:
        for i, seed in enumerate(seeds):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                print(f"bench: {side} {w} seed {seed}", file=sys.stderr, flush=True)
                runs[side][w][seed] = run(sides[side], w, seed, seconds)
    report = {
        "command": f"perfbench/run.py --trace 0 --seconds {seconds:g}", "OPENBLAS_NUM_THREADS": "1",
        "seeds": seeds,
        "env": {side: next((r["env"] for w in workloads for r in runs[side][w].values() if r["env"]), None)
                for side in sides},
        "workloads": {},
        "not_correct": [{"side": side, "workload": w, "seed": seed, **{k: v for k, v in r.items() if k != "env"}}
                        for side in sides for w in workloads for seed, r in runs[side][w].items()
                        if not r["correct"]],
    }
    for w in workloads:
        entry = {side: side_metrics(runs[side][w], better) for side in sides}
        if "against" in sides:
            entry["wins"] = count_wins(runs["tree"][w], runs["against"][w], better)
        report["workloads"][w] = entry
    return report


def unpack(rev: str, into: str) -> str:
    """Extract ``rev``'s committed files into ``into``; return its full commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return commit


def next_bench_path() -> Path:
    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10, help="seeds per workload, 1 to N (default 10)")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"],
                    help=f"--seconds of each run (default {bench['run_seconds']})")
    ap.add_argument("--against", metavar="REV", help="also run this git revision, in alternating pairs")
    ap.add_argument("--out", type=Path, help="output file (default: the next free BENCH_<n>.json here)")
    args = ap.parse_args(argv)
    if args.seeds < 1 or not args.seconds > 0:
        ap.error("--seeds must be >= 1 and --seconds > 0")
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    out = args.out or next_bench_path()
    with tempfile.TemporaryDirectory(prefix="bench-against-") as tmp:
        sides = {"tree": ROOT}
        if args.against:
            sides["against"] = Path(tmp)
            try:
                commit = unpack(args.against, tmp)
            except subprocess.CalledProcessError as exc:
                ap.error(f"--against {args.against}: {exc.cmd[3]} failed: {exc.stderr!r}")
        report = collect(sides, names, list(range(1, args.seeds + 1)), args.seconds, better, run_harness)
    if args.against:
        report["against"] = {"rev": args.against, "commit": commit}
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"bench: wrote {out}; {len(report['not_correct'])} runs not correct", file=sys.stderr)
    return 0 if not report["not_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
