"""tools/bench.py's statistics and pairing, on fixed harness records."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("bench", Path(__file__).resolve().parents[1] / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

BETTER = {"op_ms_p50": "lower", "items_per_s": "higher"}


def _record(ms, per_s, correct=True):
    return {"returncode": 0, "correct": correct, "env": {"seed": 0},
            "metrics": {"op_ms_p50": {"value": ms, "unit": "ms"}, "items_per_s": {"value": per_s, "unit": "1/s"}}}


def test_summarize_gives_median_inclusive_quartiles_and_n():
    assert bench.summarize([5.0, 1.0, 3.0, 2.0, 4.0]) == {"n": 5, "median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench.summarize([1.0, 2.0, 3.0, 10.0]) == {"n": 4, "median": 2.5, "q1": 1.75, "q3": 4.75}
    assert bench.summarize([7.0]) == {"n": 1, "median": 7.0, "q1": 7.0, "q3": 7.0}


def test_parse_run_reads_the_last_json_line_and_the_env_line():
    stdout = "\n".join([
        "workload train seed 1 seconds 1 trace 0",
        'env {"git_commit": "abc", "seed": 1}',
        "op_ms_p50 40 ms",
        json.dumps({"correct": True, "attempted": 9, "failed": 0,
                    "metrics": {"op_ms_p50": {"value": 40.0, "unit": "ms"}}}),
    ])
    run = bench.parse_run(stdout + "\n", 0)
    assert run["correct"] and run["env"] == {"git_commit": "abc", "seed": 1}
    assert run["metrics"]["op_ms_p50"] == {"value": 40.0, "unit": "ms"}
    assert (run["attempted"], run["failed"]) == (9, 0)
    assert not bench.parse_run(stdout, 1)["correct"]  # a non-zero exit is never correct
    assert bench.parse_run("Traceback ...\n", 1) == {"returncode": 1, "correct": False, "metrics": {}, "env": None}


def test_side_metrics_leave_out_runs_that_are_not_correct():
    runs = {1: _record(30.0, 9.0), 2: _record(10.0, 1.0), 3: _record(999.0, 0.0, correct=False)}
    got = bench.side_metrics(runs, BETTER)
    assert got["op_ms_p50"] == {"unit": "ms", "better": "lower", "n": 2, "median": 20.0,
                                "q1": 15.0, "q3": 25.0, "values": [30.0, 10.0]}
    assert got["items_per_s"]["values"] == [9.0, 1.0]


def test_wins_follow_each_metrics_direction_and_ties_count_for_neither():
    tree = {1: _record(10.0, 5.0), 2: _record(10.0, 5.0), 3: _record(10.0, 5.0), 4: _record(1.0, 99.0, correct=False)}
    against = {1: _record(11.0, 4.0), 2: _record(10.0, 5.0), 3: _record(9.0, 6.0), 4: _record(50.0, 0.0)}
    assert bench.count_wins(tree, against, BETTER) == {"op_ms_p50": {"wins": 1, "pairs": 3},
                                                       "items_per_s": {"wins": 1, "pairs": 3}}


def test_collect_alternates_the_first_side_and_lists_runs_not_correct():
    calls = []

    def fake_run(root, workload, seed, seconds):
        calls.append((root.name, seed))
        return _record(10.0 if root.name == "t" else 12.0, 1.0, correct=(root.name, seed) != ("a", 3))

    report = bench.collect({"tree": Path("t"), "against": Path("a")}, ["train"], [1, 2, 3], 1.0, BETTER, run=fake_run)
    assert calls == [("t", 1), ("a", 1), ("a", 2), ("t", 2), ("t", 3), ("a", 3)]
    assert [(r["side"], r["seed"]) for r in report["not_correct"]] == [("against", 3)]
    train = report["workloads"]["train"]
    assert train["tree"]["op_ms_p50"]["n"] == 3 and train["against"]["op_ms_p50"]["n"] == 2
    assert train["wins"]["op_ms_p50"] == {"wins": 2, "pairs": 2}
    assert report["env"] == {"tree": {"seed": 0}, "against": {"seed": 0}}


@pytest.mark.parametrize("argv", [["--seeds", "0"], ["--seconds", "0"], ["--seeds", "x"],
                                  ["--against", "no-such-rev"]])
def test_bad_arguments_exit_2_before_any_run(argv, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a harness run started")

    monkeypatch.setattr(bench, "run_harness", no_run)
    with pytest.raises(SystemExit) as exc:
        bench.main(argv)
    assert exc.value.code == 2
    if argv[0] == "--against":
        assert "--against no-such-rev: rev-parse failed" in capsys.readouterr().err
