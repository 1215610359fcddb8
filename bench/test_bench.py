"""Smoke tests of the benchmark, at a tiny workload length.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
from workloads import WORKLOADS

TINY = 0.02
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_prints_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv, scale=TINY) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_REPS * (1 + trace)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    printed = {line.split()[0] for line in lines if line.startswith("  ")}
    assert {name for name, _unit in run.RAW_TIMES} <= printed
    assert any(line.split()[:2] == ["failed_frac", "0"] for line in lines)
    assert sum("trace_sha256=" in line for line in lines) == result["attempted"]
    if trace:
        m = {name: v["value"] for name, v in result["metrics"].items()}
        assert 0 <= m["traced.unaccounted_s"] < 0.05 * m["traced.wall_s"]
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_reused_state_dir_counts_as_failed(tmp_path):
    sys.path.insert(0, str(run.ROOT / "src"))
    scenario = tmp_path / "scenario.json"
    WORKLOADS["churn"](1, TINY).dump(scenario)
    repdir = tmp_path / "rep"
    fresh = run.run_rep("churn", scenario, repdir, traced=False)
    reused = run.run_rep("churn", scenario, repdir, traced=False)
    assert fresh["failures"] == []
    assert any("zerotime writes" in f for f in reused["failures"])
    summary = run.summarize({"untraced": [fresh, reused], "traced": []})
    assert (summary["failed"], summary["attempted"]) == (1, 2)


def test_differing_trace_is_a_failure():
    reps = [{"failures": [], "trace_sha256": h} for h in ("a", "a", "b")]
    run.check_same_trace(reps)
    assert [bool(r["failures"]) for r in reps] == [False, False, True]


def test_refuses_to_run_without_the_program(tmp_path):
    for path in DECLARED["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        DECLARED["command"] + ["--workload", "accuracy", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_is_duration_minus_child_spans():
    rec = spans.SpanRecorder()
    inner = rec.wrap("inner", lambda k: sum(range(k)), outcome=lambda s: s == 0)
    outer = rec.wrap("outer", lambda: [inner(k) for k in range(3)])
    outer()
    outer()
    a = rec.arrays()
    names = [rec.names[i] for i in a["name_id"]]
    assert names.count("outer") == 2 and names.count("inner") == 6
    assert rec.outcomes == {"inner": 4, "outer": 0}
    top = a["parent"] == -1
    assert a["self_ns"].sum() == a["dur_ns"][top].sum()
    assert (a["self_ns"] >= 0).all()
    for i in range(len(rec)):
        kids = a["parent"] == i
        assert a["self_ns"][i] == a["dur_ns"][i] - a["dur_ns"][kids].sum()
