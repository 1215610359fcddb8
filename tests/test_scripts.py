"""Smoke runs of the campaign scripts at toy sizes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nfdl.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


# sha256 of every file the toy campaign writes: traces, per-run metrics,
# pooled summary and text report.
CAMPAIGN_EXPECTED = {
    "accuracy_metrics_000.csv": "0503c27b2640be4acbbf2ed51eba216241c608a172cb6b36226628f528d972d1",
    "accuracy_trace_000.log": "00f579fc9ce4e1fd27a77511c19c80f348c7421d5d283aea26e1f11210e2b905",
    "report.txt": "f8accb13db55eb39a0e4c2fc2d2d33e516075094371f2e4afdfcb835ae0767d7",
    "speed_metrics.csv": "915544a8a0e67d823d1d8543672412f00ab8f0972f580a7f305f5ab017b7c062",
    "speed_trace.log": "92787001de32059ba8cd0a74261f7d4ab955cd89e348a013add6a3fb5899f49d",
    "summary.csv": "c3583d7998161e823b2dd0caab5f364c50088b67f32c376a3acbf604d0067ac0",
}


def test_qos_campaign_script_writes_summary_and_report(tmp_path):
    out = tmp_path / "qos"
    done = run_script(
        "run_qos_experiments.py", "--out", str(out), "--accuracy-reps", "1",
        "--accuracy-hours", "0.005", "--speed-cycles", "1", cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }
    assert got == CAMPAIGN_EXPECTED


def test_qos_campaign_script_names_the_key_of_a_bad_flag(tmp_path):
    out = tmp_path / "qos"
    done = run_script("run_qos_experiments.py", "--out", str(out),
                      "--accuracy-hours", "0", cwd=tmp_path)
    assert done.returncode == 2
    assert done.stderr == "error: duration_ms: must be within [1, inf], got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("hours", ["nan", "inf", "1e308"])
def test_qos_campaign_script_rejects_hours_with_no_finite_duration(tmp_path, hours):
    out = tmp_path / "qos"
    done = run_script("run_qos_experiments.py", "--out", str(out),
                      "--accuracy-hours", hours, cwd=tmp_path)
    assert done.returncode == 2
    assert done.stderr == (
        f"error: --accuracy-hours: must be finite in ms, got {float(hours)!r}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("flag, count", [("--accuracy-reps", "-2"), ("--speed-cycles", "0")])
def test_qos_campaign_script_rejects_a_count_that_selects_no_run(tmp_path, flag, count):
    out = tmp_path / "qos"
    done = run_script("run_qos_experiments.py", "--out", str(out), flag, count,
                      cwd=tmp_path)
    assert done.returncode == 2
    assert done.stderr == f"error: {flag}: must be >= 1, got {count}\n"
    assert not out.exists()


def test_qos_campaign_script_leaves_a_run_with_no_true_leader_unscored(tmp_path):
    # 360 ms is too short to elect a leader: the accuracy run keeps its trace
    # but gets no metrics CSV, and the pooled reports hold the speed run alone.
    out = tmp_path / "qos"
    done = run_script(
        "run_qos_experiments.py", "--out", str(out), "--accuracy-reps", "1",
        "--accuracy-hours", "0.0001", "--speed-cycles", "1", cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert "accuracy rep 0: seed=0 not scored: no unanimous final leader" in done.stdout
    assert sorted(p.name for p in out.iterdir()) == [
        "accuracy_trace_000.log", "report.txt", "speed_metrics.csv", "speed_trace.log",
        "summary.csv",
    ]
    runs = [line for line in (out / "report.txt").read_text().splitlines()
            if line.startswith("run ")]
    assert len(runs) == 1 and "true_leader=2" in runs[0]


def test_message_cost_script_writes_the_cost_csv(tmp_path):
    out = tmp_path / "message_cost.csv"
    done = run_script(
        "sweep_message_cost.py", "--max-procs", "3", "--duration-ms", "5000",
        "--out", str(out), cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    # The measured costs come from simulation, so the bytes are pinned.
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "11f57118ae9f50aa46eed5da0883b420a16e7482677b2aba232ee1cc354dcb35"
    )


def test_message_cost_script_names_the_key_of_a_bad_flag(tmp_path):
    out = tmp_path / "message_cost.csv"
    done = run_script("sweep_message_cost.py", "--eta-ms", "0", "--out", str(out),
                      cwd=tmp_path)
    assert done.returncode == 2
    assert done.stderr.startswith("error: config.eta_ms: ")
    assert not out.exists()


def test_message_cost_script_rejects_an_empty_process_range(tmp_path):
    out = tmp_path / "message_cost.csv"
    done = run_script("sweep_message_cost.py", "--min-procs", "5", "--max-procs", "3",
                      "--out", str(out), cwd=tmp_path)
    assert done.returncode == 2
    assert done.stderr == "error: --max-procs: must be >= --min-procs (5), got 3\n"
    assert not out.exists()


@pytest.mark.parametrize("name, out, args", [
    ("run_qos_experiments.py", "qos", ()),
    ("sweep_message_cost.py", "message_cost.csv", ("--max-procs", "2", "--duration-ms", "5000")),
])
def test_scripts_exit_1_on_an_out_under_a_regular_file(tmp_path, name, out, args):
    # A path under a file, not a permission bit, which root would ignore.
    blocker = tmp_path / "file"
    blocker.write_text("")
    done = run_script(name, "--out", str(blocker / out), *args, cwd=tmp_path)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith("error: ")
    assert blocker.read_text() == ""


def test_message_cost_script_fails_on_its_out_before_the_sweep(tmp_path):
    # The CSV's directory is made before the first process count runs, as
    # the campaign makes its --out before its first run.
    blocker = tmp_path / "file"
    blocker.write_text("")
    done = run_script("sweep_message_cost.py", "--max-procs", "2", "--duration-ms", "5000",
                      "--out", str(blocker / "cost.csv"), cwd=tmp_path)
    assert done.returncode == 1
    assert done.stdout == ""


def test_compare_cost_prints_nothing_before_it_fails(capsys):
    assert main(["compare-cost", "--procs", "3", "--duration-ms", "1000"]) == 2
    assert capsys.readouterr().out == ""
