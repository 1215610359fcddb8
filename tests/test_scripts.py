"""Smoke runs of the campaign scripts at toy sizes."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_qos_campaign_script_writes_summary_and_report(tmp_path):
    out = tmp_path / "qos"
    done = run_script(
        "run_qos_experiments.py", "--out", str(out), "--accuracy-reps", "1",
        "--accuracy-hours", "0.005", "--speed-cycles", "1", cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert (out / "summary.csv").exists()
    assert (out / "report.txt").exists()


def test_message_cost_script_writes_the_cost_csv(tmp_path):
    out = tmp_path / "message_cost.csv"
    done = run_script(
        "sweep_message_cost.py", "--max-procs", "3", "--duration-ms", "5000",
        "--out", str(out), cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert out.exists()
