"""Smoke runs of the campaign scripts at toy sizes, and the benchmark pair
record's summary on synthetic runs."""

import hashlib
import importlib.util
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


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def paired_runs(workload, parent, change, hashes=None):
    """One parent and one change run per pair, the parent with ``parent[i]``
    and the change with ``change[i]`` as wall_norm_s."""
    hashes = hashes or ["h"] * len(parent)
    return [
        {"side": side, "workload": workload, "pair": i, "wall_norm_s": value,
         "attempted": 3, "failed": 0, "trace_sha256": ["h"] if side == "parent" else [hashes[i]]}
        for i, (p, c) in enumerate(zip(parent, change))
        for side, value in (("parent", p), ("change", c))
    ]


def test_bench_pairs_summary_applies_the_claim_rule():
    summarize = load_bench_pairs().summarize
    metrics, claimed = {"wall_norm_s": "lower"}, ("naive", "wall_norm_s")
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]

    def lower_in_9(by):
        return [x - by for x in parent[:9]] + [2.0]

    # Lower in 9 of 10 pairs by 0.45, exactly the parent's quartile spread.
    summary, claim = summarize(paired_runs("naive", parent, lower_in_9(0.45)), metrics, claimed)
    m = summary["naive"]["wall_norm_s"]
    assert m["parent_median"] == 1.45 and m["parent_quartiles"] == [1.225, 1.675]
    assert m["parent_iqr"] == 0.45 and m["change_median"] == 1.0
    assert (m["change_lower_pairs"], m["tied_pairs"], m["pairs"]) == (9, 0, 10)
    assert summary["naive"]["attempted"] == {"parent": 30, "change": 30}
    assert claim["median_gap"] == 0.45 and not claim["met"]
    change = lower_in_9(0.5)
    summary, claim = summarize(paired_runs("naive", parent, change), metrics, claimed)
    assert claim["met"] and claim["change_better_pairs"] == 9
    # A tie counts for neither side: lower in 8 of 10 misses nine tenths.
    tied = change[:8] + [parent[8], 2.0]
    assert not summarize(paired_runs("naive", parent, tied), metrics, claimed)[1]["met"]
    # A pair whose traces differ is left out of the summary and fails the claim.
    hashes = ["h"] * 9 + ["other"]
    summary, claim = summarize(paired_runs("naive", parent, change, hashes), metrics, claimed)
    assert summary["naive"]["rejected_pairs"] == [9] and not summary["naive"]["traces_match"]
    assert summary["naive"]["wall_norm_s"]["pairs"] == 9 and not claim["met"]
    # A metric better when higher counts the change's higher pairs.
    summary, claim = summarize(paired_runs("naive", change, parent), {"wall_norm_s": "higher"},
                               claimed)
    assert claim["change_better_pairs"] == 9 and claim["met"]
    # Fewer than ten pairs decide no claim, however clear: one lower pair here.
    summary, claim = summarize(paired_runs("naive", parent[:1], change[:1]), metrics, claimed)
    assert claim["change_better_pairs"] == 1 and claim["pairs"] == 1 and not claim["met"]
    # Nor does a change whose runs failed more operations than the parent's.
    runs = paired_runs("naive", parent, change)
    runs[1]["failed"] = 1
    summary, claim = summarize(runs, metrics, claimed)
    assert summary["naive"]["failed"] == {"parent": 0, "change": 1} and not claim["met"]
    runs[0]["failed"] = 1
    assert summarize(runs, metrics, claimed)[1]["met"]
