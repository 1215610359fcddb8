import contextlib
import gc
import io
import json
import math
import os
import runpy
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfdl import qos
from nfdl.cli import main
from nfdl.experiments import measure_cost
from nfdl.protocol import ProtocolConfig
from nfdl.simnet import MAX_PROCESSES, FaultEvent, NetworkModel, Scenario


def run_cli(*argv):
    return main(list(argv))


def test_run_writes_trace_metrics_and_summary(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--procs", "5", "--duration-ms", "20000", "--seed", "3",
        "--high-priority", "2", "--out", str(out),
    )
    assert code == 0
    assert (out / "trace_000.log").exists()
    assert (out / "metrics_000.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "report.txt").exists()
    assert "wrote 1 trace(s)" in capsys.readouterr().out


def test_run_repetitions_use_consecutive_seeds(tmp_path):
    out = tmp_path / "out"
    assert run_cli(
        "run", "--duration-ms", "8000", "--reps", "2", "--high-priority", "1",
        "--out", str(out),
    ) == 0
    t0 = (out / "trace_000.log").read_text()
    t1 = (out / "trace_001.log").read_text()
    assert '"seed": 0' in t0
    assert '"seed": 1' in t1


def test_run_artifacts_are_byte_identical_across_invocations(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = [
        "run", "--duration-ms", "30000", "--seed", "11", "--loss-prob", "0.0175917",
        "--delay-var-ms2", "25.3356", "--delay-mean-ms", "5", "--high-priority", "0",
    ]
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    for name in ("trace_000.log", "metrics_000.csv", "summary.csv", "report.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


SCENARIO_FILE = {
    "version": 1,
    "n_processes": 3,
    "algorithm": "nfdl",
    "config": {"eta_ms": 330, "alpha_ms": 670, "window_n": 100},
    "network": {
        "loss_prob": 0.0, "delay_mean_ms": 5.0, "delay_var_ms2": 0.0,
        "delay_dist": "constant",
    },
    "faults": [],
    "duration_ms": 10000,
    "seed": 5,
    "high_priority": 1,
}


def test_run_accepts_a_scenario_file(tmp_path):
    out = tmp_path / "out"
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(SCENARIO_FILE))
    # None of these flags is a scenario flag.
    assert run_cli(
        "run", "--scenario", str(scenario_path), "--out", str(out), "--reps", "2",
        "--format", "csv", "--state-dir", str(tmp_path / "state"), "--t-d-max-ms", "900",
    ) == 0
    assert (out / "trace_001.log").exists()


@pytest.mark.parametrize("flags", [
    ["--procs", "9", "--algo", "naive"],
    ["--algo", "naive"],
    ["--seed", "5"],
    ["--duration-ms", "2000"],
    ["--window-n", "100"],
    ["--delay-dist", "constant"],
    ["--high-priority", "1"],
], ids=lambda flags: flags[0])
def test_run_rejects_scenario_flags_beside_a_scenario_file(tmp_path, capsys, flags):
    # The file describes the whole scenario, so a flag given beside it,
    # even at the file's own value, would be dropped without a word.
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(SCENARIO_FILE))
    out = tmp_path / "out"
    code = run_cli("run", "--scenario", str(scenario_path), *flags, "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {flags[0]}: cannot be combined with --scenario\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "section,key,value,field",
    [
        ("network", "delay_mean_ms", float("nan"), "network.delay_mean_ms"),
        ("network", "delay_var_ms2", float("nan"), "network.delay_var_ms2"),
        ("network", "delay_mean_ms", float("inf"), "network.delay_mean_ms"),
        ("config", "window_n", "x", "config.window_n"),
        ("config", "window_n", True, "config.window_n"),
        (None, "seed", -5, "seed"),
        (None, "seed", 2**64, "seed"),
        ("config", "eta_ms", 0, "config.eta_ms"),
        ("config", "alpha_ms", -1, "config.alpha_ms"),
        ("config", "window_n", 0, "config.window_n"),
        ("network", "delay_var_ms2", 2.0e10, "network.delay_var_ms2"),
    ],
    ids=["nan-mean", "nan-var", "inf-mean", "str-window", "bool-window",
         "negative-seed", "seed-2**64", "zero-eta", "negative-alpha", "zero-window",
         "oversized-normal"],
)
def test_run_rejects_a_malformed_scenario_with_exit_2(
    tmp_path, capsys, section, key, value, field
):
    data = {
        "n_processes": 3,
        "config": {"eta_ms": 330, "alpha_ms": 670, "window_n": 100},
        "network": {
            "loss_prob": 0.01, "delay_mean_ms": 5.0, "delay_var_ms2": 4.0,
            "delay_dist": "normal",
        },
        "duration_ms": 5000,
        "seed": 5,
    }
    (data[section] if section else data)[key] = value
    scenario_path = tmp_path / "bad.json"
    scenario_path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", str(scenario_path), "--out", str(out)) == 2
    assert f"error: {field}:" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_an_oversized_uniform_law_with_exit_2(tmp_path, capsys):
    # Support [0, 1.2e6): its delay table would exceed MAX_DELAY_TABLE.
    data = {
        "n_processes": 3,
        "config": {"eta_ms": 330, "alpha_ms": 670, "window_n": 100},
        "network": {
            "loss_prob": 0.01, "delay_mean_ms": 6.0e5, "delay_var_ms2": 1.2e11,
            "delay_dist": "uniform",
        },
        "duration_ms": 5000,
        "seed": 5,
    }
    scenario_path = tmp_path / "big.json"
    scenario_path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", str(scenario_path), "--out", str(out)) == 2
    assert "error: network.delay_var_ms2:" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_scenario_names_the_field(tmp_path, capsys):
    scenario_path = tmp_path / "bad.json"
    scenario_path.write_text(json.dumps({"n_processes": 5}))
    code = run_cli("run", "--scenario", str(scenario_path), "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "config" in err


def test_invalid_inline_flags_fail_with_diagnostics(capsys):
    code = run_cli("run", "--procs", "1", "--out", "/tmp/nfdl-nowhere")
    assert code == 2
    assert "n_processes" in capsys.readouterr().err


@pytest.mark.parametrize("flags, field", [
    (["--reps", "0"], "--reps"),
    (["--seed", str(2**64 - 1), "--reps", "2"], "seed"),
])
def test_run_checks_every_repetition_before_writing(tmp_path, capsys, flags, field):
    out = tmp_path / "out"
    code = run_cli("run", "--duration-ms", "1000", *flags, "--out", str(out))
    assert code == 2
    assert f"error: {field}:" in capsys.readouterr().err
    assert not out.exists()


def test_run_opens_the_state_dir_before_writing(tmp_path, capsys):
    not_a_dir, out = tmp_path / "f", tmp_path / "out"
    not_a_dir.touch()
    code = run_cli("run", "--duration-ms", "1000", "--state-dir", str(not_a_dir),
                   "--out", str(out))
    assert code == 1
    assert "File exists" in capsys.readouterr().err
    assert not out.exists()


# The key paths of a scenario file's to_dict().
KEY_PATHS = set(SCENARIO_FILE) | {
    f"{section}.{key}" for section in ("config", "network") for key in SCENARIO_FILE[section]
}


@pytest.mark.parametrize("flag, value, field", [
    ("--procs", "1", "n_processes"),
    ("--eta-ms", "0", "config.eta_ms"),
    ("--alpha-ms", "-1", "config.alpha_ms"),
    ("--window-n", "0", "config.window_n"),
    ("--loss-prob", "1.5", "network.loss_prob"),
    ("--delay-mean-ms", "nan", "network.delay_mean_ms"),
    ("--delay-var-ms2", "-1", "network.delay_var_ms2"),
    ("--seed", "-1", "seed"),
    ("--duration-ms", "0", "duration_ms"),
    ("--high-priority", "5", "high_priority"),
])
def test_run_names_the_file_key_of_a_bad_inline_flag(tmp_path, capsys, flag, value, field):
    out = tmp_path / "out"
    assert run_cli("run", flag, value, "--out", str(out)) == 2
    assert field in KEY_PATHS
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, field", [
    ("--procs", "1", "n_processes"),
    ("--duration-ms", "0", "duration_ms"),
    ("--eta-ms", "0", "config.eta_ms"),
    ("--alpha-ms", "-1", "config.alpha_ms"),
    ("--window-n", "0", "config.window_n"),
    ("--seed", "-1", "seed"),
])
def test_compare_cost_names_the_file_key_of_a_bad_flag(capsys, flag, value, field):
    args = {"--procs": "3", "--duration-ms": "5000", flag: value}
    assert run_cli("compare-cost", *(x for item in args.items() for x in item)) == 2
    assert field in KEY_PATHS
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


@pytest.mark.parametrize("argv", [
    ["run", "--duration-ms", "20000"],
    ["compare-cost", "--procs", "3"],
], ids=["run", "compare-cost"])
def test_a_window_past_any_index_size_runs(tmp_path, argv):
    # The schema bounds window_n below only, and the window keeps its bound
    # itself, so 2**63 runs like any other size.
    argv = [*argv, "--window-n", str(2**63)]
    if argv[0] == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert run_cli(*argv) == 0


@pytest.mark.parametrize("procs", [2**63, 2**63 - 1])
def test_a_process_count_past_the_key_layout_exits_2(tmp_path, capsys, procs):
    # A delivery run's int64 keys hold n below 2**21; a larger count fails
    # at the schema, before the simulator allocates a list of n.
    out = tmp_path / "out"
    code = run_cli("run", "--out", str(out), "--procs", str(procs),
                   "--eta-ms", str(2**63), "--duration-ms", "5000")
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: n_processes: must be within [2, {2**21 - 1}], got {procs}\n")
    assert list(tmp_path.iterdir()) == []


def test_a_value_error_inside_a_run_propagates(tmp_path, monkeypatch):
    # Only the named input and environment errors exit with a status; any
    # other exception is a bug and keeps its traceback.
    def broken(trace):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr(qos, "build_report", broken)
    with pytest.raises(ValueError, match="a bug, not bad input"):
        run_cli("run", "--duration-ms", "5000", "--out", str(tmp_path / "out"))


INLINE_RUNS = {
    "none": ([], Scenario(
        n_processes=5, config=ProtocolConfig(330, 670), network=NetworkModel(),
        duration=60_000, seed=0,
    )),
    "every-flag": ([
        "--procs", "4", "--eta-ms", "100", "--alpha-ms", "50", "--window-n", "10",
        "--loss-prob", "0.05", "--delay-mean-ms", "8", "--delay-var-ms2", "9",
        "--delay-dist", "uniform", "--seed", "7", "--duration-ms", "10000",
        "--algo", "nfdl", "--high-priority", "1",
    ], Scenario(
        n_processes=4, config=ProtocolConfig(100, 50, window_n=10),
        network=NetworkModel(0.05, 8.0, 9.0, "uniform"), duration=10_000, seed=7,
        high_priority=1,
    )),
    "naive": (["--algo", "naive", "--procs", "3", "--delay-var-ms2", "4",
               "--duration-ms", "10000"], Scenario(
        n_processes=3, config=ProtocolConfig(330, 670),
        network=NetworkModel(delay_var=4.0, delay_dist="normal"), duration=10_000,
        seed=0, algorithm="naive-reduction",
    )),
}


@pytest.mark.parametrize("name", sorted(INLINE_RUNS))
def test_inline_flags_run_as_their_scenario_file(tmp_path, name):
    # The inline flags are read as a scenario file's keys, so their run's
    # artifacts, trace header included, are the file's byte for byte.
    flags, scenario = INLINE_RUNS[name]
    path, inline, from_file = tmp_path / "scenario.json", tmp_path / "a", tmp_path / "b"
    scenario.dump(path)
    assert run_cli("run", *flags, "--out", str(inline)) == 0
    assert run_cli("run", "--scenario", str(path), "--out", str(from_file)) == 0
    names = sorted(p.name for p in inline.iterdir())
    assert names == sorted(p.name for p in from_file.iterdir())
    assert "trace_000.log" in names
    for artifact in names:
        assert (inline / artifact).read_bytes() == (from_file / artifact).read_bytes()


def test_run_checks_requirements_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("run", "--duration-ms", "1000", "--t-d-max-ms", "-5", "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err == "error: t_d_max_ms: must be within [1, inf], got -5\n"
    assert not out.exists()


REQUIREMENT_FLAGS = ("--t-d-max-ms", "--t-mr-min-ms", "--t-m-max-ms")


# --t-d-max-ms is the case above.
@pytest.mark.parametrize("flag", REQUIREMENT_FLAGS[1:])
def test_run_checks_each_requirement_flag_alone(tmp_path, capsys, flag):
    out = tmp_path / "out"
    code = run_cli("run", "--duration-ms", "1000", flag, "-5", "--out", str(out))
    assert code == 2
    key = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == f"error: {key}: must be within [1, inf], got -5\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", REQUIREMENT_FLAGS)
def test_configure_names_a_bad_requirement_flag(capsys, flag):
    assert run_cli("configure", flag, "0") == 2
    key = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == f"error: {key}: must be within [1, inf], got 0\n"


def test_any_requirement_flag_adds_the_bound_columns(tmp_path):
    def summary(*flags):
        out = tmp_path / "_".join(flags or ("none",))
        args = ("--duration-ms", "20000", "--high-priority", "0", "--out", str(out))
        assert run_cli("run", *args, *flags) == 0
        return (out / "summary.csv").read_text().splitlines()

    assert summary()[2:] == [
        "mistake_duration_ms,,,,", "detection_time_ms,,,,", "recovery_detection_ms,,,,",
    ]
    # The requirements not given take the suite's operating point.
    bounds = [line.rsplit(",", 1)[1] for line in summary("--t-m-max-ms", "700")[1:]]
    assert bounds == ["2.777777778e-07", "700", "1000", "1000"]


def test_state_dir_persists_zerotimes(tmp_path):
    out = tmp_path / "out"
    state = tmp_path / "state"
    assert run_cli(
        "run", "--procs", "3", "--duration-ms", "5000", "--high-priority", "0",
        "--out", str(out), "--state-dir", str(state),
    ) == 0
    files = sorted(p.name for p in state.iterdir())
    assert files == ["zerotime.0", "zerotime.1", "zerotime.2"]
    assert (state / "zerotime.0").read_text() == "0\n"


@pytest.mark.parametrize(
    "raw", ["--5\n", "\u00b2\n", "\u0665\n"],
    ids=["double-minus", "superscript", "arabic-indic-digit"],
)
def test_run_exits_1_on_a_corrupt_zerotime_record(tmp_path, capsys, raw):
    state = tmp_path / "state"
    state.mkdir()
    (state / "zerotime.1").write_text(raw, encoding="utf-8")
    code = run_cli(
        "run", "--procs", "3", "--duration-ms", "5000",
        "--out", str(tmp_path / "out"), "--state-dir", str(state),
    )
    assert code == 1
    assert f"corrupt zerotime record {state / 'zerotime.1'}" in capsys.readouterr().err
    # The trace is streamed from the start of the run, but only a run that
    # succeeds leaves one, partial or whole.
    assert list((tmp_path / "out").iterdir()) == []


def test_run_exits_1_on_an_unreadable_zerotime_record(tmp_path, capsys):
    state = tmp_path / "state"
    (state / "zerotime.0").mkdir(parents=True)
    code = run_cli("run", "--procs", "2", "--duration-ms", "5000",
                   "--out", str(tmp_path / "out"), "--state-dir", str(state))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {state / 'zerotime.0'}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("algo", ["nfdl", "naive", "nfde-pair"])
def test_run_exits_2_on_a_zerotime_stored_after_the_start(tmp_path, capsys, algo):
    # Every node kind refuses the record where it is loaded, with one
    # message: the nfde-pair receiver never sends, so no send label would.
    state = tmp_path / "state"
    state.mkdir()
    (state / "zerotime.1").write_text("5000\n")
    code = run_cli("run", "--algo", algo, "--procs", "2", "--state-dir", str(state),
                   "--out", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err == (
        "error: process 1: clock reads 0, earlier than its stored zerotime 5000\n"
    )
    assert list((tmp_path / "out").iterdir()) == []


def test_run_memory_does_not_grow_with_duration(tmp_path):
    # nfdl, N=20, on the measured lossy network.  The estimator windows are
    # full after 100 heartbeats (33 s), but a run still warms up past that:
    # a sender's link-sample runs double in length up to 64 sends (21 s), and
    # each is clipped to the sends left before the end, so the run drawn at
    # about 42 s is whole only in a run of 63 s or more: a 45 s run peaks
    # lower than a 65 s one.  From about 65 s the peak is flat, and only a
    # list of the run's events (about 20 per eta) would make a longer run
    # peak higher.
    net = ("--loss-prob", "0.0175917", "--delay-mean-ms", "5",
           "--delay-var-ms2", "25.3356")

    def peak(duration_ms):
        out = tmp_path / str(duration_ms)
        # A full collection empties the interpreter's free lists, which
        # tracemalloc cannot see into: without it, how much of the
        # estimator windows' tuples each peak counts depends on what ran
        # before.
        gc.collect()
        tracemalloc.start()
        try:
            code = run_cli("run", "--procs", "20", *net,
                           "--duration-ms", str(duration_ms), "--out", str(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    peak(5_000)  # warm-up: lazy imports and caches of a first run and report
    short, long = peak(90_000), peak(360_000)
    assert long <= 1.1 * short, f"peaked at {long} B over 4x the {short} B run"


def test_compare_cost_table(capsys):
    assert run_cli("compare-cost", "--procs", "5", "--duration-ms", "15000") == 0
    out = capsys.readouterr().out
    naive_row = next(line for line in out.splitlines() if "naive" in line)
    nfdl_row = next(line for line in out.splitlines() if line.startswith("nfdl"))
    assert naive_row.split()[-2:] == ["20", "20"]
    assert nfdl_row.split()[-2:] == ["1", "1"]


def test_measure_cost_memory_does_not_grow_with_duration():
    # N=3, eta 20 ms, windows of 4: a sender's link-sample runs reach their
    # 64 rows by 2.6 s, so from the 3 s run on only the trace lines could
    # grow.  The runs' sends are counted batch by batch; kept, the lines of
    # the 12 s run peaked at 494 kB against 216 kB for the 3 s one.
    config = ProtocolConfig(20, 10, window_n=4)

    def peak(duration_ms):
        gc.collect()
        tracemalloc.start()
        try:
            rows = measure_cost(3, duration_ms, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [row["measured_per_eta"] for row in rows] == [1, 6]
        return peak

    peak(200)  # warm-up: lazy imports and caches of a first run
    short, long = peak(3_000), peak(12_000)
    assert long <= 1.1 * short, f"peaked at {long} B over 4x the {short} B run"


def test_compare_cost_rejects_tiny_n(capsys):
    assert run_cli("compare-cost", "--procs", "1") == 2
    assert "at least 2" in capsys.readouterr().err


def test_compare_cost_rejects_short_duration(capsys):
    assert run_cli("compare-cost", "--procs", "3", "--duration-ms", "1000") == 2
    assert "too short" in capsys.readouterr().err


def test_configure_derives_a_feasible_pair(capsys):
    code = run_cli(
        "configure", "--t-d-max-ms", "1000", "--loss-prob", "0.0175917",
        "--delay-var-ms2", "25.3356",
    )
    assert code == 0
    out = capsys.readouterr().out
    eta = int(out.split("eta_ms=")[1].split()[0])
    alpha = int(out.split("alpha_ms=")[1].split()[0])
    # alpha sits at its floor, ceil(8 * sqrt(25.3356)) = 41.
    assert (eta, alpha) == (959, 41)
    assert "ok:" in out


def test_configure_infeasible_requirements(capsys):
    code = run_cli("configure", "--t-d-max-ms", "10", "--delay-var-ms2", "25.3356")
    assert code == 2
    assert "cannot fit" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, field", [
    pytest.param("--delay-var-ms2", "inf", "delay_var_ms2",
                 id="--delay-var-ms2-inf-delay_var"),
    pytest.param("--delay-var-ms2", "-1", "delay_var_ms2",
                 id="--delay-var-ms2--1-delay_var"),
    ("--loss-prob", "7", "loss_prob"),
    pytest.param("--delay-mean-ms", "-5", "delay_mean_ms",
                 id="--delay-mean-ms--5-delay_mean"),
    ("--delay-var-ms2", "nan", "delay_var_ms2"),
    ("--delay-var-ms2", "1e308", "delay_var_ms2"),
    ("--delay-mean-ms", "1e308", "delay_mean_ms"),
    ("--loss-prob", "nan", "loss_prob"),
])
def test_configure_rejects_a_malformed_network(capsys, flag, value, field):
    assert run_cli("configure", flag, value) == 2
    assert capsys.readouterr().err.startswith(f"error: network.{field}:")


@pytest.mark.parametrize("flags, message", [
    (("--eta-ms", "0", "--alpha-ms", "5"), "config.eta_ms: must be within [1, inf], got 0"),
    (("--eta-ms", "330", "--alpha-ms", "-1"),
     "config.alpha_ms: must be within [0, inf], got -1"),
    (("--eta-ms", "330"), "config.alpha_ms: missing required field"),
    (("--alpha-ms", "670"), "config.eta_ms: missing required field"),
], ids=["eta-0", "alpha-minus-1", "eta-alone", "alpha-alone"])
def test_configure_validation_mode_names_the_config_key(capsys, flags, message):
    # The pair is read as a scenario file's config keys, before any audit.
    assert run_cli("configure", *flags) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


# With the requirement, network and validation-mode cases above, every flag
# of configure has a malformed value that exits 2 without a traceback.
@pytest.mark.parametrize("flags", [
    ("--margin-k", "1e308", "--delay-var-ms2", "25"),
    ("--window-n", "5"),
], ids=["margin-k", "window-n"])
def test_configure_rejects_an_unknown_flag(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        run_cli("configure", *flags)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags[:2])}" in capsys.readouterr().err


def test_configure_validation_mode_accepts_the_field_pair(capsys):
    code = run_cli(
        "configure", "--t-d-max-ms", "1000", "--eta-ms", "330", "--alpha-ms", "670",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "validating" in out and "ok:" in out


def test_configure_validation_mode_rejects_bad_pairs(capsys):
    code = run_cli(
        "configure", "--t-d-max-ms", "1000", "--eta-ms", "500", "--alpha-ms", "600",
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "violated" in captured.out
    assert captured.err == (
        "error: config: detection bound violated: eta + alpha = 1100 ms > t_d_max = 1000 ms\n")


def test_run_scores_a_mistake_corrected_and_reopened_in_one_instant(tmp_path):
    # Monitor 0's output goes 2 -> 0 -> 2 -> 1 at 490 ms: one mistake, not a
    # refusal to score the run.
    path, out = tmp_path / "scenario.json", tmp_path / "out"
    cycles = ((1, 1_225, 4_033), (0, 1_765, 4_156), (2, 4_788, 4_838))
    Scenario(
        n_processes=3, config=ProtocolConfig(20, 5, window_n=1),
        network=NetworkModel(0.05, 40.0, 900.0, "normal"), duration=5_000, seed=0,
        faults=tuple(
            fault for pid, down, up in cycles
            for fault in (FaultEvent(down, pid, "crash"), FaultEvent(up, pid, "recover"))
        ),
    ).dump(path)
    assert run_cli("run", "--scenario", str(path), "--out", str(out)) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "metrics_000.csv", "report.txt", "summary.csv", "trace_000.log",
    ]


def test_scenario_flag_for_missing_file(capsys):
    assert run_cli("run", "--scenario", "/does/not/exist.json", "--out", "/tmp/x") == 2
    assert "no such file" in capsys.readouterr().err


def test_run_without_a_true_leader_writes_the_trace_and_no_metrics(tmp_path, capsys):
    # nfde-pair outputs a verdict, not a leader, so a fail-free run has no
    # true leader to score against: the run still succeeds.
    code = run_cli("run", "--algo", "nfde-pair", "--procs", "2",
                   "--duration-ms", "5000", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "trace_000.log").exists()
    assert not (tmp_path / "metrics_000.csv").exists()
    assert "0 metric report(s)" in capsys.readouterr().out


# -- every command line exits 0, 1 or 2 -------------------------------------

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# Ints at and past the schema's bounds, and values that are no number.
BOUNDS = (0, 1, 2**63 - 1, 2**63, 2**64 - 1)
MALFORMED = st.sampled_from(["", "x", "1.5", "0x10", "nan", "-", "--procs"])
# Paths under TMP, the example's own directory, which holds a regular file
# "file" and a scenario file "scenario.json".
OUT = st.sampled_from(["TMP/out", "TMP/file/out"])


def mostly(common, rare):
    """A flag value, five times in six drawn from ``common``."""
    return st.sampled_from([common] * 5 + [rare]).flatmap(lambda values: values).map(str)


def ints(lo, hi, *bounds):
    return mostly(st.integers(lo, hi), st.sampled_from(bounds))


def floats(lo, hi):
    return mostly(st.floats(lo, hi), st.sampled_from([-1.0, math.nan, math.inf, 1e308]))


def flags(draw, **values):
    """The argv of each flag in ``values`` that is drawn to be given."""
    given = draw(st.fixed_dictionaries({}, optional=values))
    return [x for key, value in given.items() for x in (f"--{key.replace('_', '-')}", value)]


@st.composite
def well_formed_command_lines(draw):
    """``nfdl`` or a script's name, and an argv for it.  Every run it could
    start is tiny: at most 6 processes, 10 s and 200 sends per process, one
    repetition and one speed cycle; a larger value fails at the gate."""
    program = draw(st.sampled_from(["nfdl", "run_qos_experiments.py", "sweep_message_cost.py"]))
    eta = draw(ints(1, 1000, *BOUNDS))
    cap = min(10_000, 200 * int(eta)) if int(eta) > 0 else 10_000
    # Long runs first: a short one has no steady state to measure cost in.
    longest_first = st.integers(0, cap - 1).map(lambda k: cap - k)
    duration = draw(mostly(longest_first, st.sampled_from([0, -1])))
    procs = ints(2, 6, *BOUNDS)
    config = dict(eta_ms=st.just(eta), alpha_ms=ints(0, 1000, *BOUNDS))
    network = dict(loss_prob=floats(0.0, 1.0), delay_mean_ms=floats(0.0, 100.0),
                   delay_var_ms2=floats(0.0, 2500.0))
    requirements = {key: ints(1, 10**7, *BOUNDS)
                    for key in ("t_d_max_ms", "t_mr_min_ms", "t_m_max_ms")}
    seed = ints(0, 2**64 - 1, *BOUNDS, 2**64)
    if program == "run_qos_experiments.py":
        count = draw(mostly(st.just(1), st.just(0)))
        hours = draw(mostly(st.floats(1e-4, 10 / 3600), st.sampled_from([0.0, math.inf])))
        return program, ["--out", draw(OUT), "--accuracy-reps", count, "--speed-cycles", count,
                         "--accuracy-hours", hours, *flags(draw, seed=seed)]
    if program == "sweep_message_cost.py":
        return program, ["--out", draw(OUT) + "/cost.csv", "--max-procs", draw(procs),
                         "--duration-ms", duration, *flags(draw, min_procs=procs, **config)]
    command = draw(st.sampled_from(["run", "compare-cost", "configure"]))
    if command == "configure":
        pair = ["--eta-ms", eta, "--alpha-ms", draw(config["alpha_ms"])]
        audit = pair if draw(st.booleans()) else []
        return program, [command, *audit, *flags(draw, **requirements, **network)]
    if command == "compare-cost":
        return program, [command, "--procs", draw(procs), "--duration-ms", duration,
                         *flags(draw, window_n=ints(1, 200, *BOUNDS), seed=seed, **config)]
    argv = [command, "--out", draw(OUT), *flags(
        draw, reps=mostly(st.just(1), st.sampled_from([0, 2**65])),
        format=st.sampled_from(["csv", "txt", "both"]),
        state_dir=st.sampled_from(["TMP/state", "TMP/file/state"]), **requirements)]
    if draw(st.booleans()):
        # A scenario file, alone or beside scenario flags.
        argv += ["--scenario", draw(st.sampled_from(["TMP/scenario.json", "TMP/none.json"]))]
        if draw(st.booleans()):
            return program, argv
    return program, [*argv, "--duration-ms", duration, *flags(
        draw, procs=procs, window_n=ints(1, 200, *BOUNDS), seed=seed,
        delay_dist=st.sampled_from(["constant", "uniform", "normal"]),
        algo=st.sampled_from(["nfdl", "nfde-pair", "naive"]), high_priority=ints(0, 5, *BOUNDS),
        **config, **network)]


@st.composite
def command_lines(draw):
    """A well-formed command line, or one with a value that is no number or
    no choice, or with a flag that no parser knows.  Paths stay under TMP."""
    program, argv = draw(well_formed_command_lines())
    values = [i for i in range(1, len(argv)) if argv[i - 1].startswith("--")
              and not argv[i].startswith("TMP")]
    how = draw(st.sampled_from(["as drawn"] * 4 + ["malformed", "unknown flag"]))
    if how == "malformed" and values:
        argv[draw(st.sampled_from(values))] = draw(MALFORMED)
    elif how == "unknown flag":
        argv.insert(draw(st.integers(1, len(argv))), "--no-such-flag")
    return program, argv


def files_under(path):
    return sorted((str(p), p.is_file() and p.read_bytes()) for p in path.rglob("*"))


@given(command_lines())
@settings(max_examples=100, deadline=None)
def test_every_command_line_exits_0_1_or_2_with_one_error_line(command_line):
    program, argv = command_line
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "file").write_text("")
        Scenario(n_processes=3, config=ProtocolConfig(100, 50), network=NetworkModel(),
                 duration=2_000, seed=1).dump(Path(tmp) / "scenario.json")
        argv = [arg.replace("TMP", tmp) for arg in argv]
        before = files_under(Path(tmp))
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            # A relative path lands under TMP too, where it is seen.
            mp.chdir(tmp)
            try:
                if program == "nfdl":
                    code = main(argv)
                else:
                    mp.setattr(sys, "argv", [program, *argv])
                    runpy.run_path(str(SCRIPTS / program), run_name="__main__")
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)
        if code:
            assert err.getvalue().count("\n") == 1
            assert err.getvalue().startswith("error:") and err.getvalue().endswith("\n")
        if code == 2:
            assert files_under(Path(tmp)) == before


def test_python_m_nfdl_runs_the_command_line(tmp_path):
    # The in-process tests call main(); this runs the package's __main__
    # and entrypoint, whose exit status is the command's.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def nfdl(*argv):
        return subprocess.run([sys.executable, "-m", "nfdl", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    done = nfdl("configure")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("eta_ms=1000 alpha_ms=0\n")
    done = nfdl("run", "--procs", "1", "--out", str(tmp_path / "out"))
    assert done.returncode == 2
    assert done.stderr == f"error: n_processes: must be within [2, {MAX_PROCESSES}], got 1\n"
    assert not (tmp_path / "out").exists()
