import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfdl import qos
from nfdl.protocol import ProtocolConfig
from nfdl.simnet import EventTrace, FaultEvent, NetworkModel, Scenario, run
from catalogue import CFG, LOSSY, QUIET


def make_trace(changes, faults=(), n=3, duration=100_000, high_priority=2):
    """Synthetic trace holding only an output history: changes is a list of
    (time, process, leader), kept in list order within an instant."""
    sc = Scenario(
        n_processes=n, config=CFG, network=QUIET, duration=duration, seed=0,
        faults=tuple(faults), high_priority=high_priority,
    )
    record = {pid: [] for pid in range(n)}
    for time, process, leader in sorted(changes, key=lambda c: c[0]):
        record[process].append((time, leader))
    return EventTrace(scenario=sc, output_changes=record)


def leader_faults(trace, leader=2):
    return [
        (f.at, f.kind) for _, f in trace.scenario.fault_order() if f.process == leader
    ]


def scores_of(trace, leader=2):
    timelines, faults = qos.output_timeline(trace), leader_faults(trace, leader)
    return {
        pid: qos.score_monitor(pid, timeline, leader, faults)
        for pid, timeline in timelines.items() if pid != leader
    }


def mistakes_of(trace):
    """Per monitor: (mistake instants, corrected durations, uncorrected count)."""
    return {
        pid: (m.mistake_times, m.durations, m.uncorrected)
        for pid, m in scores_of(trace).items()
    }


def speed_of(trace):
    scores = scores_of(trace)
    return (
        {pid: m.detection for pid, m in scores.items()},
        {pid: m.recovery for pid, m in scores.items()},
    )


# -- mistakes ------------------------------------------------------------------


def test_flip_away_and_back_is_one_mistake():
    trace = make_trace([(500, 0, 2), (1000, 0, 0), (1100, 0, 2)])
    records = mistakes_of(trace)
    assert records[0] == ([1000], [100], 0)
    assert records[1] == ([], [], 0)


def test_no_flips_means_no_mistakes():
    trace = make_trace([(500, 0, 2), (500, 1, 2)])
    records = mistakes_of(trace)
    assert records == {0: ([], [], 0), 1: ([], [], 0)}


def test_switch_after_leader_crash_is_a_detection_not_a_mistake():
    faults = [FaultEvent(2000, 2, "crash")]
    trace = make_trace([(500, 0, 2), (2800, 0, 0)], faults=faults)
    records = mistakes_of(trace)
    assert records[0] == ([], [], 0)


def test_mistake_open_at_crash_stays_uncorrected():
    faults = [FaultEvent(2000, 2, "crash")]
    trace = make_trace([(500, 0, 2), (1500, 0, 0)], faults=faults)
    records = mistakes_of(trace)
    assert records[0] == ([1500], [], 1)


def test_initial_adoption_is_not_a_departure():
    trace = make_trace([(900, 0, 2)])
    assert mistakes_of(trace)[0] == ([], [], 0)


def test_extraction_is_pure():
    trace = make_trace([(500, 0, 2), (1000, 0, 0), (1100, 0, 2)])
    timeline, faults = qos.output_timeline(trace)[0], leader_faults(trace)
    assert qos.score_monitor(0, timeline, 2, faults) == qos.score_monitor(
        0, timeline, 2, faults
    )


def test_mistake_corrected_and_reopened_in_one_instant_counts_once():
    trace = make_trace([(500, 0, 2), (1000, 0, 0), (1000, 0, 2), (1000, 0, 1)])
    assert mistakes_of(trace)[0] == ([1000], [], 1)


# -- rate and duration -----------------------------------------------------------


def test_mistake_rate_is_reciprocal_mean_gap():
    rate = qos.mistake_rate([1000, 2000, 4000])
    # direct evaluation of the defining formula
    gaps = [2000 - 1000, 4000 - 2000]
    assert rate == pytest.approx(1.0 / (sum(gaps) / len(gaps)))
    assert rate == pytest.approx(1.0 / 1500)


def test_mistake_rate_degenerate_cases_are_zero():
    assert qos.mistake_rate([]) == 0.0
    assert qos.mistake_rate([5000]) == 0.0


def test_mistake_rate_rejects_unsorted_input():
    with pytest.raises(ValueError):
        qos.mistake_rate([2000, 1000])


def test_mistake_duration_mean():
    trace = make_trace([
        (500, 0, 2), (1000, 0, 0), (1100, 0, 2), (2000, 0, 1), (2300, 0, 2),
    ])
    m = scores_of(trace)[0]
    assert m.durations == [100, 300]
    assert m.mean_duration == 200.0


def test_mistake_duration_instant_correction():
    trace = make_trace([(500, 0, 2), (1000, 0, 0), (1000, 0, 2)])
    m = scores_of(trace)[0]
    assert (m.mistake_times, m.durations, m.mean_duration) == ([1000], [0], 0.0)


def test_mistake_duration_absent_when_mistake_free():
    assert scores_of(make_trace([(500, 0, 2)]))[0].mean_duration is None


def test_mistake_duration_requires_corrections():
    # An uncorrected mistake is counted, and left out of the mean duration.
    trace = make_trace([(500, 0, 2), (1000, 0, 0), (1100, 0, 2), (2000, 0, 1)])
    m = scores_of(trace)[0]
    assert (m.mistake_times, m.durations, m.uncorrected) == ([1000, 2000], [100], 1)
    assert m.mean_duration == 100.0


# -- detection samples -----------------------------------------------------------


def test_detection_and_recovery_samples():
    faults = [FaultEvent(10_000, 2, "crash"), FaultEvent(70_000, 2, "recover")]
    trace = make_trace(
        [(500, 0, 2), (10_741, 0, 0), (70_570, 0, 2)], faults=faults
    )
    detection, recovery = speed_of(trace)
    assert detection[0] == [741]
    assert recovery[0] == [570]


def test_unreactive_monitor_yields_missing_samples():
    faults = [FaultEvent(10_000, 2, "crash"), FaultEvent(70_000, 2, "recover")]
    trace = make_trace([(500, 0, 2), (500, 1, 2), (10_741, 0, 0)], faults=faults)
    detection, recovery = speed_of(trace)
    assert detection[1] == [None]
    assert recovery[0] == [None]


def test_monitor_already_away_at_crash_is_flagged_missing():
    faults = [FaultEvent(10_000, 2, "crash")]
    trace = make_trace([(500, 0, 0)], faults=faults)
    detection, recovery = speed_of(trace)
    assert detection[0] == [None]


# -- scoring oracle --------------------------------------------------------------


def reference_score(timeline, leader, faults, duration):
    """Each metric from its definition, for one monitor: the leader's alive
    intervals, then one scan per departure, per crash and per recovery.
    Returns (mistake instants, durations, uncorrected, detection, recovery)."""
    crashes = [t for t, kind in faults if kind == "crash"]
    recovers = [t for t, kind in faults if kind == "recover"]
    alive = list(zip([0, *recovers], [*crashes, duration]))
    held = [None] + [out for _, out in timeline]
    # A departure from the leader while it is up opens a mistake; the first
    # later return corrects it unless the leader crashed in between (a crash
    # goes ahead of output changes at its instant).
    mistakes = []
    for i, (t, out) in enumerate(timeline):
        if held[i] != leader or out == leader:
            continue
        if not any(lo <= t < hi for lo, hi in alive):
            continue
        back = next((u for u, o in timeline[i + 1:] if o == leader), None)
        if back is not None and any(t < c <= back for c in crashes):
            back = None
        if mistakes and mistakes[-1] == [t, t]:
            mistakes[-1][1] = back  # corrected and re-opened in its instant
        else:
            mistakes.append([t, back])

    def delay(t0, hit):
        return next((t - t0 for t, out in timeline if t >= t0 and hit(out)), None)

    def held_before(t0):
        return next((out for t, out in reversed(timeline) if t < t0), None)

    return (
        [start for start, _ in mistakes],
        [end - start for start, end in mistakes if end is not None],
        sum(end is None for _, end in mistakes),
        [
            delay(t_c, lambda out: out != leader) if held_before(t_c) == leader else None
            for t_c in crashes
        ],
        [delay(t_r, lambda out: out == leader) for t_r in recovers],
    )


# Changes and faults fall on a 25 ms grid, so runs of changes within one
# instant, and faults at the instant of a change, are common.
change_bursts = st.lists(
    st.tuples(
        st.integers(0, 60), st.integers(0, 1),
        st.lists(st.integers(0, 2), min_size=1, max_size=4),
    ),
    max_size=25,
)
down_cycles = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=3)


@settings(max_examples=300, deadline=None)
@given(change_bursts, down_cycles, st.booleans())
def test_build_report_matches_the_reference_scorer(bursts, cycles, last_crash):
    # Leader 2 goes down after `gap` slots and up `down` slots later per cycle;
    # a first gap of 0 crashes it at 0 and a down of 0 is a zero-length crash.
    faults, slot = [], 0
    for i, (gap, down) in enumerate(cycles):
        slot += gap + (i > 0)
        faults.append(FaultEvent(25 * slot, 2, "crash"))
        slot += down
        faults.append(FaultEvent(25 * slot, 2, "recover"))
    if last_crash:
        faults.append(FaultEvent(25 * (slot + 1), 2, "crash"))
    changes = [(25 * t, pid, out) for t, pid, outs in bursts for out in outs]
    trace = make_trace(changes, faults=faults, duration=2_000)
    trace.scenario.validate()
    report = qos.build_report(trace)
    timelines, leader = qos.output_timeline(trace), report.true_leader
    assert [m.monitor for m in report.monitors] == [0, 1]
    for m in report.monitors:
        expected = reference_score(
            timelines[m.monitor], leader, leader_faults(trace, leader), 2_000
        )
        assert (
            m.mistake_times, m.durations, m.uncorrected, m.detection, m.recovery
        ) == expected
        assert m.rate == qos.mistake_rate(m.mistake_times)


# -- quartiles --------------------------------------------------------------------


def quartile_oracle(samples, fraction):
    ordered = sorted(samples)
    pos = fraction * (len(ordered) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def test_quartiles_odd_symmetric():
    assert qos.quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)


def test_quartiles_singleton():
    assert qos.quartiles([10]) == (10, 10, 10)


def test_quartiles_linear_interpolation():
    assert qos.quartiles([1, 2, 3, 4]) == (1.75, 2.5, 3.25)
    for f, got in zip((0.25, 0.5, 0.75), qos.quartiles([1, 2, 3, 4])):
        assert got == quartile_oracle([1, 2, 3, 4], f)


def test_quartiles_empty_is_an_error():
    with pytest.raises(ValueError):
        qos.quartiles([])


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
def test_quartiles_match_interpolation_oracle(samples):
    q1, q2, q3 = qos.quartiles(samples)
    assert q1 <= q2 <= q3
    assert q1 == pytest.approx(quartile_oracle(samples, 0.25))
    assert q2 == pytest.approx(quartile_oracle(samples, 0.50))
    assert q3 == pytest.approx(quartile_oracle(samples, 0.75))


QUARTILE_SAMPLES = st.lists(
    st.one_of(
        st.integers(min_value=-10**15, max_value=10**15),
        st.floats(min_value=-1e12, max_value=-1e-12),
        st.floats(min_value=1e-12, max_value=1e12),
    ),
    min_size=1, max_size=200,
)


@pytest.mark.skipif(
    int(np.__version__.split(".")[0]) < 2,
    reason="bit-for-bit agreement was checked on numpy 2; older percentile "
    "code may round its interpolation differently",
)
@given(QUARTILE_SAMPLES)
@settings(max_examples=300)
def test_quartiles_equal_numpy_percentile(samples):
    # numpy's linear method is the reference, to the last bit: the summary
    # CSVs of the QoS campaign are pinned by hash.
    want = tuple(np.percentile(np.asarray(samples, dtype=float), [25, 50, 75]))
    assert qos.quartiles(samples) == want


TOY_SUMMARY = """
import sys
from nfdl import qos
from nfdl.protocol import ProtocolConfig
from nfdl.simnet import FaultEvent, NetworkModel, Scenario, run

scenario = Scenario(
    n_processes=3, config=ProtocolConfig(eta=330, alpha=670),
    network=NetworkModel(0.0, 5.0, 0.0, "constant"), duration=60_000, seed=1,
    faults=(FaultEvent(10_000, 2, "crash"), FaultEvent(30_000, 2, "recover")),
    high_priority=2,
)
report = qos.build_report(run(scenario))
before = set(sys.modules)
lines = qos.summary_csv_lines([report])
# quartiles ran: the detection pool is not empty
assert lines[3].startswith("detection_time_ms,") and lines[3].split(",")[1], lines
print(sorted(m for m in set(sys.modules) - before if m.startswith("numpy")))
"""


def test_summary_leaves_numpy_ma_unimported():
    # Importing numpy.ma, as np.percentile does on its first call on numpy 2,
    # costs over 10 ms and a MiB inside every run's QoS phase.  The summary
    # imports no numpy module at all, whichever numpy is installed.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", TOY_SUMMARY], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


IMPORT_GRAPH = """
import sys
import nfdl
print(sorted(m for m in sys.modules if m.startswith("nfdl.")))
import nfdl.qos
print(sorted(m for m in sys.modules if m == "nfdl.simnet" or m.split(".")[0] == "numpy"))
"""


def test_scoring_loads_neither_the_simulator_nor_numpy():
    # Scoring reads a trace's recorded output history; it never runs the
    # simulator, so importing it costs neither simnet nor numpy.  The package
    # root re-exports nothing, so importing it loads no submodule.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", IMPORT_GRAPH], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n[]\n"


# -- configurator -----------------------------------------------------------------


REQS = qos.QosRequirements(t_d_max=1000, t_mr_min=3_600_000, t_m_max=1000)


def test_configure_meets_the_detection_bound():
    config = qos.configure(REQS, LOSSY)
    assert config.eta > 0
    assert config.eta + config.alpha <= REQS.t_d_max
    assert qos.validate_config(config, REQS) == []


def test_operating_point_from_the_field_passes_validation():
    assert qos.validate_config(ProtocolConfig(330, 670), REQS) == []


def test_configure_zero_variance_matches_exhaustive_search():
    reqs = qos.QosRequirements(1000, 3_600_000, 1000)
    config = qos.configure(reqs, QUIET)
    # exhaustive search over ms pairs: maximize eta, alpha at its floor
    floor = 0
    best = max(
        (eta, -alpha)
        for eta in range(1, reqs.t_d_max + 1)
        for alpha in (floor,)
        if eta + alpha <= reqs.t_d_max
    )
    assert (config.eta, config.alpha) == (best[0], -best[1]) == (1000, 0)


def test_configure_infeasible_when_nothing_fits():
    with pytest.raises(ValueError):
        qos.QosRequirements(0, 1, 1)
    tight = qos.QosRequirements(30, 3_600_000, 1000)
    with pytest.raises(qos.InfeasibleRequirementsError):
        qos.configure(tight, LOSSY)


def test_validate_config_rejects_bound_violations():
    violations = qos.validate_config(ProtocolConfig(500, 600), REQS)
    assert len(violations) == 1 and "1100" in violations[0]


@given(
    st.integers(min_value=1, max_value=5000),
    st.floats(min_value=0.0, max_value=500.0),
)
def test_configure_output_always_validates(t_d_max, var):
    k = 8  # the alpha floor, in delay standard deviations
    reqs = qos.QosRequirements(t_d_max, 3_600_000, 1000)
    net = NetworkModel(0.0, 5.0, var, "normal")
    try:
        config = qos.configure(reqs, net)
    except qos.InfeasibleRequirementsError:
        assert t_d_max - math.ceil(k * math.sqrt(var)) < 1
        return
    assert qos.validate_config(config, reqs) == []
    assert config.alpha >= k * math.sqrt(var) - 1e-9


# -- reports ----------------------------------------------------------------------


def full_report_trace():
    faults = [FaultEvent(10_000, 2, "crash"), FaultEvent(70_000, 2, "recover")]
    return make_trace(
        [
            (500, 0, 2), (500, 1, 2),
            (3_000, 0, 0), (3_400, 0, 2),          # one mistake on monitor 0
            (10_741, 0, 0), (10_800, 1, 1),        # detections
            (70_570, 0, 2), (70_600, 1, 2),        # recovery detections
        ],
        faults=faults,
    )


def test_build_report_collects_all_metrics():
    report = qos.build_report(full_report_trace())
    assert report.true_leader == 2
    m0 = report.monitors[0]
    assert m0.mistake_times == [3_000]
    assert m0.durations == [400]
    assert m0.detection == [741]
    assert m0.recovery == [570]
    m1 = report.monitors[1]
    assert m1.mistake_times == []
    assert m1.mean_duration is None


def test_report_is_reproducible():
    a = qos.build_report(full_report_trace())
    b = qos.build_report(full_report_trace())
    assert qos.metrics_csv_lines(a) == qos.metrics_csv_lines(b)


def test_metrics_csv_shape():
    lines = qos.metrics_csv_lines(qos.build_report(full_report_trace()))
    assert lines[0] == "metric,monitor,n,missing,value,samples"
    assert len(lines) == 1 + 2 * 4  # two monitors, four metrics each
    assert all(line.count(",") == 5 for line in lines)


def test_summary_csv_shape_and_bounds():
    report = qos.build_report(full_report_trace())
    lines = qos.summary_csv_lines([report], REQS)
    assert lines[0] == "metric,q1,median,q3,bound"
    by_metric = {line.split(",")[0]: line for line in lines[1:]}
    assert by_metric["detection_time_ms"].endswith(",1000")
    assert by_metric["mistake_duration_ms"].split(",")[1:4] == ["400", "400", "400"]
    rate_bound = by_metric["mistake_rate_per_ms"].split(",")[4]
    assert float(rate_bound) == pytest.approx(1 / 3_600_000)


def test_summary_handles_empty_pools():
    trace = make_trace([(500, 0, 2), (500, 1, 2)])
    lines = qos.summary_csv_lines([qos.build_report(trace)], None)
    by_metric = {line.split(",")[0]: line for line in lines[1:]}
    assert by_metric["detection_time_ms"] == "detection_time_ms,,,,"


def test_fault_file_order_does_not_change_the_report():
    # A zero-length leader crash is applied crash first whichever way round
    # the file lists it, so the leader is alive at 3000 ms in both orders.
    crash, recover = FaultEvent(10_000, 2, "crash"), FaultEvent(10_000, 2, "recover")
    changes = [(500, 0, 2), (500, 1, 2), (3_000, 0, 0), (3_400, 0, 2)]
    crash_first, recover_first = (
        qos.build_report(make_trace(changes, faults=faults))
        for faults in ([crash, recover], [recover, crash])
    )
    assert crash_first.monitors[0].mistake_times == [3_000]
    assert recover_first.monitors == crash_first.monitors
    assert qos.metrics_csv_lines(recover_first) == qos.metrics_csv_lines(crash_first)
    # Nobody holds a leader before the first fault, so the true leader is the
    # process of the first fault in apply order, however the file lists it.
    early, late = FaultEvent(50, 1, "crash"), FaultEvent(100, 2, "crash")
    late_first, early_first = (
        qos.build_report(run(Scenario(
            n_processes=3, config=CFG, network=QUIET, duration=5_000, seed=0,
            faults=faults,
        )))
        for faults in ([late, early], [early, late])
    )
    assert late_first.true_leader == early_first.true_leader == 1
    assert qos.metrics_csv_lines(late_first) == qos.metrics_csv_lines(early_first)


def test_infer_true_leader_prefers_pin_then_faults_then_agreement():
    pinned = make_trace([], high_priority=1)
    assert qos.infer_true_leader(pinned) == 1
    faulted = make_trace([], faults=[FaultEvent(10, 0, "crash")], high_priority=None)
    assert qos.infer_true_leader(faulted) == 0
    agreed = make_trace([], high_priority=None)
    agreed.final_outputs = {0: 2, 1: 2, 2: 2}
    assert qos.infer_true_leader(agreed) == 2
    split = make_trace([], high_priority=None)
    split.final_outputs = {0: 1, 1: 2, 2: 2}
    with pytest.raises(ValueError):
        qos.infer_true_leader(split)


def test_unpinned_true_leader_is_the_leader_held_before_the_first_fault():
    # Follower 0 crashes while every process holds leader 2, which never fails.
    faults = [FaultEvent(10_000, 0, "crash"), FaultEvent(20_000, 0, "recover")]
    held = [(1_000, pid, 2) for pid in range(3)]
    trace = make_trace(held + [(21_000, 0, 2)], faults=faults, high_priority=None)
    assert qos.infer_true_leader(trace) == 2
    report = qos.build_report(trace)
    assert report.true_leader == 2
    assert all(m.detection == [] and m.recovery == [] for m in report.monitors)
    # Without agreement just before the first fault, its process is used.
    split = make_trace(held + [(5_000, 1, 1)], faults=faults, high_priority=None)
    assert qos.infer_true_leader(split) == 0


def test_unpinned_naive_true_leader_counts_start_of_run_outputs():
    # Process 0 elects itself from the start and never logs an output
    # change; the leader every process holds before follower 3 crashes is 0.
    sc = Scenario(
        n_processes=5, config=CFG, network=QUIET, duration=15_000, seed=1,
        algorithm="naive-reduction",
        faults=(FaultEvent(5_000, 3, "crash"), FaultEvent(9_000, 3, "recover")),
    )
    trace = run(sc)
    assert qos.infer_true_leader(trace) == 0
    report = qos.build_report(trace)
    assert report.true_leader == 0
    rows = [line.split(",") for line in qos.metrics_csv_lines(report)[1:]]
    assert rows and all(row[3] == "0" for row in rows)
