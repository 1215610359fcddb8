"""Quality-of-service metrics over simulation traces.

Four metrics, computed per monitor against the true leader's fault
timeline:

* mistake rate - reciprocal of the mean gap between consecutive mistake
  timestamps (zero when fewer than two mistakes exist);
* mistake duration - mean time from a wrong output to its correction;
* detection time - crash instant to the monitor's first output away from
  the crashed leader;
* recovery detection time - recovery instant to the first output back to
  the recovered leader.

A mistake is an output that departs from the true leader while that leader
is alive; once the leader actually crashes, departures are detections, not
mistakes.  Sample pools are summarized as quartiles (linear interpolation
between order statistics).

Extraction works out each fact once: the ground truth (the leader's alive
intervals, crash and recover instants) from the fault schedule read in the
simulator's apply order, and every process's output timeline from one pass
over the events.  That pass is a fold, :class:`TimelineFold`, which can
also be the simulator's sink: :func:`stream_run` writes the trace file and
folds the timelines as events are logged, so a run holds no event list.

The module also houses the requirements-driven configurator: it picks the
largest send interval eta whose detection bound eta + alpha still meets the
requested maximum, with the safety margin alpha floored at a multiple of
the delay standard deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .protocol import ProtocolConfig
from .simnet import EventTrace, Scenario, Simulator, TraceEvent, TraceWriter
from .simnet import write_lines  # noqa: F401 (re-exported)


class InfeasibleRequirementsError(ValueError):
    """No (eta, alpha) pair can satisfy the stated requirements."""


@dataclass(frozen=True, slots=True)
class QosRequirements:
    """Application bounds: max detection time, min mistake recurrence,
    max mistake duration (all ms)."""

    t_d_max: int
    t_mr_min: int
    t_m_max: int

    def __post_init__(self):
        for name in ("t_d_max", "t_mr_min", "t_m_max"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True, slots=True)
class MistakeRecord:
    monitor: int
    mistake_at: int
    corrected_at: int | None

    def __post_init__(self):
        if self.corrected_at is not None and self.corrected_at < self.mistake_at:
            raise ValueError("correction cannot precede the mistake")


class NoTrueLeaderError(ValueError):
    """A trace names no true leader: nothing pinned, no faults, and no
    unanimous final leader."""


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """The true leader, the half-open intervals it is up, and the instants
    it crashes and recovers."""

    leader: int
    alive: tuple[tuple[int, int], ...]
    crashes: tuple[int, ...]
    recovers: tuple[int, ...]

    @classmethod
    def of(cls, scenario: Scenario, leader: int) -> GroundTruth:
        """Read the leader's fault schedule in the simulator's apply order."""
        faults = [f for _, f in scenario.fault_order() if f.process == leader]
        crashes = tuple(f.at for f in faults if f.kind == "crash")
        recovers = tuple(f.at for f in faults if f.kind == "recover")
        # Crashes and recoveries alternate, so each up interval runs from the
        # start or a recovery to the next crash or the end of the run.
        alive = tuple(zip((0, *recovers), (*crashes, scenario.duration)))
        return cls(leader, alive, crashes, recovers)

    def alive_at(self, t: int) -> bool:
        return any(lo <= t < hi for lo, hi in self.alive)


Timelines = dict[int, list[tuple[int, int]]]


class TimelineFold:
    """Keeps every process's (time, leader) change points in ``timelines``;
    a process starts with no leader.  ``add`` folds in one event and is a
    simulator sink.  Memory grows with the output changes only, not with
    the events."""

    def __init__(self, n_processes: int):
        self.timelines: Timelines = {pid: [] for pid in range(n_processes)}

    def add(self, ev: TraceEvent) -> None:
        if ev.kind == "output_change" and ev.leader is not None:
            self.timelines[ev.process].append((ev.time, ev.leader))


def output_timeline(trace: EventTrace) -> Timelines:
    """The timelines of an in-memory trace: its events folded in order."""
    fold = TimelineFold(trace.scenario.n_processes)
    add = fold.add
    for ev in trace.events:
        # Only output changes move a timeline; skipping the call for every
        # other event keeps this pass as cheap as a plain filter.
        if ev.kind == "output_change":
            add(ev)
    return fold.timelines


def stream_run(
    scenario: Scenario, trace_path: str | Path, store=None
) -> tuple[EventTrace, Timelines]:
    """Run ``scenario`` holding no event list: each event is written to the
    trace file at ``trace_path`` and folded into the timelines as it is
    logged.  Returns the trace (counters and final outputs, no events) and
    the timelines, for ``build_report``.  The file appears only if the run
    succeeds."""
    fold = TimelineFold(scenario.n_processes)
    with TraceWriter(trace_path, scenario) as writer:
        write, add = writer.write, fold.add

        def sink(ev: TraceEvent) -> None:
            write(ev)
            add(ev)

        trace = Simulator(scenario, store=store, sink=sink).run()
    return trace, fold.timelines


def _held_before(
    timeline: list[tuple[int, int]], t0: int, start: int | None = None
) -> int | None:
    """Output a timeline holds just before t0; ``start`` before its first change."""
    return next((out for t, out in reversed(timeline) if t < t0), start)


def infer_true_leader(trace: EventTrace, timelines: Timelines | None = None) -> int:
    """True leader for metric extraction.

    The pinned high-priority process if any; else the leader every process
    outputs just before the first fault (its start-of-run output if it has
    not changed yet), or failing that the process of the first fault in
    apply order; else the leader all survivors agree on at the end.
    """
    sc = trace.scenario
    if sc.high_priority is not None:
        return sc.high_priority
    if sc.faults:
        if timelines is None:
            timelines = output_timeline(trace)
        first = min(f.at for f in sc.faults)
        # Before its first output change a naive-reduction process trusts
        # nobody and so elects itself; under the other algorithms it has no
        # leader yet.
        naive = sc.algorithm == "naive-reduction"
        held = {
            _held_before(timeline, first, pid if naive else None)
            for pid, timeline in timelines.items()
        }
        if len(held) == 1 and None not in held:
            return held.pop()
        return sc.fault_order()[0][1].process
    finals = set(trace.final_outputs.values())
    if len(finals) != 1 or not isinstance(next(iter(finals)), int):
        raise NoTrueLeaderError(f"no unanimous final leader: {trace.final_outputs}")
    return next(iter(finals))


def extract_mistakes(
    truth: GroundTruth, timelines: Timelines
) -> dict[int, list[MistakeRecord]]:
    """Per-monitor mistake records against the true leader's liveness.

    A record opens when the monitor's output leaves the alive leader and
    closes when it returns; a crash of the leader closes the books on any
    open record without a correction timestamp.
    """
    results: dict[int, list[MistakeRecord]] = {}
    for pid, timeline in timelines.items():
        if pid == truth.leader:
            continue
        # Merge leader crashes (rank 0) ahead of same-instant output changes.
        merged = [(t, 0, None) for t in truth.crashes]
        merged += [(t, 1, out) for t, out in timeline]
        merged.sort(key=lambda item: (item[0], item[1]))
        records: list[MistakeRecord] = []
        current: int | None = None
        opened: int | None = None
        for t, rank, out in merged:
            if rank == 0:
                if opened is not None:
                    records.append(MistakeRecord(pid, opened, None))
                    opened = None
                continue
            if truth.alive_at(t):
                if current == truth.leader and out != truth.leader:
                    opened = t
                elif opened is not None and out == truth.leader:
                    records.append(MistakeRecord(pid, opened, t))
                    opened = None
            current = out
        if opened is not None:
            records.append(MistakeRecord(pid, opened, None))
        results[pid] = records
    return results


def mistake_rate(timestamps: list[int]) -> float:
    """Mistakes per ms: reciprocal of the mean gap between mistakes.

    Undefined for fewer than two mistakes; reported as the best case, zero.
    """
    for a, b in zip(timestamps, timestamps[1:]):
        if b <= a:
            raise ValueError("mistake timestamps must be strictly increasing")
    if len(timestamps) < 2:
        return 0.0
    return (len(timestamps) - 1) / (timestamps[-1] - timestamps[0])


def mistake_duration(records: list[MistakeRecord]) -> float | None:
    """Mean correction time in ms; None when there were no mistakes."""
    if not records:
        return None
    if any(r.corrected_at is None for r in records):
        raise ValueError("mistake_duration requires every record corrected")
    return sum(r.corrected_at - r.mistake_at for r in records) / len(records)


Samples = dict[int, list[int | None]]


def _delay(timeline: list[tuple[int, int]], t0: int, hit) -> int | None:
    """ms from t0 to the first change point at or after t0 whose output
    satisfies ``hit``; None when there is none."""
    return next((t - t0 for t, out in timeline if t >= t0 and hit(out)), None)


def detection_times(truth: GroundTruth, timelines: Timelines) -> tuple[Samples, Samples]:
    """Per-monitor detection and recovery-detection samples, one slot per
    leader crash and recovery; None marks a monitor that never reacted
    inside the trace, or was already away from the leader when it crashed."""
    leader = truth.leader
    detection: Samples = {}
    recovery: Samples = {}
    for pid, timeline in timelines.items():
        if pid == leader:
            continue
        detection[pid] = [
            _delay(timeline, t_c, lambda out: out != leader)
            if _held_before(timeline, t_c) == leader else None
            for t_c in truth.crashes
        ]
        recovery[pid] = [
            _delay(timeline, t_r, lambda out: out == leader) for t_r in truth.recovers
        ]
    return detection, recovery


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) by linear interpolation between order statistics."""
    if not samples:
        raise ValueError("quartiles of an empty sample set are undefined")
    q1, q2, q3 = np.percentile(np.asarray(samples, dtype=float), [25, 50, 75])
    return float(q1), float(q2), float(q3)


# ---------------------------------------------------------------------------
# Configurator


def configure(
    reqs: QosRequirements,
    network,
    margin_k: float = 8.0,
    window_n: int = 100,
) -> ProtocolConfig:
    """Derive (eta, alpha) from requirements and network behavior.

    Detection of a crashed leader is bounded by eta + alpha, so that sum is
    capped at t_d_max; alpha is floored at margin_k standard deviations of
    the message delay to absorb dispersion; among feasible pairs the largest
    eta wins, since fewer heartbeats cost less.
    """
    alpha_floor = math.ceil(margin_k * math.sqrt(network.delay_var))
    eta = reqs.t_d_max - alpha_floor
    if eta < 1:
        raise InfeasibleRequirementsError(
            f"t_d_max={reqs.t_d_max} ms cannot fit any positive eta on top of "
            f"the alpha floor {alpha_floor} ms "
            f"(= {margin_k} * sqrt(delay_var {network.delay_var}))"
        )
    return ProtocolConfig(eta=eta, alpha=alpha_floor, window_n=window_n)


def validate_config(
    eta: int, alpha: int, reqs: QosRequirements
) -> tuple[bool, list[str]]:
    """Audit a raw (eta, alpha) pair against the detection bound."""
    violations = []
    if eta <= 0:
        violations.append(f"eta must be positive (got {eta})")
    if alpha < 0:
        violations.append(f"alpha must be >= 0 (got {alpha})")
    if eta + alpha > reqs.t_d_max:
        violations.append(
            f"detection bound violated: eta + alpha = {eta + alpha} ms "
            f"> t_d_max = {reqs.t_d_max} ms"
        )
    return (not violations, violations)


# ---------------------------------------------------------------------------
# Reports


def sends_per_eta(trace: EventTrace, start: int, periods: int) -> float:
    """Send events per eta inside the grid-aligned window [start, start+periods*eta)."""
    eta = trace.scenario.config.eta
    end = start + periods * eta
    count = sum(1 for ev in trace.events if ev.kind == "send" and start <= ev.time < end)
    return count / periods


@dataclass
class MonitorMetrics:
    monitor: int
    mistake_times: list[int]
    rate: float
    durations: list[int]
    mean_duration: float | None
    uncorrected: int
    detection: list[int | None]
    recovery: list[int | None]

    @property
    def detection_present(self) -> list[int]:
        return [s for s in self.detection if s is not None]

    @property
    def recovery_present(self) -> list[int]:
        return [s for s in self.recovery if s is not None]


@dataclass
class MetricsReport:
    scenario: Scenario
    true_leader: int
    monitors: list[MonitorMetrics]
    sends_by_process: dict[int, int] = field(default_factory=dict)

    @property
    def total_sends(self) -> int:
        return sum(self.sends_by_process.values())


def build_report(
    trace: EventTrace,
    true_leader: int | None = None,
    timelines: Timelines | None = None,
) -> MetricsReport:
    """Extract every metric a trace supports into one report.

    ``timelines`` are the run's folded timelines (see :func:`stream_run`);
    by default they are folded from ``trace.events``.  Pure function of
    (trace, faults): re-running it yields the same report.
    """
    if timelines is None:
        timelines = output_timeline(trace)
    if true_leader is None:
        true_leader = infer_true_leader(trace, timelines)
    truth = GroundTruth.of(trace.scenario, true_leader)
    mistakes = extract_mistakes(truth, timelines)
    detection, recovery = detection_times(truth, timelines)
    monitors = []
    for pid in sorted(mistakes):
        records = mistakes[pid]
        corrected = [r for r in records if r.corrected_at is not None]
        durations = [r.corrected_at - r.mistake_at for r in corrected]
        monitors.append(
            MonitorMetrics(
                monitor=pid,
                mistake_times=[r.mistake_at for r in records],
                rate=mistake_rate([r.mistake_at for r in records]),
                durations=durations,
                mean_duration=mistake_duration(corrected),
                uncorrected=len(records) - len(corrected),
                detection=detection[pid],
                recovery=recovery[pid],
            )
        )
    return MetricsReport(
        scenario=trace.scenario,
        true_leader=true_leader,
        monitors=monitors,
        sends_by_process=dict(sorted(trace.send_counts.items())),
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


METRICS_CSV_HEADER = "metric,monitor,n,missing,value,samples"
SUMMARY_CSV_HEADER = "metric,q1,median,q3,bound"


def _mean(samples: list[int]) -> float | None:
    return sum(samples) / len(samples) if samples else None


def metrics_csv_lines(report: MetricsReport) -> list[str]:
    lines = [METRICS_CSV_HEADER]
    for m in report.monitors:
        det, rec = m.detection_present, m.recovery_present
        rows = (  # (metric, samples, missing, value)
            ("mistake_rate_per_ms", m.mistake_times, 0, m.rate),
            ("mistake_duration_ms", m.durations, m.uncorrected, m.mean_duration),
            ("detection_time_ms", det, len(m.detection) - len(det), _mean(det)),
            ("recovery_detection_ms", rec, len(m.recovery) - len(rec), _mean(rec)),
        )
        lines.extend(
            f"{metric},{m.monitor},{len(samples)},{missing},{_fmt(value)},"
            f"{' '.join(map(str, samples))}"
            for metric, samples, missing, value in rows
        )
    return lines


def pooled_samples(reports: list[MetricsReport]) -> dict[str, list[float]]:
    """Sample pools in Table shape: one rate point per monitor-run, one mean
    duration point per monitor-run, raw detection/recovery samples."""
    pools: dict[str, list[float]] = {
        "mistake_rate_per_ms": [],
        "mistake_duration_ms": [],
        "detection_time_ms": [],
        "recovery_detection_ms": [],
    }
    for report in reports:
        for m in report.monitors:
            pools["mistake_rate_per_ms"].append(m.rate)
            if m.mean_duration is not None:
                pools["mistake_duration_ms"].append(m.mean_duration)
            pools["detection_time_ms"].extend(m.detection_present)
            pools["recovery_detection_ms"].extend(m.recovery_present)
    return pools


def summary_csv_lines(
    reports: list[MetricsReport], reqs: QosRequirements | None = None
) -> list[str]:
    bounds = {
        "mistake_rate_per_ms": (1.0 / reqs.t_mr_min) if reqs else None,
        "mistake_duration_ms": reqs.t_m_max if reqs else None,
        "detection_time_ms": reqs.t_d_max if reqs else None,
        "recovery_detection_ms": reqs.t_d_max if reqs else None,
    }
    lines = [SUMMARY_CSV_HEADER]
    for metric, samples in pooled_samples(reports).items():
        if samples:
            q1, q2, q3 = quartiles(samples)
            lines.append(
                f"{metric},{_fmt(q1)},{_fmt(q2)},{_fmt(q3)},{_fmt(bounds[metric])}"
            )
        else:
            lines.append(f"{metric},,,,{_fmt(bounds[metric])}")
    return lines


def text_report_lines(
    reports: list[MetricsReport], reqs: QosRequirements | None = None
) -> list[str]:
    lines = []
    for i, report in enumerate(reports):
        sc = report.scenario
        lines.append(
            f"run {i}: algorithm={sc.algorithm} procs={sc.n_processes} "
            f"eta={sc.config.eta} alpha={sc.config.alpha} seed={sc.seed} "
            f"duration={sc.duration} true_leader={report.true_leader}"
        )
        lines.append(f"  sends total={report.total_sends} "
                     f"by_process={report.sends_by_process}")
        for m in report.monitors:
            lines.append(
                f"  monitor {m.monitor}: mistakes={len(m.mistake_times)} "
                f"rate={_fmt(m.rate)}/ms mean_duration={_fmt(m.mean_duration)}ms "
                f"uncorrected={m.uncorrected} "
                f"t_d={m.detection_present} t_dr={m.recovery_present}"
            )
            if reqs is not None:
                verdict = "ok" if m.rate <= 1.0 / reqs.t_mr_min else "exceeded"
                lines.append(
                    f"    observed rate vs 1/t_mr_min "
                    f"({_fmt(1.0 / reqs.t_mr_min)}/ms): {verdict}"
                )
    lines.append("summary (quartiles by linear interpolation):")
    lines.extend("  " + line for line in summary_csv_lines(reports, reqs))
    return lines
