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
mistakes.  A mistake corrected and re-opened within the instant it opened
is one mistake.  Sample pools are summarized as quartiles (linear
interpolation between order statistics).

Scoring reads no events.  The simulator records every process's output
history on the trace (``EventTrace.output_changes``), whether it keeps the
event lines or streams them to a trace file (``simnet.stream_run``).
:func:`output_timeline` keeps the leader outputs of that record, and
:func:`score_monitor` sweeps each monitor's timeline once, merged with the
leader's crashes and recoveries in the simulator's apply order, and yields
all four metrics.  The module reads traces but never runs one, so it
imports nothing from ``simnet`` at run time, nor numpy.

The module also houses the requirements-driven configurator: it picks the
largest send interval eta whose detection bound eta + alpha still meets the
requested maximum, with the safety margin alpha floored at eight standard
deviations of the link delay.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .protocol import ProtocolConfig

if TYPE_CHECKING:
    from .simnet import EventTrace, Scenario


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


class NoTrueLeaderError(ValueError):
    """A trace names no true leader: nothing pinned, no faults, and no
    unanimous final leader."""


Timelines = dict[int, list[tuple[int, int]]]


def output_timeline(trace: EventTrace) -> Timelines:
    """Every process's (time, leader) change points, from the trace's record
    of output changes; a process starts with no leader, and outputs that
    name no leader (None, or a verdict) are left out."""
    return {
        pid: [(t, out) for t, out in changes if isinstance(out, int)]
        for pid, changes in trace.output_changes.items()
    }


def _held_before(
    timeline: list[tuple[int, int]], t0: int, start: int | None = None
) -> int | None:
    """Output a timeline holds just before t0; ``start`` before its first change."""
    return next((out for t, out in reversed(timeline) if t < t0), start)


def infer_true_leader(trace: EventTrace) -> int:
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
        first = min(f.at for f in sc.faults)
        # Before its first output change a naive-reduction process trusts
        # nobody and so elects itself; under the other algorithms it has no
        # leader yet.
        naive = sc.algorithm == "naive-reduction"
        held = {
            _held_before(timeline, first, pid if naive else None)
            for pid, timeline in output_timeline(trace).items()
        }
        if len(held) == 1 and None not in held:
            return held.pop()
        return sc.fault_order()[0][1].process
    finals = set(trace.final_outputs.values())
    if len(finals) != 1 or not isinstance(next(iter(finals)), int):
        raise NoTrueLeaderError(f"no unanimous final leader: {trace.final_outputs}")
    return next(iter(finals))


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


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) by linear interpolation between order statistics,
    in the arithmetic of numpy's default ``percentile``: checked bit for bit
    against numpy 2.4.6, and tests/test_qos.py repeats the check on numpy 2."""
    if not samples:
        raise ValueError("quartiles of an empty sample set are undefined")
    ordered = sorted(map(float, samples))
    last = len(ordered) - 1

    def at(q: float) -> float:
        pos = last * q
        i = math.floor(pos)
        t = pos - i
        a, b = ordered[i], ordered[min(i + 1, last)]
        return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t

    return at(0.25), at(0.5), at(0.75)


# ---------------------------------------------------------------------------
# Configurator


# The alpha floor, in standard deviations of the link delay.
ALPHA_FLOOR_SIGMAS = 8


def configure(reqs: QosRequirements, network) -> ProtocolConfig:
    """Derive (eta, alpha) from requirements and network behavior.

    Detection of a crashed leader is bounded by eta + alpha, so that sum is
    capped at t_d_max; alpha is floored at ALPHA_FLOOR_SIGMAS standard
    deviations of the message delay to absorb dispersion; among feasible
    pairs the largest eta wins, since fewer heartbeats cost less.
    """
    alpha_floor = math.ceil(ALPHA_FLOOR_SIGMAS * math.sqrt(network.delay_var))
    eta = reqs.t_d_max - alpha_floor
    if eta < 1:
        raise InfeasibleRequirementsError(
            f"t_d_max={reqs.t_d_max} ms cannot fit any positive eta on top of "
            f"the alpha floor {alpha_floor} ms "
            f"(= {ALPHA_FLOOR_SIGMAS} * sqrt(delay_var {network.delay_var}))"
        )
    return ProtocolConfig(eta=eta, alpha=alpha_floor)


def validate_config(config: ProtocolConfig, reqs: QosRequirements) -> list[str]:
    """The requirements ``config`` violates: the detection bound eta + alpha
    <= t_d_max (eta >= 1 and alpha >= 0 are ProtocolConfig's own rules)."""
    bound = config.eta + config.alpha
    if bound <= reqs.t_d_max:
        return []
    return [f"detection bound violated: eta + alpha = {bound} ms "
            f"> t_d_max = {reqs.t_d_max} ms"]


# ---------------------------------------------------------------------------
# Reports


def sends_per_eta(trace: EventTrace, start: int, periods: int) -> float:
    """Send events per eta inside the grid-aligned window [start, start+periods*eta).

    Reads the kept trace lines from ``trace.event_lines()``: a send line is
    one whose kind column is ``send`` (only the columns are tab-delimited),
    and only its time column is parsed."""
    eta = trace.scenario.config.eta
    end = start + periods * eta
    times = (int(line[:line.index("\t")]) for line in trace.event_lines()
             if "\tsend\t" in line)
    return sum(start <= t < end for t in times) / periods


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


def _mean(samples: list[int]) -> float | None:
    return sum(samples) / len(samples) if samples else None


def score_monitor(
    pid: int,
    timeline: list[tuple[int, int]],
    leader: int,
    faults: list[tuple[int, str]],
) -> MonitorMetrics:
    """Score one monitor's timeline against the true leader in one sweep.

    ``faults`` are the leader's (instant, kind) pairs in the simulator's
    apply order; a fault goes ahead of any output change at the same
    instant.  A mistake opens when the output leaves the leader while it is
    up and is corrected when the output returns; a crash of the leader, or
    the end of the run, leaves it uncorrected.  A mistake corrected and
    re-opened within the instant it opened counts once.  A crash waits for
    the first output away from the leader (its sample stays None if the
    monitor was already away), a recovery for the first output back to it.
    """
    # The sort is stable: faults keep their apply order, changes their log order.
    steps = [(t, False, kind) for t, kind in faults]
    steps += [(t, True, out) for t, out in timeline]
    steps.sort(key=lambda step: step[:2])
    alive, held, opened = True, None, None
    mistakes: list[int] = []
    durations: list[int] = []
    uncorrected = 0
    detection: list[int | None] = []
    recovery: list[int | None] = []
    # (sample slot, fault instant) of crashes and recoveries still waiting
    # for their output change
    crashes_waiting: list[tuple[int, int]] = []
    recoveries_waiting: list[tuple[int, int]] = []
    for t, is_change, what in steps:
        if is_change:
            samples, waiting = (
                (recovery, recoveries_waiting) if what == leader
                else (detection, crashes_waiting)
            )
            for slot, t0 in waiting:
                samples[slot] = t - t0
            waiting.clear()
            if alive and held == leader and what != leader:
                if mistakes and mistakes[-1] == t:
                    durations.pop()  # its correction, at this same instant
                else:
                    mistakes.append(t)
                opened = t
            elif opened is not None and what == leader:
                durations.append(t - opened)
                opened = None
            held = what
        elif what == "crash":
            alive = False
            if opened is not None:
                uncorrected += 1
                opened = None
            if held == leader:
                crashes_waiting.append((len(detection), t))
            detection.append(None)
        else:
            alive = True
            recoveries_waiting.append((len(recovery), t))
            recovery.append(None)
    if opened is not None:
        uncorrected += 1
    return MonitorMetrics(
        monitor=pid,
        mistake_times=mistakes,
        rate=mistake_rate(mistakes),
        durations=durations,
        mean_duration=_mean(durations),
        uncorrected=uncorrected,
        detection=detection,
        recovery=recovery,
    )


def build_report(trace: EventTrace, true_leader: int | None = None) -> MetricsReport:
    """Extract every metric a trace supports into one report.

    Pure function of (trace, faults): re-running it yields the same report.
    """
    if true_leader is None:
        true_leader = infer_true_leader(trace)
    timelines = output_timeline(trace)
    faults = [
        (f.at, f.kind) for _, f in trace.scenario.fault_order()
        if f.process == true_leader
    ]
    return MetricsReport(
        scenario=trace.scenario,
        true_leader=true_leader,
        monitors=[
            score_monitor(pid, timelines[pid], true_leader, faults)
            for pid in sorted(timelines) if pid != true_leader
        ],
        sends_by_process=dict(sorted(trace.send_counts.items())),
    )


def write_lines(lines: Iterable[str], path: str | Path) -> None:
    """Write each of ``lines`` and a newline to ``path``, one line at a time,
    so no copy of the whole text is ever held."""
    with open(path, "w") as f:
        for line in lines:
            f.write(line + "\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


METRICS_CSV_HEADER = "metric,monitor,n,missing,value,samples"
SUMMARY_CSV_HEADER = "metric,q1,median,q3,bound"


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
