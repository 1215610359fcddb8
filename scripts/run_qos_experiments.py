#!/usr/bin/env python3
"""Run the two measurement campaigns and print a quartile summary table.

Accuracy: 6 fail-free one-hour runs on the measured lossy network; reports
per-monitor mistake rates and durations.  Speed: 10 crash-recovery cycles of
a pinned high-priority leader; reports detection and recovery-detection
times.  Artifacts (traces, per-run metrics CSVs, pooled summary CSV, text
report) land in the output directory.  Each run streams its trace to disk
as it goes, so it holds no event list.  An accuracy run with no true leader
(too short to elect one) keeps its trace but gets no metrics CSV and stays
out of the pooled summary.  A bad flag value exits 2 naming the scenario
key it sets, or the flag for a count below 1 or an --accuracy-hours with
no finite duration, before anything is written; an output directory that
cannot be made exits 1.  Both print one ``error:`` line, as ``nfdl`` does.
"""

import argparse
import math
import time
from pathlib import Path

from nfdl import qos, simnet
from nfdl.cli import exit_code
from nfdl.experiments import REQUIREMENTS, accuracy_scenario, speed_scenario


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out/qos"))
    parser.add_argument("--accuracy-reps", type=int, default=6)
    parser.add_argument("--accuracy-hours", type=float, default=1.0)
    parser.add_argument("--speed-cycles", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for flag, count in (("--accuracy-reps", args.accuracy_reps),
                        ("--speed-cycles", args.speed_cycles)):
        if count < 1:
            raise simnet.ScenarioError(flag, f"must be >= 1, got {count}")
    duration_ms = args.accuracy_hours * 3_600_000
    if not math.isfinite(duration_ms):  # NaN, inf, or too long to count in ms
        raise simnet.ScenarioError(
            "--accuracy-hours", f"must be finite in ms, got {args.accuracy_hours!r}"
        )
    duration = int(duration_ms)
    accuracy = [accuracy_scenario(args.seed + rep, duration=duration)
                for rep in range(args.accuracy_reps)]
    speed = speed_scenario(args.seed, cycles=args.speed_cycles)
    for scenario in (*accuracy, speed):  # checked before anything is written
        scenario.validate()
    args.out.mkdir(parents=True, exist_ok=True)
    reqs = simnet.load(qos.QosRequirements, REQUIREMENTS)
    reports = []

    for rep, scenario in enumerate(accuracy):
        t0 = time.monotonic()
        trace = simnet.stream_run(scenario, args.out / f"accuracy_trace_{rep:03d}.log")
        try:
            report = qos.build_report(trace)
        except qos.NoTrueLeaderError as exc:
            # As `nfdl run` does: the trace stays, the run is not scored.
            print(f"accuracy rep {rep}: seed={scenario.seed} not scored: {exc}")
            continue
        reports.append(report)
        qos.write_lines(
            qos.metrics_csv_lines(report), args.out / f"accuracy_metrics_{rep:03d}.csv"
        )
        mistakes = sum(len(m.mistake_times) for m in report.monitors)
        print(
            f"accuracy rep {rep}: seed={scenario.seed} "
            f"mistakes={mistakes} wall={time.monotonic() - t0:.1f}s"
        )

    t0 = time.monotonic()
    trace = simnet.stream_run(speed, args.out / "speed_trace.log")
    speed_report = qos.build_report(trace)
    reports.append(speed_report)
    qos.write_lines(qos.metrics_csv_lines(speed_report), args.out / "speed_metrics.csv")
    samples = [s for m in speed_report.monitors for s in m.detection_present]
    print(
        f"speed: {args.speed_cycles} cycles, {len(samples)} detection samples, "
        f"wall={time.monotonic() - t0:.1f}s"
    )

    qos.write_lines(qos.summary_csv_lines(reports, reqs), args.out / "summary.csv")
    qos.write_lines(qos.text_report_lines(reports, reqs), args.out / "report.txt")

    print("\nquartile summary (pooled over monitors and runs):")
    for line in qos.summary_csv_lines(reports, reqs):
        print(" ", line.replace(",", "\t"))
    print(f"\nartifacts in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(exit_code(main))
