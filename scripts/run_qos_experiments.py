#!/usr/bin/env python3
"""Run the two measurement campaigns and print a quartile summary table.

Accuracy: 6 fail-free one-hour runs on the measured lossy network; reports
per-monitor mistake rates and durations.  Speed: 10 crash-recovery cycles of
a pinned high-priority leader; reports detection and recovery-detection
times.  Artifacts (traces, per-run metrics CSVs, pooled summary CSV, text
report) land in the output directory.  Each run streams its trace to disk
as it goes, so it holds no event list.
"""

import argparse
import time
from pathlib import Path

from nfdl import qos, simnet
from nfdl.experiments import REQUIREMENTS, accuracy_scenario, speed_scenario


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out/qos"))
    parser.add_argument("--accuracy-reps", type=int, default=6)
    parser.add_argument("--accuracy-hours", type=float, default=1.0)
    parser.add_argument("--speed-cycles", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    reqs = qos.QosRequirements(**REQUIREMENTS)
    reports = []

    duration = int(args.accuracy_hours * 3_600_000)
    for rep in range(args.accuracy_reps):
        t0 = time.monotonic()
        trace = simnet.stream_run(
            accuracy_scenario(args.seed + rep, duration=duration),
            args.out / f"accuracy_trace_{rep:03d}.log",
        )
        report = qos.build_report(trace)
        reports.append(report)
        qos.write_lines(
            qos.metrics_csv_lines(report), args.out / f"accuracy_metrics_{rep:03d}.csv"
        )
        mistakes = sum(len(m.mistake_times) for m in report.monitors)
        print(
            f"accuracy rep {rep}: seed={args.seed + rep} "
            f"mistakes={mistakes} wall={time.monotonic() - t0:.1f}s"
        )

    t0 = time.monotonic()
    trace = simnet.stream_run(
        speed_scenario(args.seed, cycles=args.speed_cycles),
        args.out / "speed_trace.log",
    )
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
    raise SystemExit(main())
