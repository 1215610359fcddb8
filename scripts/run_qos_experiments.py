#!/usr/bin/env python3
"""Run the two measurement campaigns and print a quartile summary table.

Accuracy: 6 fail-free one-hour runs on the measured lossy network; reports
per-monitor mistake rates and durations.  Speed: 10 crash-recovery cycles of
a pinned high-priority leader; reports detection and recovery-detection
times.  Artifacts (traces, per-run metrics CSVs, pooled summary CSV, text
report) land in the output directory, written by ``nfdl run``'s driver,
``experiments.run_and_score``, which streams each trace to disk as it goes,
so a run holds no event list.  An accuracy run with no true leader (too
short to elect one) keeps its trace but gets no metrics CSV and stays out
of the pooled summary.  A bad flag value exits 2 naming the scenario key it
sets, or the flag for a count below 1 or an --accuracy-hours with no finite
duration, before anything is written; the accuracy runs' seeds are
consecutive, so only the first and the last are checked.  An output
directory that cannot be made exits 1.  Both print one ``error:`` line, as
``nfdl`` does.
"""

import math
import time
from pathlib import Path

from nfdl import experiments, qos, simnet
from nfdl.cli import Parser, exit_code


def main() -> int:
    parser = Parser(description=__doc__)
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
    # Both run sets are checked here, before anything is written.
    accuracy = experiments.run_and_score(args.out, args.accuracy_reps, lambda rep: (
        experiments.accuracy_scenario(args.seed + rep, duration=duration),
        f"accuracy_trace_{rep:03d}.log", f"accuracy_metrics_{rep:03d}.csv"))
    speed = experiments.run_and_score(args.out, 1, lambda _: (
        experiments.speed_scenario(args.seed, cycles=args.speed_cycles),
        "speed_trace.log", "speed_metrics.csv"))
    reqs = simnet.load(qos.QosRequirements, experiments.REQUIREMENTS)
    reports = []

    t0 = time.monotonic()
    for rep, report in enumerate(accuracy):
        if isinstance(report, qos.NoTrueLeaderError):
            # As `nfdl run` does: the trace stays, the run is not scored.
            print(f"accuracy rep {rep}: seed={args.seed + rep} not scored: {report}")
        else:
            reports.append(report)
            mistakes = sum(len(m.mistake_times) for m in report.monitors)
            print(f"accuracy rep {rep}: seed={args.seed + rep} "
                  f"mistakes={mistakes} wall={time.monotonic() - t0:.1f}s")
        t0 = time.monotonic()

    [speed_report] = speed
    reports.append(speed_report)
    samples = [s for m in speed_report.monitors for s in m.detection_present]
    print(
        f"speed: {args.speed_cycles} cycles, {len(samples)} detection samples, "
        f"wall={time.monotonic() - t0:.1f}s"
    )

    experiments.write_summary(args.out, reports, reqs)
    print("\nquartile summary (pooled over monitors and runs):")
    for line in qos.summary_csv_lines(reports, reqs):
        print(" ", line.replace(",", "\t"))
    print(f"\nartifacts in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(exit_code(main))
