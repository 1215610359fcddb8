#!/usr/bin/env python3
"""Steady-state heartbeat cost versus cluster size, measured and predicted.

Sweeps the process count and runs both the single-leader protocol (one
broadcast per interval regardless of size) and the all-pairs reduction
(N^2 - N unicasts per interval), writing a CSV alongside the printed table.
A bad flag value exits 2 naming the scenario key it sets, or the flag for a
--max-procs below --min-procs, before anything is written; an --out whose
directory cannot be made exits 1 before the sweep starts, and a CSV that
cannot be written exits 1.  Both print one ``error:`` line, as ``nfdl`` does.
"""

import argparse
from pathlib import Path

from nfdl.cli import exit_code
from nfdl.experiments import ALPHA_MS, COST_TABLE_HEADER, ETA_MS, cost_table_row, measure_cost
from nfdl.protocol import ProtocolConfig
from nfdl.simnet import ScenarioError, load


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-procs", type=int, default=2)
    parser.add_argument("--max-procs", type=int, default=10)
    parser.add_argument("--duration-ms", type=int, default=15_000)
    parser.add_argument("--eta-ms", type=int, default=ETA_MS)
    parser.add_argument("--alpha-ms", type=int, default=ALPHA_MS)
    parser.add_argument("--out", type=Path, default=Path("out/message_cost.csv"))
    args = parser.parse_args()

    if args.max_procs < args.min_procs:
        raise ScenarioError(
            "--max-procs", f"must be >= --min-procs ({args.min_procs}), got {args.max_procs}"
        )
    # Read as a scenario file's keys, so that an error names the key.
    config = load(ProtocolConfig, {"eta_ms": args.eta_ms, "alpha_ms": args.alpha_ms}, "config")
    # Before the sweep, so that an --out that cannot be made fails at once.
    args.out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["algorithm,procs,predicted_per_eta,measured_per_eta"]
    print(COST_TABLE_HEADER)
    for n in range(args.min_procs, args.max_procs + 1):
        for row in measure_cost(n, args.duration_ms, config):
            lines.append(
                f"{row['algorithm']},{row['procs']},"
                f"{row['predicted_per_eta']},{row['measured_per_eta']:g}"
            )
            print(cost_table_row(row))
    args.out.write_text("\n".join(lines) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(exit_code(main))
