#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, kept as one record.

    python3 scripts/bench_pairs.py --parent REV --out BENCH_name.json \\
        [--pairs 10] [--seed 1] [--claim WORKLOAD:METRIC]

The change is the checkout that holds this script; the parent is the commit
``REV``, exported with ``git archive`` under ``.bench_out/pairs/``.  For each
workload of BENCHMARK.json, pair i runs each tree's own ``bench/run.py
--trace 0`` at seed ``--seed`` + i for ``run_seconds`` of BENCHMARK.json,
the parent first in even pairs and the change first in odd ones, so that
drift of the host's speed falls on both sides alike.

A pair is rejected when the two sides' trace sha256 values differ, or when
either side's run failed: a run is a pure function of (scenario, seed), so
the change moved an output byte.  The record holds ``what``, ``host``,
``summary``, ``claim`` and ``runs``.  ``summary`` gives, per workload and
end-to-end metric of BENCHMARK.json over the accepted pairs, each side's
median and quartiles (numpy's linear 25th and 75th percentiles), the ratio
of the medians, the parent's interquartile range and the pairs in which the
change reads lower.  ``claim`` applies the rule of a claimed gain to one
workload's metric: at least ten pairs ran and none was rejected, the
change is better in at least nine tenths of them, ties counting for
neither, its median is better than the parent's by more than the parent's
interquartile range, and its runs failed no more operations than the
parent's.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def export(rev: str) -> Path:
    """A fresh copy of commit ``rev``'s files under ``.bench_out/pairs/``."""
    sha = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    tree = ROOT / ".bench_out" / "pairs" / sha
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(tree, filter="data")
    return tree


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          check=True).stdout


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py --trace 0`` run of ``tree``: its end-to-end
    medians, repetition counts and trace hashes, or the error it gave."""
    proc = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return {"error": f"bench/run.py exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((tree / ".bench_out" / workload /
                         f"result-seed{seed}-trace0.json").read_text())
    hashes = sorted({r["trace_sha256"] for r in record["runs"]["untraced"]
                     if "trace_sha256" in r})
    out = {name: m["value"] for name, m in result["metrics"].items()}
    return out | {"attempted": result["attempted"], "failed": result["failed"],
                  "trace_sha256": hashes}


def compare(parent: list[float], change: list[float]) -> dict:
    """One metric's summary over pairs: ``parent[i]`` and ``change[i]`` are
    pair i's two runs."""
    pq, cq = np.percentile(parent, [25, 75]), np.percentile(change, [25, 75])
    pm, cm = float(np.median(parent)), float(np.median(change))
    return {
        "parent_median": round(pm, 4), "parent_quartiles": [round(float(q), 4) for q in pq],
        "change_median": round(cm, 4), "change_quartiles": [round(float(q), 4) for q in cq],
        "ratio": round(cm / pm, 4),
        "parent_iqr": round(float(pq[1] - pq[0]), 4),
        "change_lower_pairs": sum(c < p for p, c in zip(parent, change)),
        "tied_pairs": sum(c == p for p, c in zip(parent, change)),
        "pairs": len(parent),
    }


def summarize(runs: list[dict], metrics: dict[str, str],
              claim: tuple[str, str] | None = None) -> tuple[dict, dict | None]:
    """The record's ``summary`` and ``claim`` from its ``runs``.

    ``metrics`` maps each end-to-end metric to its better direction,
    "lower" or "higher"; ``claim`` is (workload, metric) or None."""
    sides: dict[str, dict[int, dict]] = {}
    for run in runs:
        sides.setdefault(run["workload"], {}).setdefault(run["pair"], {})[run["side"]] = run
    summary = {}
    for workload, by_pair in sides.items():
        accepted, rejected = [], []
        for pair, both in sorted(by_pair.items()):
            parent, change = both.get("parent", {}), both.get("change", {})
            hashes = parent.get("trace_sha256")
            if hashes and hashes == change.get("trace_sha256"):
                accepted.append((parent, change))
            else:
                rejected.append(pair)
        entry = summary[workload] = {
            "traces_match": not rejected,
            "rejected_pairs": rejected,
            "failed": {side: sum(pair[i]["failed"] for pair in accepted)
                       for i, side in enumerate(SIDES)},
            "attempted": {side: sum(pair[i]["attempted"] for pair in accepted)
                          for i, side in enumerate(SIDES)},
        }
        if accepted:
            for name in metrics:
                entry[name] = compare([p[name] for p, _ in accepted],
                                      [c[name] for _, c in accepted])
    if claim is None:
        return summary, None
    workload, name = claim
    entry = summary.get(workload, {})
    m = entry.get(name)
    if m is None:
        return summary, {"metric": f"{workload} {name}", "met": False}
    lower = metrics[name] == "lower"
    better = (m["change_lower_pairs"] if lower
              else m["pairs"] - m["change_lower_pairs"] - m["tied_pairs"])
    gap = round((m["parent_median"] - m["change_median"]) * (1 if lower else -1), 4)
    return summary, {
        "metric": f"{workload} {name}",
        "parent_median": m["parent_median"], "change_median": m["change_median"],
        "ratio": m["ratio"], "change_better_pairs": better, "pairs": m["pairs"],
        "median_gap": gap, "parent_iqr": m["parent_iqr"],
        "met": (entry["traces_match"] and m["pairs"] >= 10 and 10 * better >= 9 * m["pairs"]
                and gap > m["parent_iqr"]
                and entry["failed"]["change"] <= entry["failed"]["parent"]),
    }


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    parser.add_argument("--claim", help="WORKLOAD:METRIC, a claimed gain to check")
    args = parser.parse_args(argv)
    metrics = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    if args.pairs < 1:
        parser.error(f"--pairs: must be >= 1, got {args.pairs}")
    if claim is not None and (len(claim) != 2 or claim[0] not in workloads
                              or claim[1] not in metrics):
        parser.error(f"--claim: must be a workload and an end-to-end "
                     f"metric, got {args.claim!r}")
    # Checked before the runs, which take minutes, rather than at the write.
    if not args.out.parent.is_dir():
        parser.error(f"--out: no directory {args.out.parent}")
    try:
        trees = {"parent": export(args.parent), "change": ROOT}
    except subprocess.CalledProcessError:
        parser.error(f"--parent: not a commit of this repository: {args.parent!r}")
    change = git("describe", "--always", "--dirty", "--abbrev=12").decode().strip()
    runs = []
    for workload in workloads:
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                run = {"side": side, "workload": workload, "seed": seed, "pair": pair,
                       "first": order[0]}
                run |= run_side(trees[side], workload, seed, seconds)
                runs.append(run)
                print(json.dumps(run), flush=True)
    summary, verdict = summarize(runs, metrics, claim)
    record = {
        "what": (f"bench/run.py --trace 0 --seconds {seconds:g}, {args.pairs} "
                 f"alternating parent/change pairs per workload on seeds {args.seed}-"
                 f"{args.seed + args.pairs - 1}; parent {args.parent} ({trees['parent'].name}), "
                 f"change the checkout at {change}. Metric values are each run's medians "
                 "over its repetitions, as bench/run.py prints them."),
        "host": (f"{platform.platform()}, {len(os.sched_getaffinity(0))} "
                 f"usable CPUs, Python {platform.python_version()}, numpy {np.__version__}"),
        "summary": summary,
        "claim": verdict,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"summary": summary, "claim": verdict}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
