"""Host-time benchmark of the nfdl simulator, QoS suite and CLI.

    python3 bench/run.py --workload accuracy|naive|churn --seed N \\
        --seconds S --trace 0|1

The program measured is ``src/nfdl`` of the checkout that holds this file;
the benchmark exits 2 without a result when it is missing.  The workload's
scenario is built from ``--seed`` (see ``workloads.py``) and written to a
file.  Then, for ``--seconds`` and at least MIN_REPS times, the benchmark
runs one repetition at a time, each in a fresh single-threaded process
(``child.py``), in a fresh temporary directory under ``.bench_out/``.

``--trace 0`` prints, as medians over repetitions with their count:

* ``wall_s``: host seconds from a constructed Simulator to written results
  (simulation, trace file, QoS report, CSVs);
* ``us_per_msg``: ``wall_s`` per simulated link message, in microseconds;
* ``reference_s``: seconds of a fixed loop that shares no code with nfdl,
  timed in the same process around the window (``child.reference_loop_s``);
* ``wall_norm_s`` and ``us_per_msg_norm``: ``wall_s`` and ``us_per_msg``
  scaled by ``REFERENCE_NOMINAL_S / reference_s``, that is, on a host where
  the reference loop takes REFERENCE_NOMINAL_S;
* ``setup_s``: process spawn, interpreter start, ``import nfdl`` and loading
  the scenario, up to a constructed Simulator;
* ``peak_rss_mb``: peak resident memory of the repetition's process, MiB;
* ``failed_frac``: the share of repetitions whose output checks failed.

The result line carries END_TO_END, the metrics declared in BENCHMARK.json.
The raw host times are left out of it: on a small shared host, speed drifts
by tens of percent over minutes, and the normalized times cancel most of it.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``spans.LAYER_METRICS`` as medians over the traced
ones; ``traced.overhead_s`` is the traced minus the untraced median wall.

Every repetition checks its outputs (see ``child.py``) and every
repetition's trace must hash the same, since a run is a pure function of
(scenario, seed).  A repetition that fails a check counts in ``failed``;
``failed_frac`` is printed in the table.  Each repetition's trace sha256 is
printed for comparison across commits and is not pinned.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``.bench_out/<workload>/`` keeps the result set with its environment
(``result-seed<N>-trace<T>.json``) and the spans of the last traced
repetition (``spans.npz``, see ``spans.SpanRecorder.save``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_REPS = 3
# No repetition starts after DEADLINE_S and none may take longer than
# REP_TIMEOUT_S (they take a few seconds), so a run ends within 180 s.
DEADLINE_S = 120
REP_TIMEOUT_S = 45
# Seconds the reference loop takes on a nominal host; sets the unit of the
# normalized metrics and nothing else.
REFERENCE_NOMINAL_S = 0.05

END_TO_END = (
    ("wall_norm_s", "s"),
    ("us_per_msg_norm", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
RAW_TIMES = (("wall_s", "s"), ("us_per_msg", "us"), ("reference_s", "s"))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_rep(workload: str, scenario: Path, repdir: Path, traced: bool) -> dict:
    """One repetition in a fresh process; ``failures`` lists failed checks."""
    cmd = [
        sys.executable, str(BENCH / "child.py"), "--workload", workload,
        "--scenario", str(scenario), "--repdir", str(repdir),
        "--trace", str(int(traced)),
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"failures": [f"repetition timed out after {REP_TIMEOUT_S} s"]}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return {"failures": [f"repetition exited {proc.returncode}"]}
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result.pop("setup_end") - spawned
    result["us_per_msg"] = result["wall_s"] * 1e6 / result["messages"]
    speed = REFERENCE_NOMINAL_S / result["reference_s"]
    result["wall_norm_s"] = result["wall_s"] * speed
    result["us_per_msg_norm"] = result["us_per_msg"] * speed
    return result


def measure(
    workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0
) -> dict:
    """Run repetitions for ``seconds`` and return the untraced and traced ones."""
    outdir = ROOT / ".bench_out" / workload
    outdir.mkdir(parents=True, exist_ok=True)
    scenario = outdir / f"scenario-seed{seed}.json"
    WORKLOADS[workload](seed, scale).dump(scenario)
    # Compile and page in nfdl and numpy once, so no repetition pays for it.
    subprocess.run(
        [sys.executable, "-c", "import nfdl.cli"], env=child_env(),
        cwd=ROOT, check=True, timeout=REP_TIMEOUT_S,
    )
    kinds = (False, True) if trace else (False,)
    reps: dict[bool, list[dict]] = {k: [] for k in kinds}
    started = time.monotonic()
    while True:
        elapsed = time.monotonic() - started
        enough = min(len(r) for r in reps.values()) >= MIN_REPS
        if (enough and elapsed >= seconds) or elapsed >= DEADLINE_S:
            break
        traced = kinds[sum(len(r) for r in reps.values()) % len(kinds)]
        with tempfile.TemporaryDirectory(prefix="rep-", dir=outdir) as tmp:
            reps[traced].append(run_rep(workload, scenario, Path(tmp), traced))
            spans_file = Path(tmp) / "spans.npz"
            if spans_file.exists():
                os.replace(spans_file, outdir / "spans.npz")
    return {"untraced": reps[False], "traced": reps.get(True, [])}


def check_same_trace(reps: list[dict]) -> None:
    """Flag repetitions whose trace differs from the first one's."""
    hashes = [r["trace_sha256"] for r in reps if "trace_sha256" in r]
    for r in reps:
        if "trace_sha256" in r and r["trace_sha256"] != hashes[0]:
            r["failures"].append("trace differs from the first repetition's")


def summarize(runs: dict) -> dict:
    """Failure counts, and metrics as medians over the repetitions that
    produced numbers."""
    all_reps = runs["untraced"] + runs["traced"]
    check_same_trace(all_reps)
    untraced = [r for r in runs["untraced"] if "wall_s" in r]
    traced = [r for r in runs["traced"] if r.get("layers")]
    if not untraced or (runs["traced"] and not traced):
        raise RuntimeError("no repetition produced measurements")
    e2e = {
        name: statistics.median(r[name] for r in untraced)
        for name, _unit in END_TO_END + RAW_TIMES
    }
    layers = {}
    if traced:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name, _unit in spans.LAYER_METRICS
            if name != "traced.overhead_s"
        }
        layers["traced.overhead_s"] = layers["traced.wall_s"] - e2e["wall_s"]
    return {
        "end_to_end": e2e,
        "per_layer": layers,
        "attempted": len(all_reps),
        "failed": sum(1 for r in all_reps if r["failures"]),
    }


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except FileNotFoundError:
        return None
    return proc.stdout.strip() or None


def src_sha256() -> str:
    """Hash of every source file of the program, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "workload": workload,
        "seed": seed,
    }


def rep_line(i: int, kind: str, r: dict) -> str:
    if "wall_s" not in r:
        return f"rep {i} {kind}: FAILED {'; '.join(r['failures'])}"
    status = "ok" if not r["failures"] else "FAILED " + "; ".join(r["failures"])
    return (
        f"rep {i} {kind}: setup_s={r['setup_s']:.4f} wall_s={r['wall_s']:.4f} "
        f"messages={r['messages']} peak_rss_mb={r['peak_rss_mb']:.1f} "
        f"trace_sha256={r['trace_sha256']} {status}"
    )


def main(argv: list[str] | None = None, scale: float = 1.0) -> int:
    """Command-line entry; ``scale`` shortens the workloads for smoke tests."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nfdl" / "__init__.py").is_file():
        print(f"error: no program to measure at {ROOT / 'src' / 'nfdl'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    runs = measure(args.workload, args.seed, args.seconds, bool(args.trace), scale)
    try:
        metrics = summarize(runs)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed, attempted = metrics["failed"], metrics["attempted"]
    env = environment(args.workload, args.seed)

    for kind in ("untraced", "traced"):
        for i, r in enumerate(runs[kind]):
            print(rep_line(i, kind, r))
    print("env " + json.dumps(env, sort_keys=True))
    n = len([r for r in runs["untraced"] if "wall_s" in r])
    print(f"{args.workload}: medians over {n} untraced repetitions")
    for name, unit in RAW_TIMES + END_TO_END:
        print(f"  {name:<32} {metrics['end_to_end'][name]:>14.6g} {unit}")
    print(f"  {'failed_frac':<32} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} repetitions)")
    if args.trace:
        n = len([r for r in runs["traced"] if r.get("layers")])
        print(f"{args.workload}: per-layer medians over {n} traced repetitions")
        for name, unit in spans.LAYER_METRICS:
            print(f"  {name:<32} {metrics['per_layer'][name]:>14.6g} {unit}")

    table = END_TO_END if not args.trace else spans.LAYER_METRICS
    values = metrics["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in table},
    }
    record = ROOT / ".bench_out" / args.workload / (
        f"result-seed{args.seed}-trace{args.trace}.json")
    record.write_text(json.dumps({"env": env, **result, "runs": runs}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
