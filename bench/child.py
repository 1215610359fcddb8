"""One benchmark repetition, run in a fresh single-threaded process.

    python3 bench/child.py --workload W --scenario S --repdir D --trace 0|1

Loads scenario file S, builds a Simulator, runs the workload to written
results inside D, checks the outputs, and prints one JSON object as its last
stdout line.  ``nfdl`` must be importable (the benchmark puts the checkout's
``src`` on PYTHONPATH).

Set-up ends when ``Simulator.__init__`` returns: that instant is reported on
the system-wide monotonic clock, so the parent can subtract its own spawn
time.  The measured window runs from there to written results; just
before and after it the process times ``reference_loop_s``.  With
``--trace 1`` every public entry point listed in ``spans.ENTRY_POINTS`` is
wrapped first and the result also carries the per-layer metrics.

Output checks, each of which holds for any seed:

* every process writes its zerotime exactly once (the store's write counts);
* accuracy: all survivors agree on one final leader;
* naive: steady-state sends per eta equal ``naive_reduction_cost(N)``;
* churn: the fresh state dir holds exactly N zerotime records, and no
  detection or recovery-detection sample is missing in ``metrics_000.csv``.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from nfdl import cli, qos, simnet
from nfdl.protocol import naive_reduction_cost

import spans
from workloads import WORKLOADS


def reference_loop_s() -> float:
    """Seconds taken by one pass of a fixed loop that shares no code with nfdl.

    The loop mixes what the simulator spends its time on: tuple heap
    traffic, dict updates and numpy generator construction.  It runs three
    times just before and three times just after the measured window, so
    dividing by it removes most of the host's speed drift between runs
    while every change to nfdl stays visible.
    """
    t0 = time.perf_counter()
    heap: list[tuple[int, int]] = []
    counts: dict[int, int] = {}
    for i in range(30_000):
        heapq.heappush(heap, (i * 7919 % 1009, i))
        counts[i % 509] = counts.get(i % 509, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    for k in range(300):
        ss = np.random.SeedSequence(entropy=k, spawn_key=(1, k, 2))
        np.random.Generator(np.random.PCG64(ss)).normal(5.0, 5.0)
    return time.perf_counter() - t0


def check_zerotimes_written_once(sim) -> list[str]:
    n = sim.scenario.n_processes
    writes = dict(sim.store.writes)
    if writes != {pid: 1 for pid in range(n)}:
        return [f"zerotime writes per process should all be 1, got {writes}"]
    return []


def check_agreement(trace) -> list[str]:
    finals = trace.final_outputs
    leaders = set(finals.values())
    if sorted(finals) != list(range(trace.scenario.n_processes)) or len(leaders) != 1:
        return [f"survivors disagree on the final leader: {finals}"]
    return []


def check_naive_cost(trace) -> list[str]:
    # The steady-state window of `nfdl compare-cost`.
    cfg = trace.scenario.config
    settle = 3 * (cfg.eta + cfg.alpha)
    start = -(-settle // cfg.eta) * cfg.eta
    periods = (trace.scenario.duration - start) // cfg.eta - 1
    measured = qos.sends_per_eta(trace, start, periods)
    expected = naive_reduction_cost(trace.scenario.n_processes)
    if measured != expected:
        return [f"steady-state sends per eta {measured} != {expected}"]
    return []


def check_churn_artifacts(n: int, state_dir: Path, metrics_csv: Path) -> list[str]:
    failures = []
    records = sorted(p.name for p in state_dir.iterdir())
    if records != sorted(f"zerotime.{pid}" for pid in range(n)):
        failures.append(f"state dir should hold exactly {n} zerotime records")
    speed_rows = 0
    for row in metrics_csv.read_text().splitlines()[1:]:
        metric, monitor, _n, missing, *_ = row.split(",")
        if metric in ("detection_time_ms", "recovery_detection_ms"):
            speed_rows += 1
            if missing != "0":
                failures.append(f"{metric} monitor {monitor}: {missing} missing")
    if speed_rows != 2 * (n - 1):
        failures.append(f"expected {2 * (n - 1)} speed rows, got {speed_rows}")
    return failures


def run_once(workload: str, scenario_path: Path, repdir: Path, traced: bool) -> dict:
    rec = spans.SpanRecorder() if traced else None
    if traced:
        spans.instrument(rec)

    mark: dict = {}
    simulator_init = simnet.Simulator.__init__

    def init_then_mark(self, *args, **kwargs):
        simulator_init(self, *args, **kwargs)
        mark["sim"] = self
        mark["setup_end"] = time.monotonic()
        mark["reference"] = [reference_loop_s() for _ in range(3)]
        mark["first_span"] = len(rec) if traced else 0
        mark["t0"] = time.perf_counter_ns()

    simnet.Simulator.__init__ = init_then_mark

    state_dir, out = repdir / "state", repdir / "out"
    if workload == "churn":
        # End to end through the CLI, with stable storage on disk.
        code = cli.main([
            "run", "--scenario", str(scenario_path),
            "--state-dir", str(state_dir), "--out", str(out),
        ])
        trace_path, metrics_csv = out / "trace_000.log", out / "metrics_000.csv"
    else:
        out.mkdir(parents=True, exist_ok=True)
        trace_path, metrics_csv = out / "trace.log", out / "metrics.csv"
        trace = simnet.Simulator(simnet.Scenario.load(scenario_path)).run()
        trace.write(trace_path)
        report = qos.build_report(trace)
        qos.write_lines(qos.metrics_csv_lines(report), metrics_csv)
        code = 0
    t1 = time.perf_counter_ns()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference = mark["reference"] + [reference_loop_s() for _ in range(3)]

    sim = mark["sim"]
    trace = sim.trace
    layers = None
    if traced:
        window = (mark["first_span"], mark["t0"], t1)
        layers = spans.layer_metrics(
            rec, window, len(trace.events), trace_path.stat().st_size
        )
        rec.save(repdir / "spans.npz")

    failures = [] if code == 0 else [f"nfdl run exited {code}"]
    failures += check_zerotimes_written_once(sim)
    if workload == "accuracy":
        failures += check_agreement(trace)
    elif workload == "naive":
        failures += check_naive_cost(trace)
    elif workload == "churn":
        failures += check_churn_artifacts(
            sim.scenario.n_processes, state_dir, metrics_csv
        )
    return {
        "failures": failures,
        "setup_end": mark["setup_end"],
        "wall_s": (t1 - mark["t0"]) / 1e9,
        "reference_s": statistics.median(reference),
        "messages": sum(trace.link_sent.values()),
        "peak_rss_mb": peak_rss_mb,
        "trace_sha256": hashlib.sha256(trace_path.read_bytes()).hexdigest(),
        "layers": layers,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--scenario", type=Path, required=True)
    parser.add_argument("--repdir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run_once(args.workload, args.scenario, args.repdir, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
