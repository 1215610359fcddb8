"""Canned measurement scenarios and the message-cost measurement.

Two experiment families, mirroring how the detector's QoS is assessed:

* accuracy - fail-free hour-long runs on a lossy, jittery network; every
  output flip away from the stable leader is a mistake, so the runs feed
  the mistake-rate and mistake-duration metrics.
* speed - crash/recover cycles of a pinned high-priority leader (it gets
  re-elected immediately after every recovery), feeding the detection and
  recovery-detection metrics.

Crash instants in the speed schedule sweep the whole heartbeat interval in
evenly spaced offsets from the send grid: detection latency depends on how
far past the last heartbeat the crash lands, so sweeping the phase probes
the full latency range instead of sampling one lucky point.

``measure_cost`` counts steady-state heartbeats per eta for the election
and the all-pairs reduction, next to their analytic predictions, as each run
hands its trace lines on, so it keeps no trace;
``nfdl compare-cost`` and ``scripts/sweep_message_cost.py`` print its rows
as one table, ``COST_TABLE_HEADER`` over ``cost_table_row`` lines.

``run_and_score`` is the one run-and-score driver, which ``nfdl run`` and
``scripts/run_qos_experiments.py`` call: it checks a set of runs at
consecutive seeds before anything is written, then streams, scores and
writes each run's trace and metrics CSV in turn, yielding its report;
``write_summary`` writes the pooled ``summary.csv`` and ``report.txt``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from pathlib import Path

from . import qos, simnet
from .protocol import ProtocolConfig, naive_reduction_cost
from .simnet import FaultEvent, NetworkModel, Scenario, ScenarioError, Simulator
from .stable_store import FileStore

# Operating point used throughout the measurement suite.
ETA_MS = 330
ALPHA_MS = 670
LOSS_PROB = 0.0175917
DELAY_MEAN_MS = 5.0
DELAY_VAR_MS2 = 25.3356
# The speed runs' pinned high-priority leader.
SPEED_LEADER = 2

# The suite's QoS requirements, keyed as in a file read by
# ``simnet.load(QosRequirements, ...)``.
REQUIREMENTS = {"t_d_max_ms": 1000, "t_mr_min_ms": 3_600_000, "t_m_max_ms": 1000}

COST_TABLE_HEADER = f"{'algorithm':<18}{'procs':>6}{'predicted/eta':>15}{'measured/eta':>14}"


def measured_network() -> NetworkModel:
    return NetworkModel(
        loss_prob=LOSS_PROB,
        delay_mean=DELAY_MEAN_MS,
        delay_var=DELAY_VAR_MS2,
        delay_dist="normal",
    )


def accuracy_scenario(seed: int, duration: int = 3_600_000, n: int = 5) -> Scenario:
    """Fail-free run; the naturally elected leader stays up throughout."""
    return Scenario(
        n_processes=n,
        config=ProtocolConfig(ETA_MS, ALPHA_MS),
        network=measured_network(),
        duration=duration,
        seed=seed,
        algorithm="nfdl",
    )


def speed_scenario(
    seed: int,
    cycles: int = 10,
    n: int = 5,
    downtime: int = 60_000,
    spacing: int = 60_000,
) -> Scenario:
    """Crash/recover cycles of a pinned leader, crash phases sweeping eta."""
    eta = ETA_MS
    faults = []
    at = 10_000
    for k in range(cycles):
        base = (at // eta) * eta
        phase = (k + 1) * eta // cycles
        crash = base + phase
        faults.append(FaultEvent(crash, SPEED_LEADER, "crash"))
        faults.append(FaultEvent(crash + downtime, SPEED_LEADER, "recover"))
        at = crash + downtime + spacing
    duration = at + 10_000
    return Scenario(
        n_processes=n,
        config=ProtocolConfig(ETA_MS, ALPHA_MS),
        network=measured_network(),
        duration=duration,
        seed=seed,
        algorithm="nfdl",
        faults=tuple(faults),
        high_priority=SPEED_LEADER,
    )


def cost_window(
    n: int, duration: int, config: ProtocolConfig, seed: int = 0
) -> tuple[int, int]:
    """The steady-state window of ``measure_cost``'s runs, ``(start,
    periods)``: [start, start + periods*eta), start on the send grid.  Raises
    ``ScenarioError`` naming the key when the runs are invalid or too short
    to reach steady state."""
    if n < 2:
        raise ScenarioError("n_processes", f"need at least 2 processes, got {n}")
    Scenario(n, config, NetworkModel(), duration, seed).validate()
    settle = 3 * (config.eta + config.alpha)
    start = -(-settle // config.eta) * config.eta  # round up to the send grid
    periods = (duration - start) // config.eta - 1
    if periods < 1:
        raise ScenarioError(
            "duration_ms", f"{duration} ms is too short to reach steady state; "
            f"need more than {start + 2 * config.eta} ms"
        )
    return start, periods


def measure_cost(
    n: int, duration: int, config: ProtocolConfig, seed: int = 0
) -> list[dict]:
    """Steady-state sends per eta for both algorithms, with predictions."""
    start, periods = cost_window(n, duration, config, seed)
    network = NetworkModel()
    end = start + periods * config.eta
    rows = []
    for algorithm, predicted in (
        ("nfdl", 1),
        ("naive-reduction", naive_reduction_cost(n)),
    ):
        scenario = Scenario(
            n_processes=n,
            config=config,
            network=network,
            duration=duration,
            seed=seed,
            algorithm=algorithm,
        )
        rows.append(
            {
                "algorithm": algorithm,
                "procs": n,
                "predicted_per_eta": predicted,
                "measured_per_eta": _sends_within(scenario, start, end) / periods,
            }
        )
    return rows


def _sends_within(scenario: Scenario, start: int, end: int) -> int:
    """The sends of a run of ``scenario`` timed in [start, end), read with
    ``qos.send_times`` from each batch of lines as the run hands it on: no
    line is kept."""
    sends = 0

    def count(batch: str) -> None:
        nonlocal sends
        sends += sum(start <= t < end for t in qos.send_times(batch.split("\n")))

    Simulator(scenario, sink=count).run()
    return sends


def cost_table_row(row: dict) -> str:
    """One ``measure_cost`` row as a line of the printed cost table."""
    return (f"{row['algorithm']:<18}{row['procs']:>6}"
            f"{row['predicted_per_eta']:>15}{row['measured_per_eta']:>14g}")


def run_and_score(
    out: Path, count: int, run: Callable[[int], tuple[Scenario, str, str | None]],
    state_dir: Path | None = None,
) -> Iterator[qos.MetricsReport | qos.NoTrueLeaderError]:
    """Run and score ``count`` runs at consecutive seeds, ``run(i)`` building
    the i-th as ``(scenario, trace name, metrics CSV name or None)`` only
    when it is checked or started.

    The runs differ in their seed alone, so checking the first and the last
    checks them all: that happens now, raising the ``ScenarioError``, and
    the iterator returned runs them in order.  Nothing is written until the
    first run is asked for; the iterator then opens ``state_dir``'s store,
    which the runs share, makes ``out``, and for each run streams its trace
    into ``out`` (``simnet.stream_run``), scores it (``qos.build_report``),
    writes its metrics CSV if it names one, and yields its report.  A run
    with no true leader keeps its trace, is not scored, and yields the
    ``NoTrueLeaderError`` that says why."""
    run(0)[0].validate()
    run(count - 1)[0].validate()
    return _run_and_score(out, map(run, range(count)), state_dir)


def _run_and_score(out, runs, state_dir):
    store = FileStore(state_dir) if state_dir else None
    out.mkdir(parents=True, exist_ok=True)
    for scenario, trace_name, metrics_name in runs:
        trace = simnet.stream_run(scenario, out / trace_name, store=store)
        try:
            report = qos.build_report(trace)
        except qos.NoTrueLeaderError as exc:
            yield exc
            continue
        if metrics_name:
            qos.write_lines(qos.metrics_csv_lines(report), out / metrics_name)
        yield report


def write_summary(out: Path, reports: list[qos.MetricsReport],
                  reqs: qos.QosRequirements | None, fmt: str = "both") -> None:
    """Write the pooled ``summary.csv`` (``fmt`` "csv" or "both") and
    ``report.txt`` ("txt" or "both") of ``reports`` into ``out``; with no
    reports, nothing."""
    if reports and fmt != "txt":
        qos.write_lines(qos.summary_csv_lines(reports, reqs), out / "summary.csv")
    if reports and fmt != "csv":
        qos.write_lines(qos.text_report_lines(reports, reqs), out / "report.txt")
