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
and the all-pairs reduction, next to their analytic predictions;
``nfdl compare-cost`` and ``scripts/sweep_message_cost.py`` print its rows
as one table, ``COST_TABLE_HEADER`` over ``cost_table_row`` lines.
"""

from __future__ import annotations

from .protocol import ProtocolConfig, naive_reduction_cost
from .qos import sends_per_eta
from .simnet import FaultEvent, NetworkModel, Scenario, ScenarioError, run

# Operating point used throughout the measurement suite.
ETA_MS = 330
ALPHA_MS = 670
LOSS_PROB = 0.0175917
DELAY_MEAN_MS = 5.0
DELAY_VAR_MS2 = 25.3356

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
    leader: int = 2,
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
        faults.append(FaultEvent(crash, leader, "crash"))
        faults.append(FaultEvent(crash + downtime, leader, "recover"))
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
        high_priority=leader,
    )


def measure_cost(
    n: int, duration: int, config: ProtocolConfig, seed: int = 0
) -> list[dict]:
    """Steady-state sends per eta for both algorithms, with predictions."""
    if n < 2:
        raise ScenarioError("n_processes", f"need at least 2 processes, got {n}")
    network = NetworkModel()
    settle = 3 * (config.eta + config.alpha)
    start = -(-settle // config.eta) * config.eta  # round up to the send grid
    periods = (duration - start) // config.eta - 1
    if periods < 1:
        raise ScenarioError(
            "duration_ms", f"{duration} ms is too short to reach steady state; "
            f"need more than {start + 2 * config.eta} ms"
        )
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
        trace = run(scenario)
        measured = sends_per_eta(trace, start, periods)
        rows.append(
            {
                "algorithm": algorithm,
                "procs": n,
                "predicted_per_eta": predicted,
                "measured_per_eta": measured,
            }
        )
    return rows


def cost_table_row(row: dict) -> str:
    """One ``measure_cost`` row as a line of the printed cost table."""
    return (f"{row['algorithm']:<18}{row['procs']:>6}"
            f"{row['predicted_per_eta']:>15}{row['measured_per_eta']:>14g}")
