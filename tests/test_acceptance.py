"""Acceptance suite: the exit criteria, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion plus the observed values behind it.
"""

import random
import statistics
import time
from contextlib import contextmanager

import pytest

from nfdl import qos
from nfdl.estimator import ArrivalWindow
from nfdl.experiments import accuracy_scenario, measure_cost, speed_scenario
from nfdl.protocol import Heartbeat, NfdlProcess, ProtocolConfig, naive_reduction_cost
from nfdl.simnet import FaultEvent, NetworkModel, Scenario, Simulator, run


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {name}: PASS")


def max_observed_delay(trace):
    sends = {}
    for ev in trace.events:
        if ev.kind == "send":
            sends[(ev.process, ev.seq)] = ev.time
    return max(
        ev.time - sends[(ev.sender, ev.seq)]
        for ev in trace.events
        if ev.kind == "deliver"
    )


@pytest.fixture(scope="module")
def speed_run():
    start = time.monotonic()
    trace = run(speed_scenario(seed=0))
    elapsed = time.monotonic() - start
    return trace, qos.build_report(trace), elapsed


def test_detection_bound(speed_run):
    trace, report, elapsed = speed_run
    with criterion("detection-bound"):
        samples = [s for m in report.monitors for s in m.detection_present]
        missing = sum(m.detection.count(None) for m in report.monitors)
        assert missing == 0
        assert len(samples) == 40  # 4 monitors x 10 cycles
        d_max = max_observed_delay(trace)
        assert all(s <= 1000 + d_max for s in samples)
        median = qos.quartiles(samples)[1]
        print(f"\n  T_D n={len(samples)} median={median} (target 741.5 +-15%), "
              f"d_max={d_max}, wall={elapsed:.1f}s")
        assert 741.5 * 0.85 <= median <= 741.5 * 1.15
        assert elapsed < 30.0


def test_recovery_detection_bound(speed_run):
    _, report, _ = speed_run
    with criterion("recovery-detection"):
        samples = [s for m in report.monitors for s in m.recovery_present]
        missing = sum(m.recovery.count(None) for m in report.monitors)
        assert missing == 0
        assert len(samples) == 40
        q1, q2, q3 = qos.quartiles(samples)
        print(f"\n  T_DR n={len(samples)} quartiles=({q1}, {q2}, {q3})")
        assert all(s <= 1000 for s in samples)


def test_accuracy_fail_free():
    with criterion("accuracy"):
        rates, mean_durations, all_durations = [], [], []
        for seed in range(6):
            report = qos.build_report(run(accuracy_scenario(seed)))
            for m in report.monitors:
                rates.append(m.rate)
                all_durations.extend(m.durations)
                if m.mean_duration is not None:
                    mean_durations.append(m.mean_duration)
        assert len(rates) == 24  # 4 monitors x 6 runs
        print(f"\n  mistake rates: n={len(rates)} median={statistics.median(rates)} "
              f"nonzero={sum(r > 0 for r in rates)}; "
              f"T_M observed={sorted(all_durations)}")
        assert statistics.median(rates) == 0
        assert all(d <= 1000 for d in all_durations)
        assert all(d <= 1000 for d in mean_durations)


def test_message_cost_exact():
    with criterion("message-cost"):
        config = ProtocolConfig(eta=330, alpha=670)
        for n in range(2, 11):
            rows = {
                row["algorithm"]: row
                for row in measure_cost(n, duration=15_000, config=config)
            }
            naive = rows["naive-reduction"]["measured_per_eta"]
            leader = rows["nfdl"]["measured_per_eta"]
            assert naive == naive_reduction_cost(n) == n * n - n, n
            assert leader == 1.0, n
        print("\n  N in 2..10: naive == N^2-N and nfdl == 1, exactly")


def test_arrival_prediction_oracle():
    with criterion("arrival-prediction-oracle"):
        rng = random.Random(0xE57)
        worst = 0.0
        for i in range(10_000):
            eta = rng.randint(1, 2000)
            size = rng.randint(1, 1000) if i % 10 == 0 else rng.randint(1, 50)
            seq = rng.randint(1, 1000)
            entries = []
            for _ in range(size):
                entries.append((seq, eta * seq + rng.randint(-1000, 100_000)))
                seq += rng.randint(1, 4)
            w = ArrivalWindow(size)
            for s, a in entries:
                w.record(s, a)
            next_seq = entries[-1][0] + 1
            got = w.expected_arrival(eta, next_seq)
            # independent recomputation in float arithmetic
            shifted = [a - eta * s for s, a in entries]
            oracle = sum(shifted) / len(shifted) + next_seq * eta
            rel = abs(got - oracle) / max(1.0, abs(oracle))
            worst = max(worst, abs(got - oracle) - 0.5)
            assert abs(got - oracle) <= 0.5 + 1e-9 * abs(oracle)
            # exact shift equivariance in the integer output
            c = rng.randint(-10**6, 10**6)
            ws = ArrivalWindow(size)
            for s, a in entries:
                ws.record(s, a + c)
            assert ws.expected_arrival(eta, next_seq) == got + c
        print(f"\n  10000 windows: |impl - float oracle| <= 0.5 "
              f"(worst overshoot {max(worst, 0):.2e}); shifts exact")


def test_label_monotonicity_random_schedules():
    with criterion("label-monotonicity"):
        rng = random.Random(20250809)
        pairs_checked = 0
        for case in range(100):
            faults, t = [], 0
            for _ in range(rng.randint(1, 4)):
                t += rng.randint(1500, 8000)
                crash = t
                t += rng.randint(500, 8000)
                faults.append(FaultEvent(crash, 0, "crash"))
                faults.append(FaultEvent(t, 0, "recover"))
            sc = Scenario(
                n_processes=3,
                config=ProtocolConfig(330, 670),
                network=NetworkModel(0.0, 3.0, 0.0, "constant"),
                duration=t + 8000,
                seed=case,
                algorithm="nfdl",
                faults=tuple(faults),
                high_priority=0,
            )
            trace = run(sc)
            per_process: dict[int, list[int]] = {}
            for ev in trace.events:
                if ev.kind == "send":
                    per_process.setdefault(ev.process, []).append(ev.seq)
            assert any(per_process.values())
            for pid, seqs in per_process.items():
                for a, b in zip(seqs, seqs[1:]):
                    pairs_checked += 1
                    assert b > a, (case, pid, a, b)
        print(f"\n  100 random crash/recover schedules, "
              f"{pairs_checked} consecutive label pairs, zero non-increasing")


def test_stable_storage_economy(speed_run):
    trace, _, _ = speed_run
    with criterion("storage-economy"):
        recoveries: dict[int, int] = {}
        for f in trace.scenario.faults:
            if f.kind == "recover":
                recoveries[f.process] = recoveries.get(f.process, 0) + 1
        for pid in range(trace.scenario.n_processes):
            assert trace.store_writes[pid] == 1, pid
            assert trace.store_reads[pid] == 1 + recoveries.get(pid, 0), pid
        # a fail-free run reads once per process and still writes once
        fresh = run(accuracy_scenario(seed=0, duration=20_000))
        assert fresh.store_writes == {p: 1 for p in range(5)}
        assert fresh.store_reads == {p: 1 for p in range(5)}
        print("\n  writes per process == 1, reads == initializations, exactly")


def test_agreement_and_stability():
    with criterion("agreement-stability"):
        sc = Scenario(
            n_processes=5,
            config=ProtocolConfig(330, 670),
            network=NetworkModel(0.0, 5.0, 0.0, "constant"),
            duration=3_600_000,
            seed=42,
            algorithm="nfdl",
        )
        sim = Simulator(sc)
        trace = sim.run()
        finals = set(trace.final_outputs.values())
        assert len(finals) == 1
        leader = finals.pop()
        changes = [ev.time for ev in trace.events if ev.kind == "output_change"]
        assert max(changes) <= 5_000  # converged within 5 simulated seconds
        assert not [t for t in changes if t > 5_000]  # zero changes for the hour
        # a newcomer with zero uptime never displaces the incumbent
        incumbent = sim.nodes[leader]
        assert incumbent.last_sent_uptime > 0
        end = sc.duration
        for pid, node in enumerate(sim.nodes):
            out = node.on_heartbeat(Heartbeat(seq=1, sender=pid + 100, uptime=0), end)
            assert not out.changed
            assert node.leader == leader
        print(f"\n  converged on {leader} by {max(changes)}ms, stable for 1h, "
              f"uptime-0 challengers ignored")


def test_determinism_byte_identical():
    with criterion("determinism"):
        sc = speed_scenario(seed=17, cycles=3)
        t1, t2 = run(sc), run(sc)
        assert t1.lines() == t2.lines()
        r1, r2 = qos.build_report(t1), qos.build_report(t2)
        assert qos.metrics_csv_lines(r1) == qos.metrics_csv_lines(r2)
        assert qos.summary_csv_lines([r1]) == qos.summary_csv_lines([r2])
        print(f"\n  {len(t1.lines())} trace lines and all CSVs byte-identical")
