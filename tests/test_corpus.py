"""Frozen corpus: byte-level fingerprints of traces and reports.

Each scenario below pins the sha256 of its trace file and of its metrics
CSV (or records that ``build_report`` refuses the trace).  Together they
cover all three algorithms, crashes and recoveries, loss, jitter, every
delay law and on-disk stable storage, so a refactor of the simulator or the
QoS suite that changes a single byte of output fails here.  A change that
alters output on purpose updates the hashes and says why in CHANGES.md.
"""

import hashlib

import pytest

from nfdl import cli, qos
from nfdl.experiments import accuracy_scenario, measured_network, speed_scenario
from nfdl.protocol import ProtocolConfig
from nfdl.simnet import FaultEvent, NetworkModel, Scenario, run

CFG = ProtocolConfig(eta=330, alpha=670, window_n=100)
QUIET = NetworkModel(loss_prob=0.0, delay_mean=5.0, delay_var=0.0, delay_dist="constant")
LOSSY = NetworkModel(
    loss_prob=0.0175917, delay_mean=5.0, delay_var=25.3356, delay_dist="normal"
)
INSTANT = NetworkModel(loss_prob=0.0, delay_mean=0.0, delay_var=0.0, delay_dist="constant")
UNIFORM = NetworkModel(
    loss_prob=0.01, delay_mean=6.0, delay_var=9.0, delay_dist="uniform"
)
# Delay jitter far beyond eta: arrivals overtake each other and a delivery
# can move a freshness deadline earlier, not only later.
JITTERY = NetworkModel(
    loss_prob=0.05, delay_mean=40.0, delay_var=900.0, delay_dist="normal"
)


def scenario(**overrides):
    base = dict(
        n_processes=5, config=CFG, network=LOSSY, duration=20_000, seed=3,
        algorithm="nfdl", faults=(), high_priority=None,
    )
    base.update(overrides)
    return Scenario(**base)


def crash_recover(pid, down, up):
    return (FaultEvent(down, pid, "crash"), FaultEvent(up, pid, "recover"))


SCENARIOS = {
    "nfdl-quiet": lambda: scenario(network=QUIET, seed=1),
    "nfdl-accuracy-120s": lambda: accuracy_scenario(seed=3, duration=120_000),
    "nfdl-speed-3-cycles": lambda: speed_scenario(seed=17, cycles=3),
    "nfdl-follower-crash": lambda: scenario(faults=crash_recover(1, 6_000, 12_000)),
    "nfdl-n20-two-crashes": lambda: scenario(
        n_processes=20,
        faults=(FaultEvent(5_000, 19, "crash"), FaultEvent(9_000, 18, "crash")),
    ),
    "nfdl-uniform-zero-length-crash": lambda: scenario(
        network=UNIFORM, faults=crash_recover(4, 6_000, 6_000)
    ),
    "nfde-pair-sender-crash": lambda: scenario(
        algorithm="nfde-pair", n_processes=2, faults=crash_recover(0, 5_000, 9_000)
    ),
    "nfde-pair-monitor-crash": lambda: scenario(
        algorithm="nfde-pair", n_processes=2, faults=crash_recover(1, 5_000, 9_000)
    ),
    "naive-faults": lambda: scenario(
        algorithm="naive-reduction",
        faults=crash_recover(0, 4_000, 9_000) + crash_recover(3, 6_000, 14_000),
        duration=15_000,
    ),
    "naive-n10": lambda: scenario(
        algorithm="naive-reduction", n_processes=10, duration=10_000
    ),
    # The new incarnation re-arms the same 1000 ms grace deadline that the
    # crashed one held.
    "nfdl-restart-at-zero": lambda: scenario(
        n_processes=3, network=QUIET, faults=crash_recover(1, 0, 0)
    ),
    "naive-n10-two-restarts": lambda: scenario(
        algorithm="naive-reduction", n_processes=10, network=measured_network(),
        seed=4, faults=crash_recover(0, 3_000, 7_000) + crash_recover(5, 7_000, 12_000),
    ),
    "nfde-pair-monitor-restart": lambda: scenario(
        algorithm="nfde-pair", n_processes=2, faults=crash_recover(1, 2_000, 2_000)
    ),
    # With alpha 0 and zero delay every follower deadline lands on the send
    # grid: processes 0 and 1 take over by timer and lose leadership again
    # within one eta, so a leader's first tick must fall at, not after, the
    # instant its timer fires, and a regained leader must not tick twice.
    "nfdl-on-grid-handoffs": lambda: scenario(
        n_processes=3, config=ProtocolConfig(100, 0), network=INSTANT, seed=0,
        duration=5_000, faults=crash_recover(2, 2_000, 3_005),
    ),
    # Processes 0 and 1 go silent together, so every survivor fires both
    # monitors' timers in one millisecond; its output changes to 1 and then
    # to 2 only if they fire in the order their deadlines were set.
    "naive-quiet-twin-crash": lambda: scenario(
        algorithm="naive-reduction", network=QUIET, seed=1, duration=12_000,
        faults=crash_recover(1, 4_000, 8_000) + crash_recover(0, 4_000, 8_000),
    ),
    "jitter-beyond-eta-naive": lambda: scenario(
        algorithm="naive-reduction", n_processes=4,
        config=ProtocolConfig(20, 10, window_n=2), network=JITTERY, seed=5,
        duration=10_000, faults=crash_recover(1, 3_000, 5_000),
    ),
    "jitter-beyond-eta-nfdl": lambda: scenario(
        n_processes=4, config=ProtocolConfig(20, 10, window_n=2), network=JITTERY,
        seed=5, duration=10_000, faults=crash_recover(1, 3_000, 5_000),
    ),
}

# (trace sha256, metrics CSV sha256 or "ValueError" when build_report refuses)
EXPECTED = {
    "jitter-beyond-eta-naive": (
        "35abe15b8cb5a7f098790aa87d96c1a05ed9f8e55ad4e9bff4244bf6683ca6e5",
        "2a65313c3dbaad8f01a9e2bc0c0df153c8e7aa23ea167265a30e6fbac0faa608",
    ),
    "jitter-beyond-eta-nfdl": (
        "495007406ededf86686a760b034e5a56849d4daaa84afea64e77458f13dfd5ee",
        "05352217b9c0cd8f6acea03a609658a4c88ccb606e022a547bc853201ae0f472",
    ),
    "naive-faults": (
        "413e306607245291cfe2f0ac8c494e939835b79fcbc43eb9b175f79ea719a79f",
        "f63c246fbb2058d815c2a0f7fb44163ab6748da3d334f21d958f52d468abdef3",
    ),
    "naive-n10-two-restarts": (
        "2cc2aeabf7579f591b2ee00a8707f1270bd7a9c57ab6bd1320abb60a8c63dc3b",
        "92fb09f78463049b588071cc3efde90299c5bbf08280c2e7a8e932bcfe2498f4",
    ),
    "naive-quiet-twin-crash": (
        "4e245814c0bb397bca6c52281a79060f67db6373a5ca19bdbc2644680d182055",
        "1e1f42897b5f71c60411280ac0accd57ec2211a19918b9e9224a14acc8b666d7",
    ),
    "naive-n10": (
        "1b7fff84cffdeb5ca48828bbb7520a0023f4eaf1339ba0bcb4ece66c383497b7",
        "d6c4e1a641edfb5b53fedd37a93709422c89f5cd94b92dc85f026faca543a18d",
    ),
    "nfde-pair-monitor-crash": (
        "18bd9b91982e0147dba150f554d87a3f8178a9e206ea1ec0fc2f0c6b8682ee74",
        "23fac8f6377384b23346824326f69495bc1a3c6641f07a91054ece3a9d023e11",
    ),
    "nfde-pair-monitor-restart": (
        "955cf2fe1c5b2e08f4c2a5c0b270dfbc68ff6dfd6f06fc32a172d2818e68da36",
        "23fac8f6377384b23346824326f69495bc1a3c6641f07a91054ece3a9d023e11",
    ),
    "nfde-pair-sender-crash": (
        "67e108578baddf4aa5f200eb3e1ded4c6678b01dfbd4e676dc498291a5ea9a1b",
        "6383dd28f6d176c17d3fce4024a9a640cda8f6b7a9e8b6314650ab207241a807",
    ),
    "nfdl-accuracy-120s": (
        "d9a65d6322fa68e914dc1773ea0e4343eb4d0fc0421ec136e81803e21c82dee3",
        "e6f97b4f5a987358cbb9b6da6a1ae2f922c6520b1f34f772572cde11b837dc7f",
    ),
    # Scored against leader 4, which every process holds before the crash of
    # follower 1; leader 4 never fails, so the CSV equals the fail-free runs'.
    "nfdl-follower-crash": (
        "d941419a71ee365451f8ba2112125981c81da76817322f5e3f165fe87ff76aaa",
        "e6f97b4f5a987358cbb9b6da6a1ae2f922c6520b1f34f772572cde11b837dc7f",
    ),
    "nfdl-on-grid-handoffs": (
        "9846541d9215c5dfbd75b6d60d079d1fef7326264aa150e1b63ab62aa9da4fe0",
        "dfaa0d52d999df5610034b3b838861ce3bfa54b621f131ff47c820111dace795",
    ),
    "nfdl-n20-two-crashes": (
        "d4132b3cae2cb6baa1e74f84a050f480e3b68cea83b6b35837202d57fbebfb87",
        "4f41de8b080c00eea17d1ebdf80a7e43a5e5618fc1eec78c3e741d0ca9cd8c27",
    ),
    "nfdl-quiet": (
        "37224ae7ba293e15f41a40c843172c5d6c181ddbfb06d310b5c94a33d3959f49",
        "e6f97b4f5a987358cbb9b6da6a1ae2f922c6520b1f34f772572cde11b837dc7f",
    ),
    "nfdl-restart-at-zero": (
        "fa12f3a27c94859af5f0cd2fd54f9c33fee647e83353b00e83c8df0bd91ce6ff",
        "57174092880d8625b410154a8c0aeaab51a8bb9ce2ab82f563f2dc2ae70f9dc2",
    ),
    "nfdl-speed-3-cycles": (
        "54d81cb3f6624f293ad97d837ae13e20429af963dea4273660285d6625f8ce6d",
        "d366f4faf589e9a7fc845fb5ee65ebf1ec84cc26c3bc1dfeec248a692912d04b",
    ),
    "nfdl-uniform-zero-length-crash": (
        "af0f536c0d08e70d21d3cd2b685b05a650c5e02d7013c15b929b768afe1197de",
        "27cdd1db8b3a6f42fd92dca04a2b05ef3c252a2a2dbdf34a999ff2a810be2f4d",
    ),
}

CLI_EXPECTED = {
    "out/metrics_000.csv": "100a448b9ce31d7689af7d8e2c76e1dcfd3ebf8f90d694b069c685ee096a05c4",
    "out/metrics_001.csv": "77c0339d5c082a634c8c4e21234909a16aa013989390275f1ec67c6ac18680aa",
    "out/report.txt": "1c7c855346713c12a6ad9e53c67fc55f083c25a710475a990c4fde243aa411e6",
    "out/summary.csv": "91c0f7684e5fec694fd8e8a922007919f26d9ac54256861e5bf68a8752e37152",
    "out/trace_000.log": "83c0509edd17417c423fc032f5c947e145a6fcf755fad2e4b8ee2bb38404cc1d",
    "out/trace_001.log": "4954d44a42d8b4ac0ff4a3bc85e5301e5c04c599c564d5d363efcdaf16654eee",
    "state/zerotime.0": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "state/zerotime.1": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "state/zerotime.2": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "state/zerotime.3": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
}


def sha256_lines(lines):
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def fingerprint(sc):
    trace = run(sc)
    try:
        report = qos.build_report(trace)
    except ValueError:
        return sha256_lines(trace.lines()), "ValueError"
    return sha256_lines(trace.lines()), sha256_lines(qos.metrics_csv_lines(report))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_corpus_hashes(name):
    assert fingerprint(SCENARIOS[name]()) == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_streamed_run_matches_the_corpus(name, tmp_path):
    # The trace writer and the timeline fold, as `nfdl run` and the campaign
    # use them, must give the in-memory trace's and report's bytes.
    path = tmp_path / "trace.log"
    trace, timelines = qos.stream_run(SCENARIOS[name](), path)
    assert trace.events == []
    trace_sha, csv_sha = EXPECTED[name]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == trace_sha
    if csv_sha == "ValueError":
        with pytest.raises(ValueError):
            qos.build_report(trace, timelines=timelines)
    else:
        report = qos.build_report(trace, timelines=timelines)
        assert sha256_lines(qos.metrics_csv_lines(report)) == csv_sha


def test_cli_run_artifacts(tmp_path):
    path = tmp_path / "scenario.json"
    speed_scenario(seed=5, cycles=2, n=4, downtime=5_000, spacing=5_000).dump(path)
    state, out = tmp_path / "state", tmp_path / "out"
    code = cli.main([
        "run", "--scenario", str(path), "--state-dir", str(state),
        "--out", str(out), "--reps", "2",
    ])
    assert code == 0
    got = {
        str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file() and p != path
    }
    assert got == CLI_EXPECTED
