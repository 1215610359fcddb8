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
from nfdl.experiments import accuracy_scenario, speed_scenario
from nfdl.protocol import ProtocolConfig
from nfdl.simnet import FaultEvent, NetworkModel, Scenario, run

CFG = ProtocolConfig(eta=330, alpha=670, window_n=100)
QUIET = NetworkModel(loss_prob=0.0, delay_mean=5.0, delay_var=0.0, delay_dist="constant")
LOSSY = NetworkModel(
    loss_prob=0.0175917, delay_mean=5.0, delay_var=25.3356, delay_dist="normal"
)
UNIFORM = NetworkModel(
    loss_prob=0.01, delay_mean=6.0, delay_var=9.0, delay_dist="uniform"
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
}

# (trace sha256, metrics CSV sha256 or "ValueError" when build_report refuses)
EXPECTED = {
    "naive-faults": (
        "d358fda539d96682671b95c3772ec13c3993000faf597d63c98de0f5969e9879",
        "d48a489403773c0d0ff7dfbad6213e2b91fa829eeb62bfa369c740f3420afa5e",
    ),
    "naive-n10": (
        "404098a77860552d9ed4da855d4c5f1fa4fd2436d7607784d02ce33e6e2852ef",
        "d6c4e1a641edfb5b53fedd37a93709422c89f5cd94b92dc85f026faca543a18d",
    ),
    "nfde-pair-monitor-crash": (
        "1b8f506ece34399e7a8e72d7e4d46ed50726570b3f10848a963ffc6bf93f0547",
        "23fac8f6377384b23346824326f69495bc1a3c6641f07a91054ece3a9d023e11",
    ),
    "nfde-pair-sender-crash": (
        "3e70c9b26085aacd15cb5a6d3924b3c374727f94c6e613be0630c0965b2fef4c",
        "6383dd28f6d176c17d3fce4024a9a640cda8f6b7a9e8b6314650ab207241a807",
    ),
    "nfdl-accuracy-120s": (
        "d5964961991e4ca389fdd75f665ce47271a402d0c5e6fddc7bcf287867fe4d28",
        "e6f97b4f5a987358cbb9b6da6a1ae2f922c6520b1f34f772572cde11b837dc7f",
    ),
    # Scored against leader 4, which every process holds before the crash of
    # follower 1; leader 4 never fails, so the CSV equals the fail-free runs'.
    "nfdl-follower-crash": (
        "7cd0a44a075f79e580f6a3ee677f9f696d44c70e5f393059e3c7763eca91df2d",
        "e6f97b4f5a987358cbb9b6da6a1ae2f922c6520b1f34f772572cde11b837dc7f",
    ),
    "nfdl-n20-two-crashes": (
        "379b9eda12e9118f6c172e9aee0d0e35bd896e854743ed9fcd9950686498bf6f",
        "bd34f2ef33a40574916f3133eb30118621ef9e171a4db96ac7c6cacbc6a174e8",
    ),
    "nfdl-quiet": (
        "c726bde8b1eaee7214db1d10562ec9e3bc8eaa66a1b5c8abe5df8cb5f3b70a24",
        "e6f97b4f5a987358cbb9b6da6a1ae2f922c6520b1f34f772572cde11b837dc7f",
    ),
    "nfdl-speed-3-cycles": (
        "d442380fa5ce74e074a2fc9b3cfa8b02654a090f15413367b5a7883738a0f8db",
        "49d49a0f859698837adb002ed30d190ff70f47defc56a697ab5082ee769ff7da",
    ),
    "nfdl-uniform-zero-length-crash": (
        "902f36f00a69c78bea7020469af4e718d7e1c6723570058b3a2adaba894c2976",
        "faba75367561154939678715327f0c5fe04667754cf04aa638591f94ac28a8bc",
    ),
}

CLI_EXPECTED = {
    "out/metrics_000.csv": "5ac3646405d38aaf5cd258da8047451e9cd9c9ddb5f3a4da836a287481e52281",
    "out/metrics_001.csv": "2e559fc626bf7d0617fb1b96826b26fcba75c3082068a5db8ae8924055b95e5c",
    "out/report.txt": "1794704b06c16cdd9ef10136f5830ca9c1f2b972bde412034d97e79b0be4d246",
    "out/summary.csv": "455a4ffdfb82c59ff8da40afd99455d491c7aa6cbe913218cecec068c3f5d943",
    "out/trace_000.log": "7d6140bdcc49b2ad9db2f59a68eb55e4e440d61c825964d9950bab3b1fb08d5d",
    "out/trace_001.log": "2324a8e6081cbc74c48bf001608558c3cdf98087b8485d1a6e59e995ed0f10eb",
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
