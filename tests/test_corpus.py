"""Frozen corpus: byte-level fingerprints of traces and reports.

Each scenario below pins the sha256 of its trace file and of its metrics
CSV (or records that ``build_report`` refuses the trace).  Together they
cover all three algorithms, crashes and recoveries, loss, jitter, every
delay law and on-disk stable storage, so a refactor of the simulator or the
QoS suite that changes a single byte of output fails here.  A change that
alters output on purpose updates the hashes and says why in CHANGES.md.
"""

import hashlib
from collections import Counter

import pytest

from nfdl import cli, qos, simnet
from nfdl.experiments import accuracy_scenario, measured_network, speed_scenario
from nfdl.protocol import ProtocolConfig
from nfdl.simnet import FaultEvent, NetworkModel, Scenario, Simulator, TraceEvent, run

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
    # At 490 ms monitor 0's output goes 2 -> 0 -> 2 -> 1 within one
    # millisecond: a mistake against leader 2 is corrected and re-opened in
    # the instant it opened.
    "nfdl-same-instant-reopen": lambda: scenario(
        n_processes=3, config=ProtocolConfig(20, 5, window_n=1),
        network=JITTERY, seed=0, duration=5_000,
        faults=crash_recover(1, 1_225, 4_033) + crash_recover(0, 1_765, 4_156)
        + crash_recover(2, 4_788, 4_838),
    ),
    # An election storm: at 11,220 ms all 99 survivors of the pinned
    # leader's crash time out and broadcast in one instant, so 99 sends'
    # deliveries are in flight together and tie on many (time, receiver).
    "nfdl-n100-storm": lambda: speed_scenario(
        seed=1, cycles=1, n=100, downtime=5_000, spacing=10_000
    ),
    # Zero delay: each delivery falls in the instant of its send, among
    # the 20 start-up senders and the 19 that take over from the crashed
    # leader 19 in one instant.
    "nfdl-n20-instant-takeover": lambda: scenario(
        n_processes=20, network=INSTANT, duration=12_000,
        faults=crash_recover(19, 4_000, 9_000),
    ),
    # Leader 0 is the only sender, and process 2 crashes at one of its send
    # instants and recovers at another.  The fault sorts after the send at
    # that instant, so the send's deliveries, due 5 ms later, find process 2
    # down at 2,005 ms and up again at 3,005 ms.
    "nfdl-lone-sender-shared-instant": lambda: scenario(
        n_processes=3, config=ProtocolConfig(100, 50), network=QUIET, seed=2,
        duration=5_000, high_priority=0, faults=crash_recover(2, 2_000, 3_000),
    ),
}

# (trace sha256, metrics CSV sha256 or "ValueError" when build_report refuses)
EXPECTED = {
    "jitter-beyond-eta-naive": (
        "f627dfda0caf4ed78ad387d97ce99adb619568a6dd55a273db0e8de0cc3804ff",
        "d3218cc796a4f4d55390562936b199b75bdaa754d21ded9a5bc3f8de21835726",
    ),
    "jitter-beyond-eta-nfdl": (
        "7255cf69d03d44ad6ff9f8ad6787259577eeb35e93d258decd24cb75569548eb",
        "6bb6031ea117350631382c36863e977ce8f644315e8a10ed5187bcd0faa55be1",
    ),
    "naive-faults": (
        "0eb45151af221498bfe40dd201480655284668016a67a42eb1baebb961dd9bc1",
        "880c1bd9c419a3be4e9cfd0ff89e2f951b374b475908d2e6db87842d7cc93e84",
    ),
    "naive-n10-two-restarts": (
        "83df6fe0a243b675df3dee400ddbd7c5253e44bbdf2bbbd7fc5b78b0d4240fe6",
        "90c9fd0205b4199a67d911b1b77d2a03d5d49e2bdd52fe813bdadff1f584f3f9",
    ),
    "naive-quiet-twin-crash": (
        "c0db2c98b1516026ce802f9a90adeac1918e9e2f4de1d8efea40ee97eb342cf7",
        "1e1f42897b5f71c60411280ac0accd57ec2211a19918b9e9224a14acc8b666d7",
    ),
    "naive-n10": (
        "2887e6b22f7fe0194b11675cdbea90bc53fe09cef18f29e85310fa9d46841127",
        "d6c4e1a641edfb5b53fedd37a93709422c89f5cd94b92dc85f026faca543a18d",
    ),
    "nfde-pair-monitor-crash": (
        "a0712b0884f686cfd8aa3906df502004b04dfaea65b2b3635b1da5ed6997cd7c",
        "23fac8f6377384b23346824326f69495bc1a3c6641f07a91054ece3a9d023e11",
    ),
    "nfde-pair-monitor-restart": (
        "9d6b156c9001b28b221605006e302610124aeec46da86f061cf0e9799516b569",
        "23fac8f6377384b23346824326f69495bc1a3c6641f07a91054ece3a9d023e11",
    ),
    "nfde-pair-sender-crash": (
        "1eaca7613a7280dc4a3b4bed66232080e25be0a86fc1ee03d52c805fcd38bb14",
        "6383dd28f6d176c17d3fce4024a9a640cda8f6b7a9e8b6314650ab207241a807",
    ),
    "nfdl-accuracy-120s": (
        "ea6545dda416da96340815693fc5b40dbd610d9f646eab55f5a444b62a44cbbc",
        "e6f97b4f5a987358cbb9b6da6a1ae2f922c6520b1f34f772572cde11b837dc7f",
    ),
    # Scored against leader 4, which every process holds before the crash of
    # follower 1; leader 4 never fails, so the CSV equals the fail-free runs'.
    "nfdl-follower-crash": (
        "b32468359692e48509e7de90444ebe1854c0720359516dbf3db7b6722e1e3fab",
        "e6f97b4f5a987358cbb9b6da6a1ae2f922c6520b1f34f772572cde11b837dc7f",
    ),
    "nfdl-on-grid-handoffs": (
        "c04de26820db945f5301fb78611c8eea1e2be6314f1d676f0ad64f9081f7ea29",
        "dfaa0d52d999df5610034b3b838861ce3bfa54b621f131ff47c820111dace795",
    ),
    "nfdl-lone-sender-shared-instant": (
        "9a8164d7844b01dab20080d55c5774962528041c33645d0d1ff263eae0b0b41e",
        "027933040cf1f2e4c038c099ea408a3a85e147086843c4731977dd81008e84a3",
    ),
    "nfdl-n100-storm": (
        "e168c25408de757136f12f23249c54dad181f04b99042deba8b35184c4a51023",
        "61cfe5139b6e7e8ab8da6d1ffdb46aac267bf74a3e83ba9d5375904cf60b2ce8",
    ),
    "nfdl-n20-instant-takeover": (
        "525052da3544d7c8bbc6c16e4605e9a26529e3827e54290655e22d625f919994",
        "bc9d31dd1ac4f50ebdcf0327c1bbb3ea97c391712c111c077340d2f23c1f7b69",
    ),
    "nfdl-n20-two-crashes": (
        "0fc2905452851a0c19fdb751d1e7e0a20757bb3a75b7d8233a73d8580b15b9c6",
        "189a4e7a0540b1556513a4f261f1732415ba33d2805474d05a5c88fae50f0f55",
    ),
    "nfdl-quiet": (
        "27416117c6984c8e8ac71a064109e6eceb993d483c7c92c3a67d0ee0a1d53e21",
        "e6f97b4f5a987358cbb9b6da6a1ae2f922c6520b1f34f772572cde11b837dc7f",
    ),
    "nfdl-restart-at-zero": (
        "e36ee1e617b1364dc63308b528609b230cd446cf82631548c03b230f57f4663e",
        "57174092880d8625b410154a8c0aeaab51a8bb9ce2ab82f563f2dc2ae70f9dc2",
    ),
    "nfdl-same-instant-reopen": (
        "8c5ea3606f4d49a4ede42ebfe3ef986c94f24cf621be437262828814b9ec4b73",
        "0a011fd548b9c113e5b88c20f407510e45c410cbbcb59c5fb4a4c014a1c9f22e",
    ),
    "nfdl-speed-3-cycles": (
        "30984a62c727d01491baf74a94206aef375e6602d6c77400b11fa1a4ac39e48e",
        "6a23e62d5dc00bd29544a59bea08380be50f3c30a911936af35b7041de778fea",
    ),
    "nfdl-uniform-zero-length-crash": (
        "3676f816baeba4ade3b79a00ecc41a1d15df087a0ec27f3ef885688f0d60aa8e",
        "13a0429489fccf716f4cbb56a1f0b8b17ac678eab13158839ab3775ee83c800c",
    ),
}

CLI_EXPECTED = {
    "out/metrics_000.csv": "948b38144a930badd94d37353e2b6f0d3e2afda441ee3b879d602c00c535cec0",
    "out/metrics_001.csv": "ca7ed97226796b0dec893b5225eb77b4cf8882c4e048e05725f8ef64e52d00e6",
    "out/report.txt": "b77fd22a51dad972bf570bb5ff49d8d9445a09199c9e5205be17ead178e9b107",
    "out/summary.csv": "f38c0489246bd5264a0a70d0a2c3bb6269f5e3ac8348a06790633725ecdd4a09",
    "out/trace_000.log": "89a00426d5f2df65d154551bb9dce723af422cb514976d6e85a5f567a6e5abf2",
    "out/trace_001.log": "f4dc1cc40e82ebaca13a65a2076ccdf0055e178d5db369ecc7a3e163d2690fd4",
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
    # The trace writer and the recorded output history, as `nfdl run` and
    # the campaign use them, must give the in-memory trace's and report's
    # bytes.
    path = tmp_path / "trace.log"
    trace = simnet.stream_run(SCENARIOS[name](), path)
    assert trace.events == []
    trace_sha, csv_sha = EXPECTED[name]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == trace_sha
    if csv_sha == "ValueError":
        with pytest.raises(ValueError):
            qos.build_report(trace)
    else:
        report = qos.build_report(trace)
        assert sha256_lines(qos.metrics_csv_lines(report)) == csv_sha


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_lines_round_trip_through_the_parser(name):
    # Pins every log site's own format to the reference TraceEvent.line().
    trace = run(SCENARIOS[name]())
    assert trace.event_batches
    for batch in trace.event_batches:
        for line in batch.splitlines(keepends=True):
            assert TraceEvent.parse(line).line() + "\n" == line


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


def link_counts_of_the_lines(trace):
    """Per-link (sent, delivered, dropped) counts of the trace lines: a send
    line times its receivers, and the deliver and drop lines."""
    n = trace.scenario.n_processes
    sent, delivered, dropped = Counter(), Counter(), Counter()
    for ev in trace.events:
        if ev.kind == "send":
            receivers = range(n) if ev.receiver is None else (ev.receiver,)
            sent.update((ev.process, r) for r in receivers if r != ev.process)
        elif ev.kind == "deliver":
            delivered[ev.sender, ev.process] += 1
        elif ev.kind == "drop":
            dropped[ev.sender, ev.process] += 1
    return dict(sent), dict(delivered), dict(dropped)


LINK_COUNT_SCENARIOS = {
    **SCENARIOS,
    # Delays far beyond eta: the horizon cuts deliveries in flight, and the
    # entry the run stops on, the first at the horizon, is a delivery.
    "naive-jitter-cut-in-flight": lambda: scenario(
        algorithm="naive-reduction", n_processes=4,
        config=ProtocolConfig(20, 10, window_n=2), network=JITTERY, seed=7,
        duration=4_009, faults=crash_recover(2, 1_000, 3_990),
    ),
}


@pytest.mark.parametrize("name", sorted(LINK_COUNT_SCENARIOS))
def test_link_counters_match_the_trace_lines(name):
    # The simulator counts sends per sender and derives each link's sends.
    trace = run(LINK_COUNT_SCENARIOS[name]())
    sent, delivered, dropped = link_counts_of_the_lines(trace)
    assert trace.link_sent == sent
    if name == "naive-jitter-cut-in-flight":
        assert sum(sent.values()) > sum(delivered.values()) + sum(dropped.values())


DRAW_BUDGET_SCENARIOS = {
    "nfdl-n20-two-crashes": SCENARIOS["nfdl-n20-two-crashes"],
    "naive-n10": SCENARIOS["naive-n10"],
    # The benchmark's churn shape: election storms at N=100.
    "nfdl-n100-speed": lambda: speed_scenario(
        seed=1, cycles=3, n=100, downtime=5_000, spacing=10_000
    ),
}


@pytest.mark.parametrize("name", sorted(DRAW_BUDGET_SCENARIOS))
def test_senders_draw_at_most_twice_the_seqs_they_send(name, monkeypatch):
    # Runs of consecutive sends are drawn ahead, so a sender that stops
    # sending leaves part of its last run unused; doubling the run length
    # from 1 keeps that waste below what it sent.
    drawn = []
    real = simnet.sample_run

    def counting(seed, sender, seq, k, *args):
        drawn.extend((sender, seq + j) for j in range(k))
        return real(seed, sender, seq, k, *args)

    monkeypatch.setattr(simnet, "sample_run", counting)
    sc = DRAW_BUDGET_SCENARIOS[name]()
    sim = Simulator(sc)
    trace = sim.run()
    sent = {(ev.process, ev.seq) for ev in trace.events if ev.kind == "send"}
    assert sent <= set(drawn)
    assert len(set(drawn)) == len(drawn)
    assert len(drawn) <= 2 * len(sent)
    # No run reaches past its sender's last send instant before the end.
    for sender, seq in drawn:
        assert sim.store.load_zerotime(sender) + seq * sc.config.eta < sc.duration
