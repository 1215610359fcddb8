import gc
import importlib.util
import itertools
import json
import math
import re
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nfdl import simnet
from nfdl.experiments import accuracy_scenario, speed_scenario
from nfdl.protocol import Heartbeat, NfdlProcess, ProtocolConfig, Verdict
from nfdl.qos import sends_per_eta
from nfdl.simnet import (
    ALGORITHMS,
    DELAY_DISTS,
    FaultEvent,
    NetworkModel,
    Scenario,
    ScenarioError,
    Simulator,
    TraceEvent,
    _TIMER,
    _MonitorNode,
    link_stream,
    _run_length,
    run,
    sample_delivery,
    sample_run,
)
from nfdl.stable_store import FileStore, MemoryStore, StorageError
from catalogue import CFG, INSTANT, JITTERY, LOSSY, QUIET, UNIFORM, crash_recover
from queue_probe import (
    cut_run, holding_rows, live_timers, ticking, timer_slots, watch_heap, watch_packs,
)
from reference_simulator import ReferenceSimulator

# alpha 0: every deadline is an expected arrival, which lands on the send grid
# under INSTANT, so timer takeovers and handoffs coincide with send instants.
ON_GRID = ProtocolConfig(eta=100, alpha=0)


def scenario(**overrides):
    base = dict(
        n_processes=5, config=CFG, network=QUIET, duration=20_000, seed=1,
        algorithm="nfdl", faults=(), high_priority=None,
    )
    base.update(overrides)
    return Scenario(**base)


# -- validation ---------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides,field",
    [
        (dict(n_processes=1), "n_processes"),
        (dict(algorithm="gossip"), "algorithm"),
        (dict(algorithm="nfde-pair", n_processes=5), "n_processes"),
        pytest.param(dict(duration=0), "duration_ms", id="overrides3-duration"),
        (dict(high_priority=9), "high_priority"),
        (dict(algorithm="naive-reduction", high_priority=1), "high_priority"),
        pytest.param(dict(faults=(FaultEvent(30_000, 1, "crash"),)), "faults[0].at_ms",
                     id="overrides6-faults[0].at"),
        (dict(faults=(FaultEvent(100, 1, "recover"),)), "faults[0]"),
        (
            dict(faults=(FaultEvent(100, 1, "crash"), FaultEvent(200, 1, "crash"))),
            "faults[1]",
        ),
        (dict(network=NetworkModel(loss_prob=1.5)), "network.loss_prob"),
        pytest.param(dict(network=NetworkModel(delay_var=4.0, delay_dist="constant")),
                     "network.delay_var_ms2", id="overrides10-network.delay_var"),
        pytest.param(
            dict(network=NetworkModel(delay_mean=1.0, delay_var=25.0, delay_dist="uniform")),
            "network.delay_var_ms2", id="overrides11-network.delay_var",
        ),
        # faults are checked in the order the simulator applies them and
        # named by their position in the file
        (
            dict(faults=(FaultEvent(100, 1, "crash"), FaultEvent(100, 1, "recover"),
                         FaultEvent(100, 1, "crash"))),
            "faults[2]",
        ),
        (
            dict(faults=(FaultEvent(200, 1, "crash"), FaultEvent(100, 1, "crash"))),
            "faults[0]",
        ),
    ],
)
def test_scenario_validation_names_the_field(overrides, field):
    with pytest.raises(ScenarioError) as err:
        scenario(**overrides).validate()
    assert err.value.field == field


def test_scenario_json_round_trip(tmp_path):
    sc = scenario(
        faults=(FaultEvent(1000, 2, "crash"), FaultEvent(5000, 2, "recover")),
        high_priority=2,
        network=LOSSY,
    )
    path = tmp_path / "scenario.json"
    sc.dump(path)
    assert Scenario.load(path) == sc


def test_scenario_load_reports_missing_fields(tmp_path):
    path = tmp_path / "bad.json"
    data = scenario().to_dict()
    del data["duration_ms"]
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError) as err:
        Scenario.load(path)
    assert err.value.field == "duration_ms"


def test_scenario_load_rejects_a_bool_high_priority():
    data = scenario().to_dict()
    data["high_priority"] = True
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(data)
    assert err.value.field == "high_priority"


@pytest.mark.parametrize(
    "section,key,value,field",
    [
        ("network", "delay_mean_ms", math.nan, "network.delay_mean_ms"),
        ("network", "delay_var_ms2", math.nan, "network.delay_var_ms2"),
        ("network", "delay_mean_ms", math.inf, "network.delay_mean_ms"),
        ("network", "loss_prob", 10**400, "network.loss_prob"),
        ("config", "window_n", "x", "config.window_n"),
        ("config", "window_n", True, "config.window_n"),
        (None, "algorithm", ["nfdl"], "algorithm"),
        (None, "seed", -5, "seed"),
        (None, "seed", 2**64, "seed"),
        ("config", "eta_ms", 0, "config.eta_ms"),
        ("config", "alpha_ms", -1, "config.alpha_ms"),
        ("config", "window_n", 0, "config.window_n"),
        ("network", "delay_var_ms2", 2.0e10, "network.delay_var_ms2"),
        (None, "version", True, "version"),
        (None, "version", 1.0, "version"),
        (None, "duration", 5, "duration"),
        ("config", "window_N", 50, "config.window_N"),
        ("network", "los_prob", 0.5, "network.los_prob"),
    ],
    ids=["nan-mean", "nan-var", "inf-mean", "huge-loss", "str-window", "bool-window",
         "list-algorithm", "negative-seed", "seed-2**64", "zero-eta", "negative-alpha",
         "zero-window", "oversized-normal", "bool-version", "float-version",
         "unknown-top", "unknown-config", "unknown-network"],
)
def test_scenario_load_rejects_bad_values(section, key, value, field):
    data = scenario(network=LOSSY).to_dict()
    (data[section] if section else data)[key] = value
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(data)
    assert err.value.field == field


def test_scenario_seed_bounds_are_inclusive_of_64_bit_values():
    for seed in (0, 2**64 - 1):
        scenario(seed=seed).validate()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from([10**400, 2**64, -1, 0, "nfdl", "crash", "normal"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def mangled_scenarios(draw):
    """A valid scenario dict with some fields replaced by arbitrary JSON or
    deleted, at the top level or one level down."""
    data = scenario(
        faults=(FaultEvent(1000, 2, "crash"), FaultEvent(5000, 2, "recover")),
        network=LOSSY,
    ).to_dict()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        faults = data.get("faults")
        targets = [data, data.get("config"), data.get("network"),
                   faults[0] if isinstance(faults, list) and faults else None]
        target = draw(st.sampled_from(targets))
        if not isinstance(target, dict):
            continue
        key = draw(st.sampled_from(sorted(target) + ["extra"]))
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(JSON_VALUES)
    return data


def key_paths(value, path=""):
    """Every key path in a JSON value, as ScenarioError names fields."""
    if isinstance(value, dict):
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return
    for p, v in items:
        yield p
        yield from key_paths(v, p)


def any_fault(path):
    return re.sub(r"^faults\[\d+\]", "faults[0]", path)


# The key paths of a scenario file, fault indices folded to 0; "scenario"
# names the file as a whole.
SCHEMA_PATHS = {"scenario"} | {
    any_fault(p) for p in key_paths(scenario(faults=(FaultEvent(1, 1, "crash"),)).to_dict())
}


@given(st.one_of(mangled_scenarios(), JSON_VALUES))
@settings(max_examples=300, deadline=None)
def test_scenario_from_dict_raises_only_scenario_error(data):
    try:
        sc = Scenario.from_dict(data)
    except ScenarioError as err:
        # A key outside the schema is named by its path in the input; any
        # other error names a key path of the schema.
        if str(err).endswith(": unknown key"):
            assert err.field in set(key_paths(data))
        else:
            assert any_fault(err.field) in SCHEMA_PATHS
        return
    assert Scenario.from_dict(sc.to_dict()) == sc


# Ints at and past the schema's bounds: 2**63 and above fit no index-sized
# integer, and 2**64 - 1 is the largest seed.
BOUNDARY_INTS = st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**64 - 1])


def ints_up_to_the_bounds(lo, hi):
    return st.integers(min_value=lo, max_value=hi) | BOUNDARY_INTS


@st.composite
def runnable_scenario_files(draw):
    """A scenario file of at most 6 processes (2 for nfde-pair) and 10 s,
    its other ints drawn up to the schema's bounds, with faults at 0,
    zero-length crashes and pinned leaders.  A run stays within
    milliseconds: at most 2,000 send instants per process, and a delay law
    whose table ends within 10**4 ms."""
    algorithm = draw(st.sampled_from(ALGORITHMS))
    n = 2 if algorithm == "nfde-pair" else draw(st.integers(2, 6))
    eta = draw(ints_up_to_the_bounds(1, 1000))
    duration = draw(st.integers(1, max(1, min(10_000, 2000 * eta))))
    dist = draw(st.sampled_from(DELAY_DISTS))
    sd = 0.0 if dist == "constant" else draw(st.floats(0.0, 500.0))
    faults = []
    for pid in draw(st.lists(ints_up_to_the_bounds(0, n - 1), unique=True, max_size=3)):
        at = draw(st.just(0) | ints_up_to_the_bounds(0, duration - 1))
        for kind in ("crash", "recover", "crash", "recover")[:draw(st.integers(1, 4))]:
            faults.append({"at_ms": at, "process": pid, "kind": kind})
            # A recovery may share its crash's instant: a zero-length crash.
            at += draw(st.just(0) | st.integers(0, duration)) + (kind == "recover")
    high_priority = None
    if algorithm == "nfdl" and draw(st.booleans()):
        high_priority = draw(ints_up_to_the_bounds(0, n - 1))
    return {
        "n_processes": n,
        "algorithm": algorithm,
        "config": {"eta_ms": eta, "alpha_ms": draw(ints_up_to_the_bounds(0, 1000)),
                   "window_n": draw(ints_up_to_the_bounds(1, 200))},
        "network": {"loss_prob": draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
                    "delay_mean_ms": draw(st.floats(0.0, 5000.0)),
                    "delay_var_ms2": sd * sd, "delay_dist": dist},
        "faults": draw(st.permutations(faults)),
        "duration_ms": duration,
        "seed": draw(ints_up_to_the_bounds(0, 2**64 - 1)),
        "high_priority": high_priority,
    }


@given(runnable_scenario_files())
@settings(max_examples=100, deadline=None)
def test_every_accepted_scenario_runs(data):
    try:
        sc = Scenario.from_dict(data)
    except ScenarioError:
        return
    trace = Simulator(sc, sink=len).run()
    down = set()
    for _, f in sc.fault_order():
        down ^= {f.process}
    assert set(trace.final_outputs) == set(range(sc.n_processes)) - down


def test_from_dict_reads_each_key_once(monkeypatch):
    data = scenario(
        faults=(FaultEvent(1000, 2, "crash"), FaultEvent(5000, 2, "recover")),
        network=LOSSY, high_priority=2,
    ).to_dict()
    reads = []
    read = simnet._Field.read

    def counting(self, path, value):
        reads.append(path)
        return read(self, path, value)

    monkeypatch.setattr(simnet._Field, "read", counting)
    assert Scenario.from_dict(data).to_dict() == data
    # Every key path once; a list position names an object, not a key.
    assert sorted(reads) == sorted(p for p in key_paths(data) if not p.endswith("]"))


@given(
    st.sampled_from(["", "config", "network", "faults[0]", "faults[1]"]),
    st.text(max_size=8),
    JSON_VALUES,
)
@settings(max_examples=200, deadline=None)
def test_an_unknown_key_is_named_by_its_path(level, key, value):
    data = scenario(
        faults=(FaultEvent(1000, 2, "crash"), FaultEvent(5000, 2, "recover")),
        network=LOSSY,
    ).to_dict()
    target = {"": data, "config": data["config"], "network": data["network"],
              "faults[0]": data["faults"][0], "faults[1]": data["faults"][1]}[level]
    assume(key not in target)
    target[key] = value
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(data)
    assert err.value.field == (f"{level}.{key}" if level else key)


def test_scenario_load_rejects_non_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json {")
    with pytest.raises(ScenarioError):
        Scenario.load(path)


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{", b"[" * 100_000, b'{"seed": ' + b"9" * 5000 + b"}"],
    ids=["not-utf8", "nested-too-deep", "too-many-digits"],
)
def test_scenario_load_rejects_unreadable_json(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(ScenarioError) as err:
        Scenario.load(path)
    assert err.value.field == "scenario"


# -- link sampling ------------------------------------------------------------


def test_lossless_constant_delay():
    rng = link_stream(1, 0, 1, 1)
    assert sample_delivery(1000, QUIET, rng) == 1005


def test_certain_loss():
    net = NetworkModel(loss_prob=1.0, delay_mean=5.0, delay_var=0.0, delay_dist="constant")
    for seq in range(1, 20):
        assert sample_delivery(0, net, link_stream(1, 0, seq, 1)) is None


def test_delay_never_precedes_send():
    net = NetworkModel(loss_prob=0.0, delay_mean=1.0, delay_var=25.0, delay_dist="normal")
    for seq in range(1, 300):
        at = sample_delivery(500, net, link_stream(3, 0, seq, 1))
        assert at >= 500


def test_message_streams_are_independent_and_stable():
    a = sample_delivery(0, LOSSY, link_stream(7, 0, 5, 1))
    b = sample_delivery(0, LOSSY, link_stream(7, 0, 5, 1))
    assert a == b
    # different receivers draw from different streams for the same message
    to_r1 = [sample_delivery(0, LOSSY, link_stream(7, 0, s, 1)) for s in range(1, 50)]
    to_r2 = [sample_delivery(0, LOSSY, link_stream(7, 0, s, 2)) for s in range(1, 50)]
    assert to_r1 != to_r2


def philox_stream(seed, sender, seq, receiver):
    # uint64 arrays: a Python list would miscast keys >= 2**63
    return np.random.Generator(np.random.Philox(
        key=np.array([seed, sender], np.uint64),
        counter=np.array([receiver, 0, seq, 0], np.uint64),
    ))


KEYS = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1]),
)


@given(KEYS, KEYS, KEYS, KEYS)
@settings(max_examples=200, deadline=None)
def test_link_stream_matches_numpy_seeding(seed, sender, seq, receiver):
    # a longer prefix than one message uses, so the counter steps past the
    # first block the same way in both
    want = philox_stream(seed, sender, seq, receiver)
    got = link_stream(seed, sender, seq, receiver)
    draws = [
        (rng.random(9).tolist(), rng.normal(size=5).tolist(),
         rng.integers(2**64, size=3, dtype=np.uint64).tolist())
        for rng in (want, got)
    ]
    assert draws[1] == draws[0]


@given(KEYS, KEYS, st.lists(KEYS, min_size=1, max_size=3),
       st.lists(KEYS, min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_link_stream_matches_numpy_across_a_broadcast(seed, sender, seqs, receivers):
    # back-to-back calls in broadcast order, as the simulator makes them, with
    # a 32-bit draw left between them: a stale has_uint32 or buffer would show
    for seq in seqs:
        for receiver in receivers:
            want = philox_stream(seed, sender, seq, receiver)
            got = link_stream(seed, sender, seq, receiver)
            draws = [
                (rng.random(), rng.normal(), rng.uniform(-3.0, 7.0),
                 int(rng.integers(2**32, dtype=np.uint32)))
                for rng in (want, got)
            ]
            assert draws[1] == draws[0]


@pytest.mark.parametrize("key", [
    (1, -1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1), (-1, 0, 0, 0),
    (2**64, 0, 0, 0), (1, 2**64, 0, 0), (1, 0, 2**64, 0), (1, 0, 0, 2**64),
    (1, 0, 1.0, 0),
])
def test_link_stream_rejects_negative_keys(key):
    error = ValueError if all(isinstance(k, int) for k in key) else TypeError
    with pytest.raises(error):
        link_stream(*key)


def _stream_state():
    state = simnet._STREAM.bit_generator.state
    return state["state"]["key"].tolist(), state["state"]["counter"].tolist(), state["buffer_pos"]


@pytest.mark.parametrize("seed, sender, seq", [
    (1.0, 0, 1), (1, "0", 1), (1, 0, 1.0),
    (-1, 0, 1), (1, 2**64, 1), (1, 0, -1), (1, 0, 2**64),
    (1, 0, 2**64 - 2),  # the last of its 3 rows would be seq 2**64
])
def test_a_run_checks_its_keys_before_it_draws(seed, sender, seq):
    # A run checks its keys once, as link_stream does: a failed call leaves
    # the shared stream as the last draw left it, neither rekeyed nor drawn.
    error = ValueError if all(isinstance(k, int) for k in (seed, sender, seq)) else TypeError
    cdf = simnet.delay_cdf(QUIET)
    link_stream(5, 6, 7, 0).random(3)
    before = _stream_state()
    with pytest.raises(error):
        sample_run(seed, sender, seq, 3, 4, 0.0, cdf)
    assert _stream_state() == before


GOLDEN_DELIVERIES = [
    1003, 2008, 3014, 4001, 5005, 6007, 7010, 8004, 9001, 10005, None, 12006,
    13004, 14010, 15005, 16007, 17001, 18004, 19003, None, 21006, None, 23006,
    24005,
]


def test_golden_delivery_sequence():
    # Frozen from the first verified run of the v3 link blocks (trace v3);
    # guards the stream derivation and the delay table against drift.
    got = [
        sample_delivery(1000 * seq, LOSSY, link_stream(7, 0, seq, 1))
        for seq in range(1, 25)
    ]
    assert got == GOLDEN_DELIVERIES


@given(KEYS, KEYS, KEYS, st.integers(min_value=1, max_value=200))
@settings(max_examples=50, deadline=None)
def test_one_draw_per_send_holds_every_receivers_block(seed, sender, seq, n):
    # block r of one send's draw is the first block of receiver r's own stream
    blocks = link_stream(seed, sender, seq, 0).random(4 * n).reshape(n, 4)
    for r in range(n):
        assert blocks[r].tolist() == philox_stream(seed, sender, seq, r).random(4).tolist()


@pytest.mark.parametrize("net", [QUIET, LOSSY, UNIFORM, JITTERY],
                         ids=["quiet", "lossy", "uniform", "jittery"])
def test_batch_sampler_matches_the_per_message_reference(net):
    cdf = simnet.delay_cdf(net)
    for seq in range(1, 40):
        (delay,) = sample_run(11, 3, seq, 1, 6, net.loss_prob, cdf)
        for r in range(6):
            want = sample_delivery(1000 * seq, net, link_stream(11, 3, seq, r))
            assert (None if delay[r] < 0 else 1000 * seq + delay[r]) == want


def test_a_messages_delivery_does_not_depend_on_n():
    cdf = simnet.delay_cdf(LOSSY)
    for seq in range(1, 200):
        small = sample_run(7, 2, seq, 1, 5, LOSSY.loss_prob, cdf)
        large = sample_run(7, 2, seq, 1, 200, LOSSY.loss_prob, cdf)
        assert small == [row[:5] for row in large]


LINK_LAWS = {"quiet": QUIET, "lossy": LOSSY, "uniform": UNIFORM, "jittery": JITTERY}


@given(KEYS, KEYS, KEYS, st.integers(min_value=1, max_value=200),
       st.integers(min_value=1, max_value=simnet._RUN_LIMIT),
       st.sampled_from(sorted(LINK_LAWS)))
@settings(max_examples=100, deadline=None)
def test_a_run_row_is_its_own_sends_draw(seed, sender, seq, n, k, law):
    # Row j of a run is the k=1 draw at seq + j, whatever run it falls in,
    # and every receiver's entry is the per-message reference's.
    k = min(k, 2**64 - seq)
    net = LINK_LAWS[law]
    cdf = simnet.delay_cdf(net)
    rows = sample_run(seed, sender, seq, k, n, net.loss_prob, cdf)
    assert len(rows) == k
    for j in range(k):
        assert sample_run(seed, sender, seq + j, 1, n, net.loss_prob, cdf) == [rows[j]]
        for r in range(n):
            want = sample_delivery(0, net, link_stream(seed, sender, seq + j, r))
            assert (None if rows[j][r] < 0 else rows[j][r]) == want


def test_run_lengths_double_to_the_limit_and_stop_at_the_key_bound():
    lengths, seq, previous = [], 1, 0
    while seq < 400:
        previous = _run_length(seq, previous, 10**6)
        lengths.append(previous)
        seq += previous
    assert lengths == [min(2**i, simnet._RUN_LIMIT) for i in range(len(lengths))]
    # bounded by the sends left and by the keys left below 2**64
    assert _run_length(1, 64, 3) == 3
    for previous in range(2 * simnet._RUN_LIMIT):
        assert _run_length(2**64 - 2, previous, 10**6) <= 2
        for seq in range(2**64 - 2 * simnet._RUN_LIMIT, 2**64):
            assert seq + _run_length(seq, previous, 10**6) <= 2**64
    cdf = simnet.delay_cdf(QUIET)
    assert len(sample_run(1, 0, 2**64 - 2, 2, 3, 0.0, cdf)) == 2
    with pytest.raises(ValueError):
        sample_run(1, 0, 2**64 - 2, 3, 3, 0.0, cdf)


# -- delay tables --------------------------------------------------------------

# Every law the tests and the corpus run.
LAWS = {
    "quiet": QUIET, "lossy": LOSSY, "instant": INSTANT, "uniform": UNIFORM,
    "jittery": JITTERY,
    "normal-zero-mean": NetworkModel(delay_mean=0.0, delay_var=4.0, delay_dist="normal"),
    "normal-zero-var": NetworkModel(delay_mean=2.5, delay_var=0.0, delay_dist="normal"),
    "uniform-zero-var": NetworkModel(delay_mean=3.5, delay_var=0.0, delay_dist="uniform"),
}


def pmf(cdf):
    return np.diff(cdf, prepend=0.0)


@pytest.mark.parametrize("name", sorted(LAWS))
def test_delay_table_is_a_distribution(name):
    cdf = simnet.delay_cdf(LAWS[name])
    assert cdf[-1] == 1.0
    assert (pmf(cdf) >= 0).all()
    assert math.isclose(pmf(cdf).sum(), 1.0, abs_tol=1e-12)
    for u in (0.0, 1.0 - 2.0**-53):
        assert 0 <= np.searchsorted(cdf, u, side="right") < len(cdf)


@pytest.mark.parametrize("mean,delay", [(0.0, 0), (2.5, 3), (3.49, 3), (5.0, 5)])
def test_constant_delay_puts_all_mass_on_the_rounded_mean(mean, delay):
    p = pmf(simnet.delay_cdf(NetworkModel(delay_mean=mean)))
    assert p[delay] == 1.0 and p.sum() == 1.0


def test_uniform_table_is_the_interval_overlap():
    # U[6 - sqrt(27), 6 + sqrt(27)): delay k takes the part of [k - 0.5, k + 0.5)
    half = math.sqrt(27.0)
    lo, hi = 6.0 - half, 6.0 + half
    want = [max(0.0, min(k + 0.5, hi) - max(k - 0.5, lo)) / (hi - lo) for k in range(12)]
    got = pmf(simnet.delay_cdf(UNIFORM))
    assert got.tolist() == pytest.approx(want, abs=1e-15)


def test_campaign_table_has_the_realized_moments():
    # The normal(5, 25.3356) law truncated at zero and rounded half-up.
    p = pmf(simnet.delay_cdf(LOSSY))
    k = np.arange(len(p))
    mean = float((p * k).sum())
    var = float((p * (k - mean) ** 2).sum())
    assert mean == pytest.approx(6.4576, abs=1e-3)
    assert var == pytest.approx(16.0181, abs=1e-3)


@pytest.mark.parametrize("name", ["lossy", "uniform", "jittery"])
def test_sampled_delays_follow_the_table(name):
    net = LAWS[name]
    cdf = simnet.delay_cdf(net)
    delays = np.concatenate([
        sample_run(5, 1, seq, 1, 1000, 0.0, cdf)[0] for seq in range(100)
    ])
    expected = pmf(cdf) * len(delays)
    observed = np.bincount(delays, minlength=len(cdf)).astype(float)
    assert observed[expected == 0].sum() == 0
    # Pool the tail bins expected to hold fewer than 5 draws into one bin.
    keep = expected >= 5
    exp = np.append(expected[keep], expected[~keep].sum())
    obs = np.append(observed[keep], observed[~keep].sum())
    if exp[-1] == 0:
        exp, obs = exp[:-1], obs[:-1]
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    df = len(exp) - 1
    # Mean df, sd sqrt(2 df): six sd above the mean is far past p = 1e-4.
    assert chi2 < df + 6 * math.sqrt(2 * df)


@pytest.mark.parametrize("mean,var,dist,field", [
    (6.0e5, 1.2e11, "uniform", "network.delay_var_ms2"),
    (2.0e6, 0.0, "constant", "network.delay_mean_ms"),
], ids=["uniform", "constant"])
def test_oversized_delay_tables_fail_validation(mean, var, dist, field):
    # The normal case is "oversized-normal" in test_scenario_load_rejects_bad_values.
    data = scenario().to_dict()
    data["network"].update(delay_mean_ms=mean, delay_var_ms2=var, delay_dist=dist)
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(data)
    assert err.value.field == field


def test_every_corpus_law_fits_its_table():
    for net in LAWS.values():
        scenario(network=net).validate()
        assert len(simnet.delay_cdf(net)) <= simnet.MAX_DELAY_TABLE
    assert len(simnet.delay_cdf(JITTERY)) == 296


# -- traces --------------------------------------------------------------------


def test_identical_scenarios_produce_identical_traces():
    sc = scenario(network=LOSSY, faults=(FaultEvent(4000, 1, "crash"),))
    assert run(sc).lines() == run(sc).lines()


def test_seed_perturbs_the_trace():
    assert run(scenario(network=LOSSY)).lines() != run(
        scenario(network=LOSSY, seed=2)
    ).lines()


def test_trace_times_are_non_decreasing():
    trace = run(scenario(network=LOSSY, duration=30_000))
    times = [ev.time for ev in trace.events]
    assert times == sorted(times)


def test_trace_file_round_trip(tmp_path):
    trace = run(scenario(duration=5_000))
    path = tmp_path / "trace.log"
    trace.write(path)
    assert path.read_text() == "\n".join(trace.lines()) + "\n"
    assert path.read_text().startswith("# trace v3\n")


def test_trace_write_streams_one_line_at_a_time(tmp_path, monkeypatch):
    # 16 k events, a 0.65 MB file, written one kept batch (at most 1,024
    # lines plus one event's) at a time
    trace = run(scenario(algorithm="naive-reduction", n_processes=10, network=LOSSY,
                         duration=30_000))
    line = TraceEvent.line
    calls = 0

    def counted(ev):
        nonlocal calls
        calls += 1
        return line(ev)

    monkeypatch.setattr(TraceEvent, "line", counted)
    path = tmp_path / "trace.log"
    tracemalloc.start()
    try:
        trace.write(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size >= 500_000
    assert peak < 0.1 * size, f"write peaked at {peak} B for a {size} B trace"
    # The logged lines go out as they are: none is formatted again.
    assert calls == 0
    header = "".join(h + "\n" for h in simnet._trace_header(trace.scenario))
    assert path.read_text() == header + "".join(trace.event_batches)


def test_an_in_memory_run_holds_under_70_bytes_per_event():
    # naive, N=10, 60 s on the measured network: 33 k events whose lines
    # average 52 characters.  Held one string per line, they took 102 B
    # each, and in a batch per send 44 B; in batches of over 1,024 lines
    # they take 41 B.
    sc = scenario(algorithm="naive-reduction", n_processes=10, network=LOSSY,
                  duration=60_000)
    run(replace(sc, duration=5_000))  # warm-up: first-run caches
    tracemalloc.start()
    try:
        trace = run(sc)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    events = len(trace.events)
    assert events > 30_000
    assert held < 70 * events, f"holds {held / events:.1f} B per event"


# Python calls per simulated message, counted with sys.setprofile.
# Simulator.run handles sends, deliveries and timer entries in its own loop:
# a delivery costs one call when the election rejects it and two when a
# follower accepts it (node, window), or three when an all-pairs node's
# monitor accepts it (node, monitor, window), and a send costs the node's
# next_heartbeat.  A sender's run of sends checks its keys and rekeys the
# stream once, with one link_stream call.  Counts do not depend on host
# speed.  The bounds are the counts measured when each process came to keep
# one timer entry, which a pop re-files by reading its node's earliest
# deadline (3.045, 3.495 and 2.141), rounded up.  The run turns the cyclic
# collector off itself; the test turns it off before it starts counting too,
# so that no collection between setprofile and the loop runs finalizers of
# garbage left by earlier tests inside the count.
@pytest.mark.parametrize("sc, bound", [
    pytest.param(scenario(network=LOSSY, duration=120_000), 3.05, id="nfdl"),
    pytest.param(scenario(algorithm="naive-reduction", n_processes=10, network=LOSSY,
                          duration=30_000), 3.50, id="naive"),
    pytest.param(speed_scenario(1, cycles=1, n=30, downtime=5_000, spacing=10_000), 2.15,
                 id="churn"),
])
def test_python_calls_per_message_stay_bounded(sc, bound):
    sim = Simulator(sc)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        trace = sim.run()
    finally:
        sys.setprofile(None)
        gc.enable()
    messages = sum(trace.link_sent.values())
    assert messages > 1_000
    assert calls / messages <= bound, f"{calls} calls for {messages} messages"


def leader_crash_and_recovery(tmp_path):
    return run(scenario(network=LOSSY, high_priority=2, duration=20_000,
                        faults=crash_recover(2, 5_000, 15_000)))


def naive_with_faults(tmp_path):
    faults = crash_recover(1, 5_000, 12_000) + crash_recover(3, 8_000, 9_000)
    return run(scenario(algorithm="naive-reduction", network=LOSSY, duration=20_000,
                        faults=faults))


def nfde_pair_monitor_restart(tmp_path):
    return run(scenario(algorithm="nfde-pair", n_processes=2, network=LOSSY,
                        duration=20_000, faults=crash_recover(1, 5_000, 12_000)))


def streamed_on_a_file_store(tmp_path):
    sc = scenario(network=LOSSY, high_priority=2, duration=20_000,
                  faults=crash_recover(2, 5_000, 15_000))
    return simnet.stream_run(sc, tmp_path / "trace.log", store=FileStore(tmp_path / "state"))


def cut_storm():
    # The 29 survivors of the leader's crash take over together at 11,220 ms
    # and the run ends 4 ms later, while their run is still being merged.
    sc = speed_scenario(1, cycles=1, n=30, downtime=5_000, spacing=10_000)
    sim = Simulator(replace(sc, duration=11_224, faults=sc.faults[:1]))
    return sim, sim.run()


def storm_cut_at_the_horizon(tmp_path):
    # The run holds hundreds of keys when the loop stops.
    sim, trace = cut_storm()
    run = cut_run(sim)
    assert type(run) is list and len(run) > 100
    return trace


def packed_storm_cut_at_the_horizon(tmp_path):
    # The same run moved into an int64 array: hundreds of its keys are still
    # there when the loop stops, in the array that a heap entry carries.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simnet, "_PACK", 100)
        sim, trace = cut_storm()
    run = cut_run(sim)
    assert type(run) is simnet.array and len(run) > 100
    return trace


# Simulator.run keeps the cyclic collector off, since reference counting
# alone frees what a run makes.  A cycle that a node, the queue or the trace
# starts to make would then stay unfreed until a collection after the run;
# here that collection must find nothing.  A run of deliveries cut at the
# horizon is dropped with its keys still in it, as a list or an int64 array,
# so a run that pointed back at what carries it would leave a cycle behind.
@pytest.mark.parametrize("run_one", [
    leader_crash_and_recovery, naive_with_faults, nfde_pair_monitor_restart,
    streamed_on_a_file_store, storm_cut_at_the_horizon, packed_storm_cut_at_the_horizon,
])
def test_a_run_leaves_no_cyclic_garbage(tmp_path, run_one):
    gc.collect()
    assert gc.isenabled()
    trace = run_one(tmp_path)
    assert trace.send_counts
    del trace
    assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_a_run_restores_the_callers_collector_setting(tmp_path, enabled):
    # Process 1's recovery reads its record, which is corrupt by then.
    sc = scenario(duration=10_000, faults=crash_recover(1, 3_000, 6_000))
    ok = Simulator(sc)
    failing = Simulator(sc, store=FileStore(tmp_path))
    (tmp_path / "zerotime.1").write_bytes(b"garbage")
    (gc.enable if enabled else gc.disable)()
    try:
        ok.run()
        assert gc.isenabled() is enabled
        with pytest.raises(StorageError, match="corrupt"):
            failing.run()
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_the_event_heap_grows_with_sends_not_messages(monkeypatch):
    # At an N=200 start-up every process broadcasts once in one instant, so
    # 39,800 deliveries are in flight together.  They wait in that instant's
    # run; the heap holds the ticks, the timers and an entry per run.  With
    # an entry per message it peaked at 38,275.
    n = 200
    heap = watch_heap(monkeypatch)
    trace, high = run(accuracy_scenario(1, duration=20_000, n=n)), heap.high
    assert sum(trace.link_sent.values()) > n * (n - 1)
    assert high <= 4 * n, f"the heap peaked at {high} entries"


@pytest.mark.parametrize("law", [
    {"delay_mean": 1.0, "delay_var": 1 / 3, "delay_dist": "uniform"},  # [0, 2] ms
    {"delay_mean": 0.0, "delay_var": 0.0, "delay_dist": "constant"},
], ids=["uniform-0-to-2", "constant-0"])
def test_delay_0_deliveries_take_one_heap_entry_per_send(monkeypatch, law):
    # At an N=200 start-up every process broadcasts at one instant, and a
    # quarter of the deliveries (uniform) or all of them (constant 0) are
    # due at that instant itself.  A send's delay-0 deliveries wait in one
    # run of their own, so the heap peaks at 575 and 599 entries; with a
    # heap entry per delay-0 delivery it peaked at 2,804 and 10,329.
    n = 200
    sc = accuracy_scenario(1, duration=5_000, n=n)
    heap = watch_heap(monkeypatch)
    trace, high = run(replace(sc, network=replace(sc.network, **law))), heap.high
    assert sum(trace.link_sent.values()) > n * (n - 1)
    assert high <= 4 * n, f"the heap peaked at {high} entries"


def test_a_lone_sender_instant_pushes_no_opening_entry(monkeypatch):
    # nfdl's leader is the only sender, so most send instants hold nothing
    # after its send: the instant's run is sorted as the send ends, with no
    # opening entry.  The heap still takes each next tick, the timer
    # re-files and an opening entry at the instants that hold more, such as
    # a delivery with delay 0.  That is 968 pushes for 364 sends; with an
    # opening entry at every send instant it was 1,291.
    heap = watch_heap(monkeypatch)
    trace = run(accuracy_scenario(1, duration=120_000))
    pushes = sum(heap.pushes.values())
    sends = sum(line.split("\t")[2] == "send" for line in trace.event_lines())
    assert sends > 300
    assert pushes <= 3.0 * sends, f"{pushes} heap pushes for {sends} sends"


def test_only_live_senders_hold_drawn_rows():
    # At an N=200 start-up every process draws a one-row run for its first
    # broadcast, and then only the leader sends on.  A sender's tick that
    # gets no heartbeat drops its rows; the 199 finished runs kept to the
    # end took 0.74 MiB.
    sim = Simulator(accuracy_scenario(1, duration=20_000, n=200))
    sim.run()
    holding = holding_rows(sim)
    assert holding
    for pid in holding:
        assert sim.nodes[pid] is not None and ticking(sim, pid) is sim.nodes[pid]


def test_start_up_holds_under_12_bytes_per_ordered_pair():
    # nfdl at N=500: each process's receiver tuple holds a pointer per peer.
    # Sliced from one id tuple, they share one int per id: 9.3 B per pair.
    # An int object per slot would take 24.8 B.
    Simulator(accuracy_scenario(1, duration=1_000))  # warm-up: first-run caches
    sc = accuracy_scenario(1, duration=1_000, n=500)
    tracemalloc.start()
    try:
        sim = Simulator(sc)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pairs = sc.n_processes * (sc.n_processes - 1)
    assert len(sim.nodes) == sc.n_processes
    assert held < 12 * pairs, f"holds {held / pairs:.1f} B per ordered pair"


def test_a_streamed_start_up_holds_under_70_bytes_per_ordered_pair(tmp_path):
    # nfdl at N=200 streaming to a file: all 200 processes broadcast at one
    # instant, so 39,800 deliveries wait in one run.  With the run held as
    # tuples and every deliver line kept until the next send, the traced
    # peak was 225 B per ordered pair; lines handed on in bounded batches
    # took it to 171 B, tuples packed past 8,192 entries to 72 B, and one
    # int key per entry, in an int64 array past 8,192, to 49 B.  Keys held
    # in a list alone would take 76 B.
    simnet.stream_run(accuracy_scenario(1, duration=2_000), tmp_path / "warm.log")
    n = 200
    tracemalloc.start()
    try:
        trace = simnet.stream_run(accuracy_scenario(1, duration=2_000, n=n),
                                  tmp_path / "trace.log")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pairs = n * (n - 1)
    assert sum(trace.link_sent.values()) >= pairs
    assert peak < 70 * pairs, f"peaked at {peak / pairs:.1f} B per ordered pair"


# The traced benchmark replaces each attribute in bench/spans.py's
# ENTRY_POINTS with a span recorder, looked up by name, so a renamed entry
# point, or a simulator that stops calling one through its class, would
# otherwise show only in the benchmark's own run.
SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _bench_entry_points(spans):
    """(owner, owning object, attribute) of each of the bench's entry points."""
    for _name, _layer, owner, attr, _outcome in spans.ENTRY_POINTS:
        module, _, cls = owner.partition(":")
        target = importlib.import_module(module)
        yield owner, getattr(target, cls) if cls else target, attr


def test_every_traced_entry_point_of_the_bench_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, target, attr in _bench_entry_points(spans):
        assert callable(getattr(target, attr, None)), f"{owner} has no {attr}"


# The per-layer metrics a traced bench run reads as 0 (seed 1, scale 0.02).
# Zero by construction: accuracy and naive run the Simulator directly, so
# no cli.main span exists and the in-memory store is read and written only
# in set-up, before the measured window; naive never runs an NfdlProcess,
# so no tick of one is useful.  Every other zero is drift: the simulator no
# longer calls the wrapped entry point (ROADMAP items 7 and 16).  It calls
# link_stream, not sample_delivery; a monitor's window call is record, not
# expected_arrival; it delivers through NfdlProcess.deliver, not
# on_heartbeat; it formats lines without TraceEvent.line.  An nfdl follower
# keeps its leader's window itself, so accuracy and churn run no
# NfdeMonitor and read protocol.monitor_us as 0.  churn streams its
# trace to a file, so it keeps no event lines (events, and queue.useful_ratio
# of them) and never calls EventTrace.write.  An entry point that drifts away
# from the bench adds a zero here and fails by name.
_BENCH_DRIFT_ZEROS = {
    "simnet.link.sample_us", "simnet.link.drop_ratio", "estimator.expected_arrival_us",
    "protocol.on_heartbeat.calls", "protocol.on_heartbeat_us", "protocol.adoptions",
    "simnet.trace.line_us",
}
BENCH_ZERO_METRICS = {
    "accuracy": _BENCH_DRIFT_ZEROS | {
        "cli.run_s", "stable_store.self_s", "protocol.monitor_us"},
    "naive": _BENCH_DRIFT_ZEROS | {
        "cli.run_s", "stable_store.self_s", "protocol.tick_useful_ratio"},
    "churn": _BENCH_DRIFT_ZEROS | {
        "protocol.monitor_us", "simnet.queue.useful_ratio", "simnet.trace.events",
        "simnet.trace.write_s", "simnet.trace.self_s"},
}


@pytest.mark.parametrize("workload", sorted(BENCH_ZERO_METRICS))
def test_the_bench_reads_zero_only_on_the_pinned_metrics(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SPANS.parent))
    child = importlib.import_module("child")
    workloads = importlib.import_module("workloads")
    # A traced run wraps every entry point, the simulator's heap calls and
    # Simulator.__init__ in place; monkeypatch puts each back afterwards.
    for _owner, target, attr in _bench_entry_points(child.spans):
        monkeypatch.setattr(target, attr, getattr(target, attr))
    monkeypatch.setattr(simnet, "heapq", simnet.heapq)
    monkeypatch.setattr(Simulator, "__init__", Simulator.__init__)
    path = tmp_path / "scenario.json"
    workloads.WORKLOADS[workload](1, 0.02).dump(path)
    result = child.run_once(workload, path, tmp_path, traced=True)
    assert result["failures"] == []
    zeros = {name for name, value in result["layers"].items() if value == 0}
    assert zeros == BENCH_ZERO_METRICS[workload]


def test_the_simulator_fires_nfdl_timers_through_the_class_attribute(monkeypatch):
    fired = 0
    on_timer_fire = NfdlProcess.on_timer_fire

    def counting(*args):
        nonlocal fired
        fired += 1
        return on_timer_fire(*args)

    monkeypatch.setattr(NfdlProcess, "on_timer_fire", counting)
    trace = run(speed_scenario(1, cycles=2, n=5, downtime=5_000, spacing=10_000))
    assert fired == sum(ev.kind == "timer_fire" for ev in trace.events) > 0


@pytest.mark.parametrize("algorithm, n, slots", [
    ("nfdl", 6, 6), ("naive-reduction", 6, 6), ("nfde-pair", 2, 2),
])
def test_timer_slots_are_sized_by_what_a_node_files(algorithm, n, slots):
    # Every node files one entry, at its earliest deadline, however many
    # peers it watches.
    sim = Simulator(scenario(algorithm=algorithm, n_processes=n))
    assert timer_slots(sim) == slots


def test_a_sink_sees_every_event_in_log_order(monkeypatch):
    sc = scenario(network=LOSSY, duration=10_000)
    kept = run(sc)
    monkeypatch.setattr(simnet, "_BATCH", 20)
    seen = []
    trace = Simulator(sc, sink=seen.append).run()
    assert trace.event_batches == []
    assert "".join(seen) == "".join(kept.event_batches)
    # Each batch is whole lines, so never empty.  Lines go on once more than
    # _BATCH wait, and at the end: every batch but the run's tail holds more
    # than _BATCH, and none more than _BATCH plus one event's lines, at most
    # n here (a broadcast and its losses).
    assert all(batch.endswith("\n") for batch in seen)
    sizes = [batch.count("\n") for batch in seen]
    assert len(sizes) > 2
    assert all(20 < size for size in sizes[:-1])
    assert all(0 < size <= 20 + sc.n_processes for size in sizes)


@st.composite
def storm_scenarios(draw):
    """nfdl at N 5-40 on the measured network: the start-up storm, and the
    storm after the pinned leader crashes."""
    n = draw(st.integers(min_value=5, max_value=40))
    leader = draw(st.integers(min_value=0, max_value=n - 1))
    crash = draw(st.integers(min_value=0, max_value=4_000))
    sc = accuracy_scenario(draw(st.integers(min_value=0, max_value=2**32)),
                           duration=crash + 2_000, n=n)
    return replace(sc, high_priority=leader, faults=(FaultEvent(crash, leader, "crash"),))


def starts_an_event(line):
    """False for the lines that follow their event's first: an output
    change, and a send's losses."""
    return line.split("\t")[2] != "output_change" and not line.endswith("reason=loss")


@given(storm_scenarios())
@settings(max_examples=25, deadline=None)
def test_batch_and_pack_thresholds_move_no_byte(sc):
    # A run hands its lines on once more than _BATCH wait, and moves a
    # delivery run longer than _PACK keys after a send into an int64 array.
    # At both extremes and in between, the bytes are the in-memory trace's,
    # and a batch is at most _BATCH lines plus the lines of the one event
    # that passed it.
    with pytest.MonkeyPatch.context() as mp:
        default = watch_heap(mp)
        # Compared as lists of lines: pytest diffs two long strings slowly.
        kept = "".join(run(sc).event_batches).split("\n")

    n = sc.n_processes
    for limit, pack in ((1, 1), (7, 50), (10**9, 1), (10**9, 10**9)):
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simnet, "_BATCH", limit)
            mp.setattr(simnet, "_PACK", pack)
            packed = watch_packs(mp)
            watch_heap(mp, 50 * default.pops + 100)
            Simulator(sc, sink=seen.append).run()
        assert "".join(seen).split("\n") == kept
        for batch in seen:
            starts = [i for i, line in enumerate(batch[:-1].split("\n"))
                      if starts_an_event(line)]
            assert starts[0] == 0 and starts[-1] <= limit, batch
        # A run moves only once it holds more than _PACK keys, and holds at
        # most the n(n-1) deliveries of one instant.  The start-up storm's
        # run holds nearly all of them, so it moves whenever _PACK is at
        # most half that.
        assert all(size > pack for size in packed)
        if n * (n - 1) <= pack:
            assert not packed
        if n * (n - 1) >= 2 * pack:
            assert packed


def test_trace_writer_leaves_no_file_when_the_run_fails(tmp_path):
    sc = scenario(duration=10_000)
    path = tmp_path / "trace.log"

    def failing(batch):
        writer.write(batch)
        if TraceEvent.parse(batch.splitlines()[-1]).time >= 5_000:
            raise RuntimeError("sink failed")

    with pytest.raises(RuntimeError, match="sink failed"):
        with simnet.TraceWriter(path, sc) as writer:
            Simulator(sc, sink=failing).run()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("output, payload", [
    (3, "leader=3"), ("suspect", "verdict=suspect"), (None, ""),
])
def test_output_change_lines_match_the_reference_format(output, payload):
    # No algorithm logs a None output today; it still formats as the
    # reference does, with an empty payload.
    # The run logs nothing before its 1,000 ms end, the first grace
    # deadline, so the line is handed on alone, as the run's one batch.
    sim = Simulator(scenario(duration=1_000))
    sim._log_output_change(2, 700, output)
    [logged] = sim.run().event_batches
    assert logged == f"700\t2\toutput_change\t{payload}\n"
    assert logged == TraceEvent.parse(logged).line() + "\n"


PAYLOAD_KEYS = ("sender", "seq", "uptime", "receiver", "leader", "verdict", "reason",
                "deadline")


def generic_line(ev: TraceEvent) -> str:
    """Reference formatter: a getattr loop over the payload keys in order."""
    parts = []
    for key in PAYLOAD_KEYS:
        value = getattr(ev, key)
        if value is not None:
            parts.append(f"{key}={value}")
    return f"{ev.time}\t{ev.process}\t{ev.kind}\t{' '.join(parts)}"


# A fixed alphabet: the default one makes a fresh hypothesis database build
# its character tables first, which can trip the slow-generation check.
LOWER = "abcdefghijklmnopqrstuvwxyz_"
PAYLOAD_VALUES = {key: st.integers(-(2**63), 2**63) for key in PAYLOAD_KEYS} | {
    "verdict": st.sampled_from([v.value for v in Verdict]) | st.text(LOWER, max_size=8),
    "reason": st.sampled_from(["loss", "down"]) | st.text(LOWER, max_size=8),
}


TRACE_EVENTS = st.builds(
    lambda time, process, kind, payload: TraceEvent(time, process, kind, **payload),
    time=st.integers(0, 2**63),
    process=st.integers(0, 10_000),
    kind=st.sampled_from(["crash", "recover", "timer_fire", "output_change", "send",
                          "drop", "deliver"]),
    payload=st.fixed_dictionaries({}, optional=PAYLOAD_VALUES),
)


@settings(max_examples=200)
@given(ev=TRACE_EVENTS)
def test_trace_line_matches_the_generic_formatter(ev):
    assert ev.line() == generic_line(ev)


@settings(max_examples=200)
@given(ev=TRACE_EVENTS)
def test_trace_parse_inverts_line(ev):
    assert TraceEvent.parse(ev.line()) == ev
    assert TraceEvent.parse(ev.line() + "\n") == ev


@pytest.mark.parametrize("line", [
    "", "12\t0\tcrash", "x\t0\tcrash\t", "1\t0\tdrop\tsender=a",
    "1\t0\tdrop\tcolour=red", "1\t0\tdrop\t\textra",
])
def test_trace_parse_rejects_a_malformed_line(line):
    with pytest.raises(ValueError):
        TraceEvent.parse(line)


def test_every_delivery_matches_an_earlier_send():
    trace = run(scenario(network=LOSSY, duration=30_000))
    sent = {}
    for ev in trace.events:
        if ev.kind == "send":
            sent[(ev.process, ev.seq)] = ev.time
    for ev in trace.events:
        if ev.kind == "deliver":
            assert (ev.sender, ev.seq) in sent
            assert sent[(ev.sender, ev.seq)] <= ev.time


def test_link_conservation():
    # Delays far beyond eta, so the horizon cuts deliveries in flight.
    sc = scenario(
        network=JITTERY, config=ProtocolConfig(20, 10, window_n=2),
        faults=(FaultEvent(2_000, 4, "crash"), FaultEvent(4_000, 4, "recover")),
        duration=6_000,
    )
    events = run(sc).events
    # Each message's send instant, until a deliver or drop line resolves it.
    unresolved = {}
    for ev in events:
        if ev.kind == "send":
            for r in range(sc.n_processes) if ev.receiver is None else (ev.receiver,):
                if r != ev.process:
                    unresolved[ev.process, ev.seq, r] = ev.time
        elif ev.kind in ("deliver", "drop"):
            del unresolved[ev.sender, ev.seq, ev.process]
    # Only messages still in flight at the horizon stay unresolved.
    longest = len(simnet.delay_cdf(sc.network)) - 1
    assert unresolved
    assert all(sc.duration - longest <= t for t in unresolved.values())
    # Loss and the crash both drop.
    assert {ev.reason for ev in events if ev.kind == "drop"} == {"loss", "down"}


@st.composite
def jittery_scenarios(draw):
    """Delays far beyond eta, with loss, at N 2-8: arrivals overtake each
    other and many land on one receiver in one millisecond."""
    algorithm = draw(st.sampled_from(["nfdl", "naive-reduction", "nfde-pair"]))
    n = 2 if algorithm == "nfde-pair" else draw(st.integers(min_value=2, max_value=8))
    mean = draw(st.integers(min_value=20, max_value=120))
    dist = draw(st.sampled_from(["normal", "uniform"]))
    # A uniform law's support must stay at or above 0.
    var = draw(st.integers(min_value=100, max_value=mean * mean // 3 if dist == "uniform"
                           else 3_600))
    network = NetworkModel(loss_prob=draw(st.sampled_from([0.0, 0.05, 0.3])),
                           delay_mean=mean, delay_var=var, delay_dist=dist)
    return scenario(
        n_processes=n, algorithm=algorithm, network=network,
        config=ProtocolConfig(eta=draw(st.integers(min_value=5, max_value=20)),
                              alpha=10, window_n=2),
        duration=3_000, seed=draw(st.integers(min_value=0, max_value=2**32)),
    )


@given(jittery_scenarios())
@settings(max_examples=40, deadline=None)
def test_deliveries_that_tie_keep_send_order(sc):
    # Deliveries at one (time, receiver) run in the order of their sends.
    sent: dict[tuple[int, int], int] = {}
    last: dict[tuple[int, int], int] = {}
    for i, ev in enumerate(run(sc).events):
        if ev.kind == "send":
            sent.setdefault((ev.process, ev.seq), i)
        elif ev.kind == "deliver":
            order = sent[ev.sender, ev.seq]
            assert order > last.get((ev.time, ev.process), -1), ev
            last[ev.time, ev.process] = order


@st.composite
def reference_scenarios(draw):
    """N 2-9 under all three algorithms, on constant (zero included),
    uniform and normal delays (jitter beyond eta included) with loss, with
    crash and recover instants (at 0 and zero-length ones included) and,
    under nfdl, maybe a pinned leader."""
    algorithm = draw(st.sampled_from(ALGORITHMS))
    n = 2 if algorithm == "nfde-pair" else draw(st.integers(min_value=2, max_value=9))
    eta = draw(st.integers(min_value=20, max_value=200))
    law = draw(st.sampled_from(DELAY_DISTS))
    mean = draw(st.integers(min_value=0, max_value=2 * eta))
    var = (0 if law == "constant" else eta * eta if law == "normal"
           else draw(st.integers(min_value=0, max_value=mean * mean // 3)))
    network = NetworkModel(loss_prob=draw(st.sampled_from([0.0, 0.05, 0.3])),
                           delay_mean=mean, delay_var=var, delay_dist=law)
    duration = draw(st.integers(min_value=1, max_value=25)) * eta
    faults = []
    for pid in range(n):
        # Down spans in order, each after the last recovery; a span of 0 is
        # a crash and a recovery at one instant.
        at = -1
        for gap, down in draw(st.lists(st.tuples(st.integers(0, 4 * eta),
                                                 st.integers(0, 4 * eta)), max_size=2)):
            at += 1 + gap
            if at >= duration:
                break
            faults.append(FaultEvent(at, pid, "crash"))
            at += down
            if at >= duration:
                break
            faults.append(FaultEvent(at, pid, "recover"))
    pinned = algorithm == "nfdl" and draw(st.booleans())
    return scenario(
        n_processes=n, algorithm=algorithm, network=network, duration=duration,
        config=ProtocolConfig(eta=eta, alpha=draw(st.integers(min_value=0, max_value=eta)),
                              window_n=draw(st.integers(min_value=1, max_value=4))),
        seed=draw(st.integers(min_value=0, max_value=2**32)), faults=tuple(faults),
        high_priority=draw(st.integers(min_value=0, max_value=n - 1)) if pinned else None,
    )


@given(reference_scenarios())
# A delivery moves process 2's deadline to 86 ms, earlier than its pending
# timer entry: a queue that files a new entry only when none is pending
# skips that timer_fire, whatever the hypothesis seed draws.
@example(scenario(
    n_processes=3, algorithm="naive-reduction", duration=100, seed=0,
    config=ProtocolConfig(eta=20, alpha=0, window_n=2),
    network=NetworkModel(loss_prob=0.0, delay_mean=16, delay_var=81, delay_dist="uniform"),
))
@settings(max_examples=200, deadline=None)
def test_the_simulator_matches_the_naive_reference(sc):
    # The simulator's queue (lazy timer re-files, per-instant delivery runs,
    # delay-0 runs of one, the horizon entry) must give the trace of one
    # heap entry per message and per timer arm.
    ref = ReferenceSimulator(sc).run()
    with pytest.MonkeyPatch.context() as mp:
        watch_heap(mp, 50 * ref.steps + 100)
        trace = run(sc)
    # Byte for byte, compared as lists of lines: pytest diffs two long
    # strings slowly.
    assert "".join(trace.event_batches).split("\n") == ref.lines + [""]
    assert trace.output_changes == ref.output_changes
    assert trace.final_outputs == ref.final_outputs
    assert trace.send_counts == ref.send_counts
    assert (trace.store_reads, trace.store_writes) == (ref.reads, ref.writes)


# -- protocol behavior under the simulator -------------------------------------


def test_fail_free_run_converges_and_only_the_leader_sends():
    trace = run(scenario(duration=60_000))
    assert set(trace.final_outputs.values()) == {4}
    changes = [ev for ev in trace.events if ev.kind == "output_change"]
    assert max(ev.time for ev in changes) < 5_000
    # steady state: exactly one broadcast per eta, from the leader
    assert sends_per_eta(trace, 3300, 100) == 1.0
    late_senders = {
        ev.process for ev in trace.events if ev.kind == "send" and ev.time >= 3300
    }
    assert late_senders == {4}


def test_naive_reduction_costs_n_squared_minus_n():
    trace = run(scenario(algorithm="naive-reduction", duration=20_000))
    assert sends_per_eta(trace, 3300, 40) == 20.0
    assert set(trace.final_outputs.values()) == {0}


def test_nfde_pair_trusts_then_suspects_on_crash():
    sc = scenario(
        algorithm="nfde-pair",
        n_processes=2,
        faults=(FaultEvent(5_000, 0, "crash"),),
        duration=10_000,
    )
    trace = run(sc)
    verdicts = [
        (ev.time, ev.verdict) for ev in trace.events if ev.kind == "output_change"
    ]
    assert verdicts[0][1] == "trust"
    assert verdicts[-1][1] == "suspect"
    assert trace.final_outputs[1] == "suspect"


def test_crashed_process_emits_nothing_until_recovery():
    sc = scenario(
        high_priority=2,
        faults=(FaultEvent(5_000, 2, "crash"), FaultEvent(15_000, 2, "recover")),
        duration=20_000,
    )
    trace = run(sc)
    for ev in trace.events:
        if ev.process == 2 and 5_000 <= ev.time < 15_000:
            assert ev.kind in ("crash", "recover", "drop"), ev
        if ev.kind == "send" and ev.process == 2:
            assert not 5_000 <= ev.time < 15_000


def test_leader_crash_triggers_re_election_and_recovery_resumes_labels():
    sc = scenario(
        high_priority=2,
        faults=(FaultEvent(5_000, 2, "crash"), FaultEvent(15_000, 2, "recover")),
        duration=20_000,
    )
    trace = run(sc)
    # someone else takes over while 2 is down
    interim = [
        ev for ev in trace.events
        if ev.kind == "output_change" and 5_000 <= ev.time < 15_000
    ]
    assert interim
    assert set(trace.final_outputs.values()) == {2}
    seqs = [ev.seq for ev in trace.events if ev.kind == "send" and ev.process == 2]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)
    pre_crash = [s for s in seqs if s * 330 < 5_000]
    post_recover = [s for s in seqs if s * 330 >= 15_000]
    assert pre_crash and post_recover
    assert min(post_recover) > max(pre_crash)


def test_crash_of_a_silent_monitor_changes_no_outputs():
    sc = scenario(
        high_priority=2,
        faults=(FaultEvent(5_000, 0, "crash"),),
        duration=20_000,
    )
    trace = run(sc)
    changes = [
        ev for ev in trace.events
        if ev.kind == "output_change" and ev.time > 5_000 and ev.process != 0
    ]
    assert changes == []


def test_store_counters_track_initializations_exactly():
    sc = scenario(
        high_priority=2,
        faults=(
            FaultEvent(5_000, 2, "crash"), FaultEvent(10_000, 2, "recover"),
            FaultEvent(14_000, 2, "crash"), FaultEvent(16_000, 2, "recover"),
        ),
        duration=20_000,
    )
    trace = run(sc)
    assert trace.store_writes == {pid: 1 for pid in range(5)}
    assert trace.store_reads == {0: 1, 1: 1, 2: 3, 3: 1, 4: 1}


def test_only_a_process_that_sends_asks_for_heartbeats(monkeypatch):
    calls = []
    real = NfdlProcess.next_heartbeat

    def counted(self, now):
        calls.append(self.self_id)
        return real(self, now)

    monkeypatch.setattr(NfdlProcess, "next_heartbeat", counted)
    trace = run(scenario())
    sends = sum(ev.kind == "send" for ev in trace.events)
    held: dict[int, int | None] = {}
    losses = 0
    for ev in trace.events:
        if ev.kind == "output_change":
            losses += held.get(ev.process) == ev.process
            held[ev.process] = ev.leader
    assert 0 < len(calls) <= sends + losses


def test_the_nfde_pair_receiver_never_ticks(monkeypatch):
    asked = set()
    real = _MonitorNode.next_heartbeat

    def recorded(self, now):
        asked.add(self.pid)
        return real(self, now)

    monkeypatch.setattr(_MonitorNode, "next_heartbeat", recorded)
    run(scenario(algorithm="nfde-pair", n_processes=2,
                 faults=(FaultEvent(5_000, 1, "crash"), FaultEvent(6_000, 1, "recover"))))
    assert asked == {0}


def test_a_moving_deadline_keeps_one_pending_timer(monkeypatch):
    # Wrap the simulator's heap calls the way the benchmark's traced run does.
    heap = watch_heap(monkeypatch)
    trace = run(scenario())
    timer_pushes = heap.pushes[_TIMER]
    deliveries = sum(ev.kind == "deliver" for ev in trace.events)
    # Each delivery moves its follower's deadline later; the timer already
    # pending re-files itself instead of a new entry per delivery.
    assert deliveries > 200
    assert timer_pushes < deliveries / 2


def test_an_all_pairs_process_keeps_one_pending_timer(monkeypatch):
    # The naive bench scenario at seed 1: each delivery moves one of its
    # receiver's N-1 deadlines later.  The receiver's one entry, at its
    # earliest deadline, re-files when it pops early; with an entry per
    # watched peer the run pushed 8,308 timer entries, 3.1 per N-1
    # deliveries, and held 90 live ones.
    n = 10
    sc = replace(accuracy_scenario(1, duration=90_000, n=n), algorithm="naive-reduction")
    sim = Simulator(sc)
    heap = watch_heap(monkeypatch)
    push, most = heap.heappush, 0

    def pushing(entries, entry):
        nonlocal most
        push(entries, entry)
        most = max(most, live_timers(sim))

    heap.heappush = pushing
    trace = sim.run()
    deliveries = sum(ev.kind == "deliver" for ev in trace.events)
    assert deliveries > 20_000
    assert heap.pushes[_TIMER] < deliveries / (n - 1)
    assert most <= n


def test_timers_of_one_process_at_one_instant_fire_in_the_order_last_set(monkeypatch):
    # jitter-beyond-eta-naive's settings at seed 0.  Under window_n=2 two
    # peers' deadlines often fall on one instant; at 7,899 ms process 3's
    # deadline on peer 2 (7,899, set at 7,861) falls due, and then a late
    # heartbeat from peer 0 sets a freshness point already past (7,893), so
    # that deadline is filed at its arm instant.  In both kinds of group the
    # peer set last fires last, whatever the deadlines' values or peer ids.
    sc = scenario(algorithm="naive-reduction", n_processes=4,
                  config=ProtocolConfig(20, 10, window_n=2), network=JITTERY, seed=0,
                  duration=10_000, faults=crash_recover(1, 3_000, 5_000))
    stamps, last_set, fires = itertools.count(), {}, []
    deliver, on_timer_fire = _MonitorNode.deliver, _MonitorNode.on_timer_fire

    def setting(node, hb, now):
        out = deliver(node, hb, now)
        if out[1] is not None:
            last_set[node, out[1]] = next(stamps)
        return out

    def firing(node, now, key):
        fires.append((node, now, key, node.monitors[key].deadline, last_set[node, key]))
        return on_timer_fire(node, now, key)

    monkeypatch.setattr(_MonitorNode, "deliver", setting)
    monkeypatch.setattr(_MonitorNode, "on_timer_fire", firing)
    run(sc)
    groups: dict[tuple, list] = {}
    for node, now, key, deadline, stamp in fires:
        groups.setdefault((node, now), []).append((key, deadline, stamp))
    same_value = other_value = 0
    for group in groups.values():
        assert [s for _, _, s in group] == sorted(s for _, _, s in group), group
        keys = [k for k, _, _ in group]
        if len(group) > 1 and keys != sorted(keys):
            if keys != [k for _, k in sorted((d, k) for k, d, _ in group)]:
                values = {d for _, d, _ in group}
                same_value += len(values) == 1
                other_value += len(values) > 1
    assert same_value > 0 and other_value > 0


@given(
    n=st.integers(min_value=2, max_value=72),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_electing_monitor_node_outputs_the_lowest_trusted_id(n, data):
    pid = data.draw(st.integers(min_value=0, max_value=n - 1))
    others = tuple(p for p in range(n) if p != pid)
    config = ProtocolConfig(eta=100, alpha=50, window_n=4)
    node = _MonitorNode(pid, config, MemoryStore(), 0,
                        targets=others, watched=others, elect=True)
    now = 0
    for _ in range(data.draw(st.integers(min_value=1, max_value=60))):
        now += data.draw(st.integers(min_value=0, max_value=300))
        peer = data.draw(st.sampled_from(others))
        if data.draw(st.booleans()):
            seq = data.draw(st.integers(min_value=1, max_value=40))
            node.deliver(Heartbeat(seq=seq, sender=peer, uptime=0), now)
        else:
            node.on_timer_fire(now, peer)
        trusted = [p for p, m in node.monitors.items() if m.verdict is Verdict.TRUST]
        assert node.output() == min([pid, *trusted])


def test_recover_listed_before_a_same_instant_crash_is_a_zero_length_crash():
    sc = scenario(faults=(FaultEvent(100, 1, "recover"), FaultEvent(100, 1, "crash")))
    sc.validate()
    faults = [(ev.time, ev.process, ev.kind) for ev in run(sc).events
              if ev.kind in ("crash", "recover")]
    assert faults == [(100, 1, "crash"), (100, 1, "recover")]


def test_simulator_runs_exactly_once():
    sim = Simulator(scenario(duration=3_000))
    sim.run()
    with pytest.raises(RuntimeError):
        sim.run()


# -- properties over random fault schedules -----------------------------------


@st.composite
def fault_schedules(draw):
    """A valid scenario: per process, alternating crash/recover instants."""
    algorithm = draw(st.sampled_from(["nfdl", "naive-reduction", "nfde-pair"]))
    n = 2 if algorithm == "nfde-pair" else draw(st.integers(min_value=2, max_value=6))
    fault_span = draw(st.integers(min_value=1_000, max_value=12_000))
    faults = []
    for pid in range(n):
        times = draw(st.lists(st.integers(min_value=0, max_value=fault_span - 1),
                              max_size=4, unique=True))
        faults += [FaultEvent(t, pid, ("crash", "recover")[i % 2])
                   for i, t in enumerate(sorted(times))]
    return scenario(
        n_processes=n,
        algorithm=algorithm,
        config=draw(st.sampled_from([CFG, ON_GRID])),
        network=draw(st.sampled_from([QUIET, LOSSY, INSTANT])),
        duration=fault_span + draw(st.sampled_from([0, 3_000, 6_000, 9_000])),
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        faults=tuple(faults),
    )


class CheckedNode:
    """Checks every ``deliver`` and ``on_timer_fire`` result against
    ``output()`` and ``deadline_of`` read before and after the call, and
    counts the calls."""

    calls = {"deliver": 0, "timer_fire": 0}

    def deliver(self, hb, now):
        keys = self.keys()
        output, deadlines = self.output(), [self.deadline_of(k) for k in keys]
        changed, key, deadline = super().deliver(hb, now)
        assert changed == (self.output() != output)
        moved = [k for k, d in zip(keys, deadlines) if self.deadline_of(k) != d]
        assert moved == ([] if key is None else [key])
        # the simulator arms the timer from the deadline handed back
        assert key is None or deadline == self.deadline_of(key)
        self.calls["deliver"] += 1
        return changed, key, deadline

    def on_timer_fire(self, now, key):
        output, deadline = self.output(), self.deadline_of(key)
        changed = super().on_timer_fire(now, key)
        assert changed == (self.output() != output)
        assert deadline is not None and deadline <= now
        assert self.deadline_of(key) is None
        self.calls["timer_fire"] += 1
        return changed


class CheckedElectionNode(CheckedNode, NfdlProcess):
    def keys(self):
        return [self.self_id]


class CheckedMonitorNode(CheckedNode, _MonitorNode):
    def keys(self):
        return list(self.monitors)


@given(fault_schedules())
@settings(max_examples=40, deadline=None)
def test_protocol_invariants_hold_under_random_fault_schedules(sc):
    # Every node reports its own output changes and moved deadlines.
    CheckedNode.calls.update(deliver=0, timer_fire=0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simnet, "NfdlProcess", CheckedElectionNode)
        mp.setattr(simnet, "_MonitorNode", CheckedMonitorNode)
        trace = run(sc)
    kinds = [ev.kind for ev in trace.events]
    assert CheckedNode.calls == {
        "deliver": kinds.count("deliver"), "timer_fire": kinds.count("timer_fire")
    }
    # one zerotime write per process lifetime, recoveries only read it back
    assert trace.store_writes == {pid: 1 for pid in range(sc.n_processes)}
    last: dict[tuple[int, int | None], int] = {}
    down: set[int] = set()
    history: dict[int, list] = {pid: [] for pid in range(sc.n_processes)}
    for ev in trace.events:
        # the recorded output history is exactly the logged output changes
        if ev.kind == "output_change":
            output = ev.leader if ev.verdict is None else ev.verdict
            history[ev.process].append((ev.time, output))
        # labels increase strictly per broadcaster and per unicast link
        if ev.kind == "send":
            stream = (ev.process, ev.receiver)
            assert ev.seq > last.get(stream, 0)
            last[stream] = ev.seq
        # a crashed process only has heartbeats dropped on it until it recovers
        if ev.kind == "crash":
            down.add(ev.process)
        elif ev.kind == "recover":
            down.discard(ev.process)
        elif ev.process in down:
            assert ev.kind == "drop", ev
        # a timer never fires before its deadline
        if ev.kind == "timer_fire":
            assert ev.deadline <= ev.time, ev
    assert trace.output_changes == history
    if sc.algorithm == "nfdl":
        assert_leaders_send_on_every_grid_instant(sc, trace)
    # a quiet network settles on one leader within 6 s of the last fault
    last_fault = max((f.at for f in sc.faults), default=0)
    electing = sc.algorithm != "nfde-pair"
    settles = sc.config == CFG and sc.network != LOSSY
    if electing and settles and sc.duration - last_fault >= 6_000:
        assert len(set(trace.final_outputs.values())) <= 1


def assert_leaders_send_on_every_grid_instant(sc, trace):
    """An nfdl process sends at every instant k*eta (zerotime is 0: every
    process first starts at 0) from its output_change to itself through the
    instant it changes away, both inclusive; a crash ends the span just
    before the crash instant, and the run's end just before ``duration``."""
    sent = {(ev.process, ev.time) for ev in trace.events if ev.kind == "send"}
    since: dict[int, int] = {}
    spans = []
    for ev in trace.events:
        if ev.kind == "output_change" and ev.leader == ev.process:
            since[ev.process] = ev.time
        elif ev.kind == "output_change" and ev.process in since:
            spans.append((ev.process, since.pop(ev.process), ev.time))
        elif ev.kind == "crash" and ev.process in since:
            spans.append((ev.process, since.pop(ev.process), ev.time - 1))
    spans += [(pid, start, sc.duration - 1) for pid, start in since.items()]
    eta = sc.config.eta
    for pid, start, end in spans:
        for t in range(-(-start // eta) * eta, end + 1, eta):
            assert (pid, t) in sent, (pid, start, end, t)
