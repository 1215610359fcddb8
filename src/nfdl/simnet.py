"""Deterministic discrete-event simulation of heartbeat protocols.

A single virtual clock in integer milliseconds drives every process; the
protocol machines only ever see the clock value handed to them.  Links drop
each message independently with a fixed probability and delay survivors by a
sampled, non-negative integer delay.  Every message gets its own random
sub-stream keyed by (seed, sender, seq, receiver), so traces are a pure
function of (scenario, seed) and editing one link or adding a process never
perturbs the samples on another link.  The sub-stream is numpy's
``PCG64(SeedSequence(seed, spawn_key=(sender, seq, receiver)))``, seeded by
integer arithmetic: :func:`link_stream` reseeds one shared generator per
message and returns it, valid until its next call.

Fault injection is a scripted schedule of crash/recover events.  A crash
discards the process's volatile state and silences it; messages still in
flight toward it are dropped at their delivery instant.  Recovery re-runs
initialization against the preserved stable store with the advanced clock.

Simultaneous events are ordered by (time, process id, event kind rank) with
kind ranks crash < recover < timer < send < deliver, then by insertion
order.  Timer-before-deliver makes a heartbeat that lands exactly on the
freshness deadline count as late, matching the strict "arrived before the
deadline" reading of the monitors.

Every algorithm runs behind one node interface.  At each send instant
``zerotime + i*eta`` the node's ``next_heartbeat(now)`` returns a heartbeat
(or None) for its ``targets``: None broadcasts it as one ``send`` event,
a tuple sends and logs one unicast per receiver.  ``deliver(hb, now)``
applies a delivery, ``fire(key, now)`` the expiry of the deadline under
``key`` in ``deadlines()``, and ``output()`` is the value traced by
``output_change`` (a leader id, or a trust/suspect verdict).

``nfdl`` runs ``NfdlProcess`` through a thin subclass.  Both baselines are
one all-pairs node that sends to its targets and runs an ``NfdeMonitor``
per watched peer:

* ``naive-reduction`` - every process sends to and watches all others and
  outputs the lowest id it trusts, counting itself;
* ``nfde-pair`` - process 0 sends to process 1, which watches it and
  outputs its verdict.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import index
from pathlib import Path

import numpy as np

from .protocol import (
    Heartbeat,
    NfdeMonitor,
    NfdlProcess,
    ProtocolConfig,
    Verdict,
)
from .stable_store import MemoryStore, load_or_create_zerotime, next_send_time, send_label

TRACE_FORMAT_VERSION = 1
SCENARIO_SCHEMA_VERSION = 1

ALGORITHMS = ("nfdl", "nfde-pair", "naive-reduction")
DELAY_DISTS = ("constant", "uniform", "normal")

# Uptime granted to a pinned high-priority leader at every initialization.
# Large enough that no honestly accumulated uptime ever competes.
PRIORITY_UPTIME_BOOST = 10**9


class ScenarioError(ValueError):
    """A scenario field failed validation; names the offending field."""

    def __init__(self, fld: str, msg: str):
        self.field = fld
        super().__init__(f"{fld}: {msg}")


@dataclass(frozen=True, slots=True)
class NetworkModel:
    """Per-link loss probability and delay law."""

    loss_prob: float = 0.0
    delay_mean: float = 5.0
    delay_var: float = 0.0
    delay_dist: str = "constant"

    def validate(self, fld: str = "network") -> None:
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ScenarioError(f"{fld}.loss_prob", "must be within [0, 1]")
        if not 0 <= self.delay_mean < math.inf:
            raise ScenarioError(f"{fld}.delay_mean", "must be finite and >= 0")
        if not 0 <= self.delay_var < math.inf:
            raise ScenarioError(f"{fld}.delay_var", "must be finite and >= 0")
        if self.delay_dist not in DELAY_DISTS:
            raise ScenarioError(
                f"{fld}.delay_dist", f"must be one of {DELAY_DISTS}"
            )
        if self.delay_dist == "constant" and self.delay_var != 0:
            raise ScenarioError(
                f"{fld}.delay_var", "constant delay requires zero variance"
            )
        if self.delay_dist == "uniform":
            half = math.sqrt(3.0 * self.delay_var)
            if self.delay_mean - half < 0 or not math.isfinite(self.delay_mean + half):
                raise ScenarioError(
                    f"{fld}.delay_var",
                    "uniform delay support must lie within [0, inf); "
                    "reduce variance or raise the mean",
                )


@dataclass(frozen=True, slots=True)
class FaultEvent:
    at: int
    process: int
    kind: str  # "crash" | "recover"


@dataclass(frozen=True, slots=True)
class Scenario:
    """Everything a run depends on; traces are a function of this plus seed."""

    n_processes: int
    config: ProtocolConfig
    network: NetworkModel
    duration: int
    seed: int
    algorithm: str = "nfdl"
    faults: tuple[FaultEvent, ...] = ()
    high_priority: int | None = None

    def validate(self) -> None:
        if self.n_processes < 2:
            raise ScenarioError("n_processes", "must be >= 2")
        if self.algorithm not in ALGORITHMS:
            raise ScenarioError("algorithm", f"must be one of {ALGORITHMS}")
        if self.algorithm == "nfde-pair" and self.n_processes != 2:
            raise ScenarioError(
                "n_processes", "nfde-pair is a two-process arrangement"
            )
        self.network.validate()
        if self.duration < 1:
            raise ScenarioError("duration", "must be >= 1 ms")
        if not 0 <= self.seed < 2**64:
            raise ScenarioError("seed", "must be within [0, 2**64)")
        if self.high_priority is not None:
            if self.algorithm != "nfdl":
                raise ScenarioError(
                    "high_priority", "only meaningful for the nfdl algorithm"
                )
            if not 0 <= self.high_priority < self.n_processes:
                raise ScenarioError("high_priority", "not a valid process id")
        # Walk the faults in apply order, naming each by its file position.
        per_proc_down: dict[int, bool] = {}
        for i, f in self.fault_order():
            fld = f"faults[{i}]"
            if f.kind not in ("crash", "recover"):
                raise ScenarioError(f"{fld}.kind", "must be crash or recover")
            if not 0 <= f.process < self.n_processes:
                raise ScenarioError(f"{fld}.process", "not a valid process id")
            if not 0 <= f.at < self.duration:
                raise ScenarioError(
                    f"{fld}.at", "fault times must fall inside [0, duration)"
                )
            down = per_proc_down.get(f.process, False)
            if f.kind == "crash" and down:
                raise ScenarioError(f"{fld}", "process is already crashed")
            if f.kind == "recover" and not down:
                raise ScenarioError(f"{fld}", "recover without a prior crash")
            per_proc_down[f.process] = f.kind == "crash"

    def fault_order(self) -> list[tuple[int, FaultEvent]]:
        """(file index, fault) pairs in the order the simulator applies them:
        by time, then process, crash before recover, then file order."""
        return sorted(
            enumerate(self.faults),
            key=lambda e: (e[1].at, e[1].process, e[1].kind != "crash", e[0]),
        )

    def to_dict(self) -> dict:
        return {
            "version": SCENARIO_SCHEMA_VERSION,
            "n_processes": self.n_processes,
            "algorithm": self.algorithm,
            "config": {
                "eta_ms": self.config.eta,
                "alpha_ms": self.config.alpha,
                "window_n": self.config.window_n,
            },
            "network": {
                "loss_prob": self.network.loss_prob,
                "delay_mean_ms": self.network.delay_mean,
                "delay_var_ms2": self.network.delay_var,
                "delay_dist": self.network.delay_dist,
            },
            "faults": [
                {"at_ms": f.at, "process": f.process, "kind": f.kind}
                for f in self.faults
            ],
            "duration_ms": self.duration,
            "seed": self.seed,
            "high_priority": self.high_priority,
        }

    @staticmethod
    def from_dict(data: dict) -> "Scenario":
        def need(mapping, key, fld, types):
            if key not in mapping:
                raise ScenarioError(fld, "missing required field")
            value = mapping[key]
            if not isinstance(value, types) or isinstance(value, bool):
                raise ScenarioError(fld, f"expected {types}, got {value!r}")
            return value

        def real(mapping, key, fld):
            value = need(mapping, key, fld, (int, float))
            try:
                return float(value)
            except OverflowError:
                raise ScenarioError(fld, f"out of range: {value!r}") from None

        if not isinstance(data, dict):
            raise ScenarioError("scenario", "top level must be an object")
        version = data.get("version", SCENARIO_SCHEMA_VERSION)
        if version != SCENARIO_SCHEMA_VERSION:
            raise ScenarioError("version", f"unsupported schema version {version}")
        cfg = need(data, "config", "config", dict)
        net = need(data, "network", "network", dict)
        eta = need(cfg, "eta_ms", "config.eta_ms", int)
        alpha = need(cfg, "alpha_ms", "config.alpha_ms", int)
        window_n = (
            need(cfg, "window_n", "config.window_n", int) if "window_n" in cfg else 100
        )
        try:
            config = ProtocolConfig(eta=eta, alpha=alpha, window_n=window_n)
        except ValueError as exc:
            raise ScenarioError("config", str(exc)) from exc
        network = NetworkModel(
            loss_prob=real(net, "loss_prob", "network.loss_prob"),
            delay_mean=real(net, "delay_mean_ms", "network.delay_mean_ms"),
            delay_var=real(net, "delay_var_ms2", "network.delay_var_ms2"),
            delay_dist=need(net, "delay_dist", "network.delay_dist", str),
        )
        faults = []
        raw_faults = data.get("faults", [])
        if not isinstance(raw_faults, list):
            raise ScenarioError("faults", "must be a list")
        for i, rf in enumerate(raw_faults):
            fld = f"faults[{i}]"
            if not isinstance(rf, dict):
                raise ScenarioError(fld, "must be an object")
            faults.append(
                FaultEvent(
                    at=need(rf, "at_ms", f"{fld}.at_ms", int),
                    process=need(rf, "process", f"{fld}.process", int),
                    kind=need(rf, "kind", f"{fld}.kind", str),
                )
            )
        high_priority = data.get("high_priority")
        if high_priority is not None:
            need(data, "high_priority", "high_priority", int)
        scenario = Scenario(
            n_processes=need(data, "n_processes", "n_processes", int),
            config=config,
            network=network,
            duration=need(data, "duration_ms", "duration_ms", int),
            seed=need(data, "seed", "seed", int),
            algorithm=need(data, "algorithm", "algorithm", str)
            if "algorithm" in data else "nfdl",
            faults=tuple(faults),
            high_priority=high_priority,
        )
        scenario.validate()
        return scenario

    @staticmethod
    def load(path: str | Path) -> "Scenario":
        try:
            data = json.loads(Path(path).read_text())
        except (ValueError, RecursionError) as exc:
            raise ScenarioError("scenario", f"not valid JSON: {exc}") from exc
        return Scenario.from_dict(data)

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Link sampling
#
# A message's stream is numpy's
#   Generator(PCG64(SeedSequence(entropy=seed & (2**64 - 1),
#                                spawn_key=(sender, seq, receiver))))
# bit for bit, but seeded in plain integer arithmetic instead of building a
# SeedSequence and a PCG64 per message.  SeedSequence (pool size 4) hashes the
# seed into a pool of four 32-bit words and then mixes in each 32-bit word of
# sender, seq and receiver in turn; PCG64 hashes the pool out into a 128-bit
# initial state and increment and runs the PCG seeding steps.  The pool after
# the seed is kept once per seed and the pool after (sender, seq) once per
# send, so each receiver mixes in only its own word.

_MASK32 = 0xFFFF_FFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# SeedSequence's hashing constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# The low 16 bits of each 32-bit word of a 128-bit integer.
_LOW16_LANES = 0x0000FFFF_0000FFFF_0000FFFF_0000FFFF


def _hashmix(value: int, h: int) -> tuple[int, int]:
    """SeedSequence's hashmix: (hashed value, next hash constant)."""
    value ^= h
    h = h * _MULT_A & _MASK32
    value = value * h & _MASK32
    return value ^ value >> 16, h


def _mix(x: int, y: int) -> int:
    """SeedSequence's mix of pool word ``x`` with hashed word ``y``."""
    r = _MIX_MULT_L * x - _MIX_MULT_R * y & _MASK32
    return r ^ r >> 16


def _seed_pool(entropy: int) -> tuple[int, ...]:
    """Pool words and hash constant after a 64-bit seed, zero-padded to the
    pool size as SeedSequence pads its entropy whenever a spawn key follows."""
    h = _INIT_A
    pool = []
    for word in (entropy & _MASK32, entropy >> 32, 0, 0):
        value, h = _hashmix(word, h)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], value)
    return (*pool, h)


@lru_cache(maxsize=1024)
def _word_terms(word: int, h: int) -> tuple[int, ...]:
    """What mixing ``word`` subtracts from each pool word (its four hashmix
    values times the mix multiplier), then the next hash constant.  Cached,
    because a run mixes the same few sender and receiver words over and over;
    a seq word is new on every send and bypasses the cache."""
    terms = []
    for _ in range(4):
        value, h = _hashmix(word, h)
        terms.append(_MIX_MULT_R * value)
    return (*terms, h)


def _absorb(
    pool: tuple[int, ...], value: int, word_terms=_word_terms
) -> tuple[int, ...]:
    """Mix the 32-bit words of ``value``, least significant first, into
    ``pool``; numpy rejects a negative spawn key the same way."""
    value = index(value)
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    p0, p1, p2, p3, h = pool
    while True:
        t0, t1, t2, t3, h = word_terms(value & _MASK32, h)
        p0 = _MIX_MULT_L * p0 - t0 & _MASK32
        p1 = _MIX_MULT_L * p1 - t1 & _MASK32
        p2 = _MIX_MULT_L * p2 - t2 & _MASK32
        p3 = _MIX_MULT_L * p3 - t3 & _MASK32
        p0 ^= p0 >> 16
        p1 ^= p1 >> 16
        p2 ^= p2 >> 16
        p3 ^= p3 >> 16
        value >>= 32
        if not value:
            return p0, p1, p2, p3, h


# generate_state(4, uint64) hashes its i-th output word with the hash constant
# _INIT_B * _MULT_B**i (xor) and then the next one (multiply).
_STATE_HASH = tuple(
    (_INIT_B * _MULT_B**i & _MASK32, _INIT_B * _MULT_B ** (i + 1) & _MASK32)
    for i in range(8)
)


def _pcg64_state(pool: tuple[int, ...]) -> tuple[int, int]:
    """PCG64's (state, inc) when seeded from ``pool``.

    generate_state's eight 32-bit words w0..w7 cycle through the pool.  Read
    as little-endian uint64s (high:low) u0 = w1:w0 .. u3 = w7:w6, they give
    initstate = u0:u1 and initseq = u2:u3; each word's final xor-shift is done
    on these packed 128-bit values.  Then pcg_setseq_128_srandom_r:
    inc = 2*initseq + 1, and two LCG steps around adding initstate.
    """
    w = [(pool[i & 3] ^ x) * k & _MASK32 for i, (x, k) in enumerate(_STATE_HASH)]
    initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
    initseq = w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]
    initstate ^= initstate >> 16 & _LOW16_LANES
    initseq ^= initseq >> 16 & _LOW16_LANES
    inc = (initseq << 1 | 1) & _MASK128
    return ((initstate + inc) * _PCG_MULT + inc) & _MASK128, inc


_seed_cache: tuple = (None, None)  # (seed, pool after the seed words)
_send_cache: tuple = (None, None)  # ((seed, sender, seq), pool after both)
_stream: tuple | None = None  # (PCG64, Generator), reseeded by every call


def link_stream(seed: int, sender: int, seq: int, receiver: int) -> np.random.Generator:
    """Independent random stream for one message on one directed link.

    The stream is exactly ``Generator(PCG64(SeedSequence(entropy=seed &
    (2**64 - 1), spawn_key=(sender, seq, receiver))))``; a negative key raises
    ValueError as numpy does.  The returned Generator is one shared object,
    reseeded in place: it is valid only until the next call from any thread,
    so draw from it at once (the simulator hands it straight to
    :func:`sample_delivery`).
    """
    global _seed_cache, _send_cache, _stream
    seed, sender, seq = index(seed), index(sender), index(seq)
    send = (seed, sender, seq)
    if _send_cache[0] != send:
        if _seed_cache[0] != seed:
            _seed_cache = (seed, _seed_pool(seed & _MASK64))
        pool = _absorb(_seed_cache[1], sender)
        _send_cache = (send, _absorb(pool, seq, _word_terms.__wrapped__))
    state, inc = _pcg64_state(_absorb(_send_cache[1], receiver))
    if _stream is None:
        bit_generator = np.random.PCG64(0)
        _stream = (bit_generator, np.random.Generator(bit_generator))
    bit_generator, generator = _stream
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator


def sample_delivery(
    send_time: int, network: NetworkModel, rng: np.random.Generator
) -> int | None:
    """Delivery instant for a message sent at ``send_time``, or None if lost.

    One loss draw, then one delay draw from the configured law, rounded
    half-up to whole milliseconds and floored at zero so delivery never
    precedes the send.
    """
    if rng.random() < network.loss_prob:
        return None
    if network.delay_dist == "constant":
        delay = network.delay_mean
    elif network.delay_dist == "uniform":
        half = math.sqrt(3.0 * network.delay_var)
        delay = rng.uniform(network.delay_mean - half, network.delay_mean + half)
    else:  # normal, truncated at zero by redrawing
        sigma = math.sqrt(network.delay_var)
        delay = rng.normal(network.delay_mean, sigma)
        for _ in range(100):
            if delay >= 0:
                break
            delay = rng.normal(network.delay_mean, sigma)
        else:
            delay = 0.0
    return send_time + max(0, math.floor(delay + 0.5))


# ---------------------------------------------------------------------------
# Traces


@dataclass(frozen=True, slots=True)
class TraceEvent:
    time: int
    process: int
    kind: str
    sender: int | None = None
    seq: int | None = None
    uptime: int | None = None
    receiver: int | None = None
    leader: int | None = None
    verdict: str | None = None
    reason: str | None = None
    deadline: int | None = None

    def line(self) -> str:
        parts = []
        for key in ("sender", "seq", "uptime", "receiver", "leader", "verdict",
                    "reason", "deadline"):
            value = getattr(self, key)
            if value is not None:
                parts.append(f"{key}={value}")
        return f"{self.time}\t{self.process}\t{self.kind}\t{' '.join(parts)}"


@dataclass
class EventTrace:
    """Everything observable about one run: the event log plus counters."""

    scenario: Scenario
    events: list[TraceEvent] = field(default_factory=list)
    send_counts: dict[int, int] = field(default_factory=dict)
    link_sent: dict[tuple[int, int], int] = field(default_factory=dict)
    link_delivered: dict[tuple[int, int], int] = field(default_factory=dict)
    link_dropped: dict[tuple[int, int], int] = field(default_factory=dict)
    store_reads: dict[int, int] = field(default_factory=dict)
    store_writes: dict[int, int] = field(default_factory=dict)
    final_outputs: dict[int, int | str | None] = field(default_factory=dict)

    def lines(self) -> list[str]:
        header = [
            f"# trace v{TRACE_FORMAT_VERSION}",
            "# scenario " + json.dumps(self.scenario.to_dict(), sort_keys=True),
            "# columns time_ms\tprocess\tevent\tpayload",
        ]
        return header + [ev.line() for ev in self.events]

    def write(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.lines()) + "\n")


# ---------------------------------------------------------------------------
# The simulator

_CRASH, _RECOVER, _TIMER, _TICK, _DELIVER = range(5)


class _ElectionNode(NfdlProcess):
    """``NfdlProcess`` behind the node interface; the leader broadcasts."""

    targets = None

    def deliver(self, hb: Heartbeat, now: int) -> None:
        self.on_heartbeat(hb, now)

    def fire(self, key, now: int) -> None:
        self.on_timer_fire(now)

    def output(self) -> int | None:
        return self.leader

    def deadlines(self) -> dict[None, int | None]:
        return {None: self.deadline}


class _MonitorNode:
    """All-pairs monitor: heartbeats to ``targets``, one monitor per watched peer.

    An electing node outputs the lowest id it trusts, counting itself;
    otherwise the output is the verdict on its watched peer (None when it
    watches nobody).
    """

    def __init__(self, pid: int, config: ProtocolConfig, store, now: int,
                 targets: tuple[int, ...], watched: tuple[int, ...], elect: bool):
        self.pid = pid
        self.config = config
        self.zerotime = load_or_create_zerotime(store, pid, now)
        self.targets = targets
        self.monitors = {p: NfdeMonitor(config) for p in watched}
        self.elect = elect

    def next_heartbeat(self, now: int) -> Heartbeat:
        seq = send_label(self.zerotime, now, self.config.eta)
        return Heartbeat(seq=seq, sender=self.pid, uptime=0)

    def deliver(self, hb: Heartbeat, now: int) -> None:
        self.monitors[hb.sender].on_heartbeat(hb.seq, now)

    def fire(self, key: int, now: int) -> None:
        self.monitors[key].on_timeout(now)

    def output(self) -> int | str | None:
        if self.elect:
            trusted = [p for p, m in self.monitors.items() if m.verdict is Verdict.TRUST]
            return min([self.pid, *trusted])
        return next((m.verdict.value for m in self.monitors.values()), None)

    def deadlines(self) -> dict[int, int | None]:
        return {peer: m.deadline for peer, m in self.monitors.items()}


class Simulator:
    """Single-use event loop for one scenario.

    After :meth:`run` the per-process nodes stay inspectable via
    :attr:`nodes` (None for processes that ended the run crashed); under
    ``nfdl`` each node is an :class:`NfdlProcess`.
    """

    def __init__(self, scenario: Scenario, store=None):
        scenario.validate()
        self.scenario = scenario
        self.store = store if store is not None else MemoryStore()
        self.nodes: list[object | None] = [None] * scenario.n_processes
        self._incarnation = [0] * scenario.n_processes
        self._heap: list[tuple] = []
        self._pushes = 0
        self._armed: dict[tuple[int, int | None], int] = {}
        self.trace = EventTrace(scenario=scenario)
        self._ran = False
        for pid in range(scenario.n_processes):
            self._start(pid, 0)

    # -- plumbing ----------------------------------------------------------

    def _push(self, time: int, pid: int, rank: int, payload) -> None:
        heapq.heappush(self._heap, (time, pid, rank, self._pushes, payload))
        self._pushes += 1

    def _log(self, ev: TraceEvent) -> None:
        self.trace.events.append(ev)

    # -- run ---------------------------------------------------------------

    def run(self) -> EventTrace:
        if self._ran:
            raise RuntimeError("a Simulator instance runs exactly once")
        self._ran = True
        sc = self.scenario
        for f in sc.faults:
            rank = _CRASH if f.kind == "crash" else _RECOVER
            self._push(f.at, f.process, rank, f.kind)
        while self._heap:
            time, pid, rank, _, payload = heapq.heappop(self._heap)
            if time >= sc.duration:
                break
            if rank == _CRASH:
                self._on_crash(pid, time)
            elif rank == _RECOVER:
                self._on_recover(pid, time)
            elif rank == _TIMER:
                self._on_timer(pid, time, payload)
            elif rank == _TICK:
                self._on_tick(pid, time, payload)
            else:
                self._on_deliver(pid, time, payload)
        self.trace.store_reads = dict(self.store.reads)
        self.trace.store_writes = dict(self.store.writes)
        for pid, node in enumerate(self.nodes):
            if node is not None:
                self.trace.final_outputs[pid] = node.output()
        return self.trace

    # -- process lifecycle -------------------------------------------------

    def _start(self, pid: int, now: int) -> None:
        sc = self.scenario
        if sc.algorithm == "nfdl":
            node = _ElectionNode(pid, sc.config, self.store, now)
            if sc.high_priority == pid:
                node.assume_leadership(PRIORITY_UPTIME_BOOST)
        elif sc.algorithm == "nfde-pair":
            node = _MonitorNode(pid, sc.config, self.store, now,
                                targets=(1,) if pid == 0 else (),
                                watched=(0,) if pid == 1 else (), elect=False)
        else:
            others = tuple(p for p in range(sc.n_processes) if p != pid)
            node = _MonitorNode(pid, sc.config, self.store, now,
                                targets=others, watched=others, elect=True)
        self.nodes[pid] = node
        first_send = next_send_time(node.zerotime, now, sc.config.eta)
        self._push(first_send, pid, _TICK, self._incarnation[pid])
        self._sync_timers(pid, now)

    def _on_crash(self, pid: int, now: int) -> None:
        self.nodes[pid] = None
        self._incarnation[pid] += 1
        for key in [k for k in self._armed if k[0] == pid]:
            del self._armed[key]
        self._log(TraceEvent(now, pid, "crash"))

    def _on_recover(self, pid: int, now: int) -> None:
        self._incarnation[pid] += 1
        self._log(TraceEvent(now, pid, "recover"))
        self._start(pid, now)

    # -- timers ------------------------------------------------------------

    def _sync_timers(self, pid: int, now: int) -> None:
        inc = self._incarnation[pid]
        for key, deadline in self.nodes[pid].deadlines().items():
            akey = (pid, key)
            if deadline is None:
                self._armed.pop(akey, None)
                continue
            if self._armed.get(akey) == deadline:
                continue
            self._armed[akey] = deadline
            self._push(max(now, deadline), pid, _TIMER, (inc, key))

    def _on_timer(self, pid: int, now: int, payload) -> None:
        inc, key = payload
        deadline = self._armed.get((pid, key))
        # A timer is stale once its process crashed or its deadline moved.
        if inc != self._incarnation[pid] or deadline is None or now < deadline:
            return
        node = self.nodes[pid]
        before = node.output()
        node.fire(key, now)
        self._log(TraceEvent(now, pid, "timer_fire", deadline=deadline))
        self._log_output_change(pid, now, before)
        self._sync_timers(pid, now)

    def _log_output_change(self, pid: int, now: int, before) -> None:
        after = self.nodes[pid].output()
        if after == before:
            return
        if isinstance(after, str):
            self._log(TraceEvent(now, pid, "output_change", verdict=after))
        else:
            self._log(TraceEvent(now, pid, "output_change", leader=after))

    # -- sending and delivery ----------------------------------------------

    def _on_tick(self, pid: int, now: int, inc: int) -> None:
        if inc != self._incarnation[pid]:
            return
        self._push(now + self.scenario.config.eta, pid, _TICK, inc)
        node = self.nodes[pid]
        hb = node.next_heartbeat(now)
        if hb is None:
            return
        if node.targets is None:
            self._log_send(hb, now)
            for receiver in range(self.scenario.n_processes):
                if receiver != pid:
                    self._transmit(hb, receiver, now)
            return
        for receiver in node.targets:
            self._log_send(hb, now, receiver)
            self._transmit(hb, receiver, now)

    def _log_send(self, hb: Heartbeat, now: int, receiver: int | None = None) -> None:
        pid = hb.sender
        self.trace.send_counts[pid] = self.trace.send_counts.get(pid, 0) + 1
        self._log(
            TraceEvent(now, pid, "send", seq=hb.seq, uptime=hb.uptime,
                       receiver=receiver)
        )

    def _transmit(self, hb: Heartbeat, receiver: int, now: int) -> None:
        link = (hb.sender, receiver)
        self.trace.link_sent[link] = self.trace.link_sent.get(link, 0) + 1
        rng = link_stream(self.scenario.seed, hb.sender, hb.seq, receiver)
        at = sample_delivery(now, self.scenario.network, rng)
        if at is None:
            self.trace.link_dropped[link] = self.trace.link_dropped.get(link, 0) + 1
            self._log(
                TraceEvent(now, receiver, "drop", sender=hb.sender, seq=hb.seq,
                           reason="loss")
            )
            return
        self._push(at, receiver, _DELIVER, hb)

    def _on_deliver(self, pid: int, now: int, hb: Heartbeat) -> None:
        link = (hb.sender, pid)
        node = self.nodes[pid]
        if node is None:
            self.trace.link_dropped[link] = self.trace.link_dropped.get(link, 0) + 1
            self._log(
                TraceEvent(now, pid, "drop", sender=hb.sender, seq=hb.seq,
                           reason="down")
            )
            return
        self.trace.link_delivered[link] = self.trace.link_delivered.get(link, 0) + 1
        self._log(
            TraceEvent(now, pid, "deliver", sender=hb.sender, seq=hb.seq,
                       uptime=hb.uptime)
        )
        before = node.output()
        node.deliver(hb, now)
        self._log_output_change(pid, now, before)
        self._sync_timers(pid, now)


def run(scenario: Scenario) -> EventTrace:
    """Run a scenario to completion and return its trace."""
    return Simulator(scenario).run()
