"""Deterministic discrete-event simulation of heartbeat protocols.

A single virtual clock in integer milliseconds drives every process; the
protocol machines only ever see the clock value handed to them.  Links drop
each message independently with a fixed probability and delay survivors by a
sampled, non-negative integer delay.  Every message gets its own random
block keyed by (seed, sender, seq, receiver), so traces are a pure function
of (scenario, seed) and editing one link or adding a process never perturbs
the samples on another link.  The block is the first Philox block under key
(seed, sender) at counter (receiver, 0, seq, 0).  One :func:`link_stream`
rekey yields a send's blocks for all its receivers: word 0 of a block
decides loss and word 1 picks the whole-ms delay from the :func:`delay_cdf`
table of the link's law.  A sender's consecutive sends are drawn a run at a
time (:func:`sample_run`), with the same blocks as one send at a time.  A
run checks its keys and installs the key (seed, sender) with one
:func:`link_stream` call; each further row only rewrites the counter's seq
word.  A run is one row of delays per send, -1 for a lost copy; it is
dropped when its sender stops sending.  The simulator adds the send instant.

Fault injection is a scripted schedule of crash/recover events.  A crash
discards the process's volatile state and silences it; messages still in
flight toward it are dropped at their delivery instant.  Recovery re-runs
initialization against the preserved stable store with the advanced clock.

Simultaneous events are ordered by (time, process id, event kind rank) with
kind ranks crash < recover < timer < send < deliver, then by insertion
order.  The deliveries of one send share one insertion order, the one
after its tick's: they never tie on (time, receiver), and deliveries of
different sends that tie keep send order.  Timer-before-deliver makes a
heartbeat that lands exactly on the freshness deadline count as late,
matching the strict "arrived before the deadline" reading of the monitors.

The event heap holds no entry per message.  The deliveries that the sends of
one instant ``now`` make with a delay of at least 1 ms are collected in one
list, the instant's *delivery run*, each as one int key, ``delay << 2*b |
receiver << b | send`` with ``b = n.bit_length()``, where ``send`` indexes
the instant's (order, heartbeat, text) per send, in send order.  A process
sends at most once per instant, so the keys are unique, and their int order
is the heap's: time, then receiver, then send order.  Delays stay below
MAX_DELAY_TABLE (2**20), so for n below 2**21 a key fits in an int64.  The
first send at ``now`` opens the run.  The run is whole once no more sends
can come at ``now``, and it is then sorted once, latest first.  When a send
ends and the heap's head is due after ``now``, nothing more happens at
``now``: every event due then is already in the heap, a delivery with delay
0 included.  So when the instant's first send ends that way, the run is
sorted at once and delivered from.  Otherwise that send pushes one opening
entry at ``(now + 1, -1, ...)``, which sorts after every event at ``now``
and before every entry of a later instant, and the run is sorted when it
pops.  An instant with one sender and nothing else thus costs the heap no
entry for its run.  A run
that holds more than _PACK (8,192) keys after a send moves into an int64
``array``, 8 B a key where a list takes about 36, and later sends of the
instant append there; numpy sorts it in place.  The loop then pops the run's
last key, its next due, and compares the entry it decodes with the heap's
head ``heap[0]``.  While the run's entry is the smaller, the loop delivers
it; otherwise the key goes back and the run waits in the heap under that
entry's key, ``(time, receiver, deliver, order, (now, sends, run))``.  The
keys are the heap's own, so the merge keeps the order that a heap entry per
message would give, byte for byte.  A send's deliveries with delay 0 are due
at the send instant itself, possibly before a later tick at it, so they go
into the heap at once, as one run of their own under the first receiver's
key.  Every delivery thus leaves through a run.  A horizon entry at
``(duration, -1, ...)`` sorts before every entry due at or after the end, so
the heap never empties while the loop runs and no delivery due at the end is
made.

Every algorithm runs behind one node interface.  ``sends()`` says whether
the node sends heartbeats now, and only a node that sends has a tick: one
heap entry per send instant ``zerotime + i*eta``, at most one pending per
live node.  Each tick asks the node's ``next_heartbeat(now)`` once.  None
means the node no longer sends: the tick is dropped and schedules no
successor.  Otherwise it is the heartbeat for the node's ``targets``: None
broadcasts it as one ``send`` event, a tuple sends and logs one unicast per
receiver.  A node starts sending only at start-up, where its first tick is
the first send instant strictly after the start, or when a timer fires:
then it is the first send instant at or after the firing, since ticks rank
after timers at one instant, and none is added while the node's old tick is
still pending.  Under ``nfdl`` only the current leader ticks; the nfde-pair
receiver never does.

``deadline_of(key)`` is the deadline filed under ``key`` (None when
unarmed); the node's own id keys the one it arms at start-up, if any.
Nodes report their own changes: ``deliver(hb, now)`` applies a delivery
and returns ``(changed, key, deadline)``: whether the output changed, and
the key whose deadline it moved with its new deadline (both None when none
moved).  ``on_timer_fire(now, key)`` expires and clears the deadline under
``key`` and returns whether the output changed.  ``output()`` is the value
traced by ``output_change`` (a leader id, or a trust/suspect verdict); the
simulator reads it only to log a change.  :meth:`Simulator.run` handles a
delivery and the timer arm that follows it, and a timer entry, in its own
loop, so the loop makes one call per delivery, ``deliver``, and one per
timer entry that is not stale, ``deadline_of``.  It makes a send in the
loop too, whose one call is ``next_heartbeat``.  Under ``nfdl`` the node is
the ``NfdlProcess`` itself: its ``deliver`` calls on into the leader's
arrival window, which the process keeps itself, only for a fresh heartbeat
from the leader or a takeover.

Timers are re-armed lazily, with at most one live heap entry per (process,
key), each kept in slot ``pid*stride + key``.  An election node files only
under its own id, so ``nfdl`` has stride 0 and n slots; the all-pairs node
files under each peer it watches, in n slots per process.  A delivery that
sets a deadline *arms* the key and takes the next push order, whether or
not it pushes.  It pushes ``(max(now, deadline), pid, timer, order, key)``
only when no entry is pending or the deadline moved earlier than the
pending entry's instant; the entry it replaces goes stale.  A deadline
moved later pushes nothing: the pending entry pops early, sees that a later
arm set the deadline, and pushes itself again at that deadline under that
arm's order.  So a timer fires at its deadline and in the place the last
arm's own entry would have had: two timers of one process at one instant
fire in the order their deadlines were last set.  A start-up deadline files
its entry at once under its own push order, since the process has no entry
pending.  A crash drops its process's live entries, which then pop as
no-ops.

``nfdl`` runs one ``NfdlProcess`` per process, whose leader broadcasts and
which files its one deadline under its own id.  Both baselines are one
all-pairs node that sends to its targets and runs an ``NfdeMonitor`` per
watched peer:

* ``naive-reduction`` - every process sends to and watches all others and
  outputs the lowest id it trusts, counting itself;
* ``nfde-pair`` - process 0 sends to process 1, which watches it and
  outputs its verdict.

Each event is logged as its formatted trace line, newline included: every
log site writes its own line with one f-string, byte for byte what
:meth:`TraceEvent.line` gives, and no :class:`TraceEvent` is built.  Text
that the messages of one send share is formatted once per send: the
``sender= seq= uptime=`` payload of their ``deliver`` lines, which rides in
the queue entry with the heartbeat, and, for a unicast send, its ``send``
line up to the receiver.  Each process's part of the ``send`` and
``deliver`` lines, of the payload and of a unicast's receiver is formatted
once per run.  The simulator keeps the lines it logs pending.  Whenever
more than _BATCH lines wait after an event, and at the end of the run, it
joins them and hands that text to its *sink*: batches of whole
newline-terminated lines, in log order, which is non-decreasing time, each
of at most _BATCH lines plus one event's.  So a start-up storm's lines go
on while its deliveries are made.  The default sink appends each batch to
``trace.event_batches``, so :meth:`Simulator.run` returns every line.  Any
other sink receives the batches instead and the list stays empty, so a run
holds no event list; the ``write`` method of :class:`TraceWriter` is the
sink that writes the trace file, and :func:`stream_run` runs a scenario
through it.  Scoring the trace is ``qos``'s work, which needs none of this
module at run time.  The trace's counters, final outputs and
``output_changes``, each process's logged (time, output) pairs in log order,
are filled in either way.  Links are counted as sends only: every sender
sends to all the others, so ``link_sent`` of (s, r) is s's count of sends,
derived from the per-sender counts each time it is read; a run stores no
per-link count.  ``trace.event_lines()`` yields the kept lines in log order,
and is the one reader that splits the batches; ``trace.events`` parses its
lines back into :class:`TraceEvent` objects with :meth:`TraceEvent.parse`,
for readers that want fields.

The loop runs with CPython's cyclic garbage collector off, and restores the
caller's setting when it ends or raises, as :mod:`timeit` does.  A run makes
no reference cycles: its queue entries, delivery runs, heartbeats, nodes and
lines form trees, so reference counting frees each of them once it is
dropped.  A delivery run holds ints, and only the heap entry that carries it
points at it, so one cut off at the horizon is freed with its keys.  With
the collector on, a run of many processes would pay for full passes over its
event heap that free nothing.
"""

from __future__ import annotations

import functools
import gc
import heapq
import json
import math
import os
import sys
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field
from operator import index
from pathlib import Path

import numpy as np

from .protocol import Heartbeat, NfdeMonitor, NfdlProcess, ProtocolConfig, Verdict
from .qos import QosRequirements
from .stable_store import MemoryStore, load_or_create_zerotime, next_send_time, send_label

TRACE_FORMAT_VERSION = 3
SCENARIO_SCHEMA_VERSION = 1

ALGORITHMS = ("nfdl", "nfde-pair", "naive-reduction")
DELAY_DISTS = ("constant", "uniform", "normal")
# Most entries a delay table may hold: 2**20 covers delays up to about 17
# minutes.  A law that needs more fails validation.
MAX_DELAY_TABLE = 2**20
# The normal delay table ends this many standard deviations above the mean;
# the mass beyond it is below 2**-55, under the 2**-53 step of a uniform.
_NORMAL_TAIL_SIGMAS = 8.5

# Uptime granted to a pinned high-priority leader at every initialization.
# Large enough that no honestly accumulated uptime ever competes.
PRIORITY_UPTIME_BOOST = 10**9


class ScenarioError(ValueError):
    """A scenario field failed validation; names its file key path."""

    def __init__(self, fld: str, msg: str):
        self.field = fld
        super().__init__(f"{fld}: {msg}")


_REQUIRED = object()


@dataclass(frozen=True, slots=True)
class _Field:
    """One scenario file key and the dataclass attribute it sets.  ``kind`` is
    int, float or str, or the dataclass that the key's object (each object of
    its list, with ``many``) loads into.  A number lies in [lo, hi] and a value
    with ``choices`` is one of them.  A missing key reads its default, which a
    _REQUIRED key lacks; a None default admits null."""

    key: str
    attr: str | None
    kind: type
    lo: float = -math.inf
    hi: float = math.inf
    choices: tuple = ()
    default: object = _REQUIRED
    many: bool = False

    def read(self, path: str, value):
        """The file's ``value`` at ``path``, checked; bools are not numbers."""
        if value is _REQUIRED:
            raise ScenarioError(path, "missing required field")
        if self.kind in _SCHEMA:
            if not self.many:
                return load(self.kind, value, path)
            if not isinstance(value, list):
                raise ScenarioError(path, "must be a list")
            return tuple(load(self.kind, v, f"{path}[{i}]") for i, v in enumerate(value))
        if value is None and self.default is None:
            return None
        kinds = (int, float) if self.kind is float else self.kind
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ScenarioError(path, f"expected {self.kind.__name__}, got {value!r}")
        if self.choices:
            if value not in self.choices:
                raise ScenarioError(path, f"must be one of {self.choices}, got {value!r}")
        elif not self.lo <= value <= self.hi:  # NaN fails too
            raise ScenarioError(path, f"must be within [{self.lo}, {self.hi}], got {value!r}")
        return float(value) if self.kind is float else value


@dataclass(frozen=True, slots=True)
class NetworkModel:
    """Per-link loss probability and delay law.

    ``delay_mean`` and ``delay_var`` parameterize the continuous law
    (constant, uniform, or normal) before the simulator truncates it at zero
    and rounds it half-up to whole milliseconds.  The law actually sampled is
    that truncated and rounded one, tabulated by :func:`delay_cdf`; for the
    normal law its mean and variance differ from ``delay_mean`` and
    ``delay_var``.
    """

    loss_prob: float = 0.0
    delay_mean: float = 5.0
    delay_var: float = 0.0
    delay_dist: str = "constant"

    def _rules(self) -> None:
        """The loader's last check: the law's support and delay table."""
        if self.delay_dist == "constant" and self.delay_var != 0:
            raise ScenarioError(
                "network.delay_var_ms2", "constant delay requires zero variance"
            )
        if self.delay_dist == "uniform":
            half = math.sqrt(3.0 * self.delay_var)
            if self.delay_mean - half < 0 or not math.isfinite(self.delay_mean + half):
                raise ScenarioError(
                    "network.delay_var_ms2",
                    "uniform delay support must lie within [0, inf); "
                    "reduce variance or raise the mean",
                )
        # One table entry per whole ms up to the largest delay sampled.
        if self.delay_mean + 0.5 >= MAX_DELAY_TABLE:
            raise ScenarioError(
                "network.delay_mean_ms", f"delays must stay below {MAX_DELAY_TABLE} ms"
            )
        if _delay_bound(self) + 0.5 >= MAX_DELAY_TABLE:
            raise ScenarioError(
                "network.delay_var_ms2",
                f"the delay law reaches beyond {MAX_DELAY_TABLE} ms; "
                "reduce variance or the mean",
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
        """Check a scenario built in code as the loader checks a file."""
        load(Scenario, self.to_dict())

    def _rules(self) -> None:
        """The loader's last check: the rules that join keys."""
        if self.algorithm == "nfde-pair" and self.n_processes != 2:
            raise ScenarioError("n_processes", "nfde-pair is a two-process arrangement")
        if self.high_priority is not None and self.algorithm != "nfdl":
            raise ScenarioError("high_priority", "only meaningful for the nfdl algorithm")
        if self.high_priority is not None and self.high_priority >= self.n_processes:
            raise ScenarioError("high_priority", "not a valid process id")
        # Walk the faults in apply order, naming each by its file position.
        down = set()
        for i, f in self.fault_order():
            fld = f"faults[{i}]"
            if f.process >= self.n_processes:
                raise ScenarioError(f"{fld}.process", "not a valid process id")
            if f.at >= self.duration:
                raise ScenarioError(f"{fld}.at_ms", "must be below duration_ms")
            if f.kind == "crash" and f.process in down:
                raise ScenarioError(fld, "process is already crashed")
            if f.kind == "recover" and f.process not in down:
                raise ScenarioError(fld, "recover without a prior crash")
            down ^= {f.process}

    def fault_order(self) -> list[tuple[int, FaultEvent]]:
        """(file index, fault) pairs in the order the simulator applies them:
        by time, then process, crash before recover, then file order."""
        return sorted(
            enumerate(self.faults),
            key=lambda e: (e[1].at, e[1].process, e[1].kind != "crash", e[0]),
        )

    def to_dict(self) -> dict:
        return _dump(self)

    @staticmethod
    def from_dict(data: dict) -> "Scenario":
        return load(Scenario, data)

    @staticmethod
    def load(path: str | Path) -> "Scenario":
        try:
            data = json.loads(Path(path).read_text())
        except (ValueError, RecursionError) as exc:
            raise ScenarioError("scenario", f"not valid JSON: {exc}") from exc
        return Scenario.from_dict(data)

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


# The scenario file schema, and the keys the CLI reads QoS requirements as:
# each dataclass's keys, in file order.  Rules that join keys, such as a
# fault time below duration_ms, are its _rules.
_SCHEMA = {
    Scenario: (
        _Field("version", None, int, choices=(SCENARIO_SCHEMA_VERSION,),
               default=SCENARIO_SCHEMA_VERSION),
        _Field("n_processes", "n_processes", int, lo=2),
        _Field("algorithm", "algorithm", str, choices=ALGORITHMS, default="nfdl"),
        _Field("config", "config", ProtocolConfig),
        _Field("network", "network", NetworkModel),
        _Field("faults", "faults", FaultEvent, default=[], many=True),
        _Field("duration_ms", "duration", int, lo=1),
        _Field("seed", "seed", int, lo=0, hi=2**64 - 1),
        _Field("high_priority", "high_priority", int, lo=0, default=None),
    ),
    ProtocolConfig: (
        _Field("eta_ms", "eta", int, lo=1),
        _Field("alpha_ms", "alpha", int, lo=0),
        _Field("window_n", "window_n", int, lo=1, default=100),
    ),
    NetworkModel: (
        _Field("loss_prob", "loss_prob", float, lo=0.0, hi=1.0),
        _Field("delay_mean_ms", "delay_mean", float, lo=0.0, hi=sys.float_info.max),
        _Field("delay_var_ms2", "delay_var", float, lo=0.0, hi=sys.float_info.max),
        _Field("delay_dist", "delay_dist", str, choices=DELAY_DISTS),
    ),
    FaultEvent: (
        _Field("at_ms", "at", int, lo=0),
        _Field("process", "process", int, lo=0),
        _Field("kind", "kind", str, choices=("crash", "recover")),
    ),
    QosRequirements: (
        _Field("t_d_max_ms", "t_d_max", int, lo=1),
        _Field("t_mr_min_ms", "t_mr_min", int, lo=1),
        _Field("t_m_max_ms", "t_m_max", int, lo=1),
    ),
}


def load(cls: type, data, path: str = ""):
    """A ``cls`` read from the file's object ``data`` at key path ``path``:
    each key once, through the table, then the class's ``_rules`` if any."""
    if not isinstance(data, dict):
        raise ScenarioError(path or "scenario", "must be an object")
    prefix = f"{path}." if path else ""
    known = {f.key for f in _SCHEMA[cls]}
    for key in data:
        if key not in known:
            raise ScenarioError(f"{prefix}{key}", "unknown key")
    kwargs = {
        f.attr: f.read(prefix + f.key, data.get(f.key, f.default)) for f in _SCHEMA[cls]
    }
    kwargs.pop(None, None)  # the schema version, which sets no attribute
    obj = cls(**kwargs)
    if hasattr(obj, "_rules"):
        obj._rules()
    return obj


def _dump(obj) -> dict:
    """The file's object for ``obj``: every key of its schema, in order."""
    out = {}
    for f in _SCHEMA[type(obj)]:
        value = f.default if f.attr is None else getattr(obj, f.attr)
        if f.kind in _SCHEMA:
            value = [_dump(v) for v in value] if f.many else _dump(value)
        out[f.key] = value
    return out


# ---------------------------------------------------------------------------
# Link sampling
#
# Each message owns one block of numpy's counter-based Philox (Salmon et
# al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11): the first
# block under key (seed, sender) at counter (receiver, 0, seq, 0).  Philox
# bumps counter word 0 before each block, so one draw of 4n words from
# counter (0, 0, seq, 0) returns, as block r, the block of receiver r: a
# send draws every receiver's block at once, and a message's bits depend on
# (seed, sender, seq, receiver) alone, never on n.  Word 0 of a block is the
# loss draw and word 1 the delay draw; words 2 and 3 are unused.
#
# No block depends on when it is drawn, so a sender's next sends are drawn
# ahead, a run at a time: numpy's fixed cost is paid per run, not per send.
#
# The delay is drawn by inverting the table of the whole-ms law actually
# sampled (see delay_cdf), so no transcendental function runs per message.

_STREAM = np.random.Generator(np.random.Philox(0))
# The state every rekey installs; link_stream and sample_run overwrite only
# _KEYS, and the Philox state setter copies the values out without keeping
# the mapping.
_KEYS = {"counter": (0, 0, 0, 0), "key": (0, 0)}
_STATE = {
    "bit_generator": "Philox",
    "state": _KEYS,
    "buffer": (0, 0, 0, 0),
    "buffer_pos": 4,
    "has_uint32": 0,
    "uinteger": 0,
}


def link_stream(seed: int, sender: int, seq: int, receiver: int) -> np.random.Generator:
    """Random stream whose first 4-word block belongs to one message.

    The stream is exactly ``Generator(Philox(key=(seed, sender),
    counter=(receiver, 0, seq, 0)))``; called with receiver 0 it yields the
    blocks of receivers 0, 1, 2, ... in turn.  Every key must be an integer
    (TypeError otherwise) within [0, 2**64) (ValueError otherwise).  The
    returned Generator is one shared object, rekeyed in place from one
    shared module-level state mapping whose key and counter entries each
    call overwrites: it is valid only until the next call from any thread,
    so draw from it at once.
    """
    seed, sender, seq, receiver = index(seed), index(sender), index(seq), index(receiver)
    # Nonzero exactly when some key is negative or needs more than 64 bits.
    if (seed | sender | seq | receiver) >> 64:
        keys = (seed, sender, seq, receiver)
        raise ValueError(f"keys must be within [0, 2**64), got {keys}")
    _KEYS["key"] = (seed, sender)
    _KEYS["counter"] = (receiver, 0, seq, 0)
    _STREAM.bit_generator.state = _STATE
    return _STREAM


def _delay_bound(network: NetworkModel) -> float:
    """Largest delay, in ms before rounding, that the delay table covers."""
    if network.delay_dist == "uniform":
        return network.delay_mean + math.sqrt(3.0 * network.delay_var)
    return network.delay_mean + _NORMAL_TAIL_SIGMAS * math.sqrt(network.delay_var)


def delay_cdf(network: NetworkModel) -> np.ndarray:
    """``cdf[k]`` is P(delay <= k ms) under the law actually sampled.

    That law draws from ``network``'s continuous law, truncated at zero
    (conditioned on a non-negative draw), and rounds the draw half-up to
    whole ms.  The table runs from 0 to the largest delay the law can take
    (``_NORMAL_TAIL_SIGMAS`` standard deviations above the mean for the
    normal law, which cuts off less than 2**-55) and its last entry is
    exactly 1.0.  A uniform ``u`` in [0, 1) maps to the delay
    ``searchsorted(cdf, u, side="right")``.  Validate ``network`` first:
    that bounds the table by MAX_DELAY_TABLE.
    """
    mu, var = network.delay_mean, network.delay_var
    # A draw rounds to k exactly when it falls in [k - 0.5, k + 0.5).
    edges = np.arange(math.floor(_delay_bound(network) + 0.5) + 1) + 0.5
    if var == 0:
        cdf = (edges > mu).astype(float)
    elif network.delay_dist == "uniform":
        half = math.sqrt(3.0 * var)
        cdf = np.clip((edges - (mu - half)) / (2.0 * half), 0.0, 1.0)
    else:  # normal: 1 - P(X >= x) / P(X >= 0), tails from math.erfc
        scale = math.sqrt(2.0 * var)
        above_zero = math.erfc(-mu / scale)
        cdf = np.array([1.0 - math.erfc((x - mu) / scale) / above_zero
                        for x in edges.tolist()])
    cdf[-1] = 1.0
    return cdf


# Most sends one run draws.  At 64 rows numpy's fixed cost per run is about
# 2% of the per-seq cost, and longer runs only hold more rows (CHANGES.md).
_RUN_LIMIT = 64


def sample_run(
    seed: int, sender: int, seq: int, k: int, n: int, loss_prob: float,
    cdf: np.ndarray,
) -> list[list[int]]:
    """Whole-ms delays of sends ``seq .. seq+k-1`` of ``sender``, -1 for a
    lost copy: entry r of row j is message (sender, seq + j) to receiver r.

    Row j is n blocks of ``link_stream(seed, sender, seq + j, 0)``, the
    same in any run; ``k=1`` is one send, and k is at least 1.  ``cdf`` is
    ``delay_cdf`` of the link law, whose delays are never negative.  The
    keys are checked once per run, as :func:`link_stream` checks them, the
    first and the last row's seq included, before any row is drawn.
    """
    seq = index(seq)
    if (seq | seq + k - 1) >> 64:
        raise ValueError(f"keys must be within [0, 2**64), got seqs {seq} to {seq + k - 1}")
    # One link_stream call checks the other keys and installs the key
    # (seed, sender) that every row shares; a further row differs only in
    # the counter's seq word, so it rewrites that and draws.
    stream = link_stream(seed, sender, seq, 0)
    u = np.empty((k, 4 * n))
    stream.random(out=u[0])
    bit_generator, keys, state = stream.bit_generator, _KEYS, _STATE
    for j in range(1, k):
        keys["counter"] = (0, 0, seq + j, 0)
        bit_generator.state = state
        stream.random(out=u[j])
    delays = cdf.searchsorted(u[:, 1::4], "right")
    delays[u[:, 0::4] < loss_prob] = -1
    return delays.tolist()


def _run_length(seq: int, previous: int, sends_left: int) -> int:
    """Rows of a sender's run from ``seq``: twice ``previous``, the last
    run's length if it ended just before ``seq`` (else 0), so a sender draws
    at most twice the seqs it sends; at most _RUN_LIMIT, the ``sends_left``
    before the end (this one included) and the keys left below 2**64."""
    return min(max(1, 2 * previous), _RUN_LIMIT, sends_left, 2**64 - seq)


@functools.lru_cache(maxsize=8)
def _reference_cdf(network: NetworkModel) -> np.ndarray:
    """``delay_cdf(network)``, built once per network and read-only."""
    cdf = delay_cdf(network)
    cdf.flags.writeable = False
    return cdf


def sample_delivery(
    send_time: int, network: NetworkModel, rng: np.random.Generator
) -> int | None:
    """Delivery instant for a message sent at ``send_time``, or None if lost.

    Draws one 4-word block from ``rng``, the message's
    ``link_stream(seed, sender, seq, receiver)``.  This is the per-message
    reference for :func:`sample_run`, which the simulator runs; it builds each
    network's delay table once.
    """
    loss, delay = rng.random(4)[:2].tolist()
    if loss < network.loss_prob:
        return None
    return send_time + int(_reference_cdf(network).searchsorted(delay, "right"))


# ---------------------------------------------------------------------------
# Traces


# Not frozen: parse() sets the payload fields one at a time.
@dataclass(slots=True)
class TraceEvent:
    """One trace line's fields.  The simulator logs lines, not events:
    :meth:`line` is the reference format and :meth:`parse` reads it back."""

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
        """The event's trace line: time, process, kind, then the payload
        fields that are set, as ``key=value`` in :data:`_PAYLOAD` order."""
        payload = " ".join(f"{key}={value}" for key in _PAYLOAD
                           if (value := getattr(self, key)) is not None)
        return f"{self.time}\t{self.process}\t{self.kind}\t{payload}"

    @classmethod
    def parse(cls, line: str) -> TraceEvent:
        """The event whose :meth:`line` is ``line``, which may end in one
        newline; ValueError if it is not a trace event line."""
        time, process, kind, payload = line.removesuffix("\n").split("\t")
        ev = cls(int(time), int(process), kind)
        for item in payload.split():
            key, _, value = item.partition("=")
            if key not in _PAYLOAD:
                raise ValueError(f"unknown trace payload field {key!r} in {line!r}")
            setattr(ev, key, _PAYLOAD[key](value))
        return ev


# The payload fields of a trace line, in line order, and the type each
# parses as.
_PAYLOAD = {
    "sender": int, "seq": int, "uptime": int, "receiver": int, "leader": int,
    "verdict": str, "reason": str, "deadline": int,
}


def _lines_per_send(scenario: Scenario) -> int:
    """Send lines one send logs: one for a broadcast, one per receiver for
    the unicast sends of the all-pairs algorithms."""
    return 1 if scenario.algorithm == "nfdl" else scenario.n_processes - 1


def _trace_header(scenario: Scenario) -> list[str]:
    return [
        f"# trace v{TRACE_FORMAT_VERSION}",
        "# scenario " + json.dumps(scenario.to_dict(), sort_keys=True),
        "# columns time_ms\tprocess\tevent\tpayload",
    ]


@dataclass
class EventTrace:
    """Everything observable about one run: the event log, every process's
    output history (``output_changes``: pid -> the (time, output) pairs of
    its ``output_change`` events, in log order) and counters.  Links are
    counted as sends only: ``link_sent`` of (s, r) is s's send count, built
    from ``send_counts`` on each read, so the trace holds no n(n-1) dict.

    ``event_batches`` holds the logged events' trace lines as the simulator
    handed them on, strings of whole newline-terminated lines in log order,
    each of at most _BATCH lines plus one event's (empty when the run
    streamed them to a sink)."""

    scenario: Scenario
    event_batches: list[str] = field(default_factory=list)
    output_changes: dict[int, list[tuple[int, int | str | None]]] = field(
        default_factory=dict
    )
    send_counts: dict[int, int] = field(default_factory=dict)
    store_reads: dict[int, int] = field(default_factory=dict)
    store_writes: dict[int, int] = field(default_factory=dict)
    final_outputs: dict[int, int | str | None] = field(default_factory=dict)

    @property
    def link_sent(self) -> dict[tuple[int, int], int]:
        """Sends per link (s, r), built from ``send_counts`` on each read:
        every sender sends to all the others, so each of its links carries
        its every send."""
        n, per_send = self.scenario.n_processes, _lines_per_send(self.scenario)
        return {(s, r): c // per_send for s, c in self.send_counts.items()
                for r in range(n) if r != s}

    def event_lines(self) -> Iterator[str]:
        """The kept event lines, without their newlines, in log order."""
        for batch in self.event_batches:
            yield from batch[:-1].split("\n")

    @property
    def events(self) -> list[TraceEvent]:
        """The logged events, parsed from the kept lines anew on each read."""
        return [TraceEvent.parse(line) for line in self.event_lines()]

    def lines(self) -> list[str]:
        """The whole trace in memory, one string per line (tests hash it)."""
        return _trace_header(self.scenario) + list(self.event_lines())

    def write(self, path: str | Path) -> None:
        """Stream the trace to ``path``; the file holds ``lines()``, each
        followed by a newline."""
        with TraceWriter(path, self.scenario) as writer:
            writer.writelines(self.event_batches)


class TraceWriter:
    """Writes a trace file one batch of event lines at a time; its
    ``write`` method is a simulator sink, which hands its lines on once
    more than _BATCH wait and at the end of the run, so a batch holds at
    most _BATCH lines plus the lines of one event.

    The header goes out on opening.  ``write(batch)`` writes one batch as
    it is, and ``writelines(batches)`` writes each of many in turn; both
    are the open file's own methods, so a sink call runs no Python code.
    Lines go to ``path`` plus ``.part``, which replaces ``path`` when the
    writer closes cleanly and is deleted when it closes on an exception, so
    a failed run leaves no trace behind.  Use it as a context manager.
    """

    def __init__(self, path: str | Path, scenario: Scenario):
        self._path = Path(path)
        self._part = self._path.with_name(self._path.name + ".part")
        self._file = open(self._part, "w")
        self.write = self._file.write
        self.writelines = self._file.writelines
        for line in _trace_header(scenario):
            self.write(line + "\n")

    def __enter__(self) -> TraceWriter:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        done = False
        try:
            self._file.close()
            if exc_type is None:
                os.replace(self._part, self._path)
                done = True
        finally:
            if not done:
                self._part.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# The simulator

_CRASH, _RECOVER, _TIMER, _TICK, _DELIVER = range(5)
# Most lines the loop holds before it hands them on, besides one event's.
_BATCH = 1024
# Longest delivery run held as a list of int keys after a send; a longer one
# moves into an int64 array, 8 B a key where the list takes about 36.
_PACK = 8192
_TRUST, _SUSPECT = Verdict.TRUST, Verdict.SUSPECT  # global loads, as in protocol


class _MonitorNode:
    """All-pairs monitor: heartbeats to ``targets``, one monitor per watched peer.

    An electing node outputs the lowest id it trusts, counting itself;
    otherwise it watches at most one peer and outputs the verdict on it
    (None when it watches nobody).  Bit ``p`` of ``trusted`` is set iff the
    monitor of peer ``p`` trusts it.  Peer ``p``'s deadline is filed under
    ``p``.
    """

    def __init__(self, pid: int, config: ProtocolConfig, store, now: int,
                 targets: tuple[int, ...], watched: tuple[int, ...], elect: bool):
        self.pid = pid
        self.config = config
        self.zerotime = load_or_create_zerotime(store, pid, now)
        self.targets = targets
        self.monitors = {p: NfdeMonitor(config) for p in watched}
        self.elect = elect
        self.trusted = 0

    def sends(self) -> bool:
        return bool(self.targets)

    def next_heartbeat(self, now: int) -> Heartbeat:
        return Heartbeat(send_label(self.zerotime, now, self.config.eta), self.pid, 0)

    def deliver(self, hb: Heartbeat, now: int) -> tuple[bool, int | None, int | None]:
        sender = hb.sender
        monitor = self.monitors[sender]
        before = monitor.deadline
        # A heartbeat can only restore trust and a timeout only revoke it.
        bit = 1 << sender
        changed = (monitor.on_heartbeat(hb.seq, now) is _TRUST
                   and not self.trusted & bit and self._flip(bit))
        deadline = monitor.deadline
        if deadline == before:
            return changed, None, None
        return changed, sender, deadline

    def on_timer_fire(self, now: int, key: int) -> bool:
        bit = 1 << key
        return (self.monitors[key].on_timeout(now) is _SUSPECT
                and self.trusted & bit != 0 and self._flip(bit))

    def _flip(self, bit: int) -> bool:
        """Flip one trust bit; True iff that changed the output."""
        before = self.output()
        self.trusted ^= bit
        return self.output() != before

    def output(self) -> int | str | None:
        if self.elect:
            m = self.trusted | 1 << self.pid
            return (m & -m).bit_length() - 1
        if not self.monitors:
            return None
        return (_TRUST if self.trusted else _SUSPECT).value

    def deadline_of(self, key: int) -> int | None:
        monitor = self.monitors.get(key)
        return None if monitor is None else monitor.deadline


class Simulator:
    """Single-use event loop for one scenario.

    ``sink``, when given, receives the logged lines in batches of whole
    newline-terminated lines: one whenever more than _BATCH lines wait
    after an event, and one for the run's tail; ``trace.event_batches``
    then stays empty.  ``trace.output_changes`` is filled either way.  After
    :meth:`run` the per-process nodes stay inspectable via :attr:`nodes`
    (None for processes that ended the run crashed); under ``nfdl`` each
    node is an :class:`NfdlProcess`.  A delivery arms its timer from the
    deadline the node's ``deliver`` hands back, inside :meth:`run`.

    :meth:`run` makes each send in its own loop, at the send's tick, as it
    makes deliveries and fires timers.  The deliveries of one send instant
    wait in that instant's delivery run outside the event heap, one int key
    each, in a list or, once it grows long, an int64 array; a send's
    deliveries with delay 0 wait in a run of their own.  An instant's run is
    sorted when its last send ends, if nothing else is due at that instant,
    and otherwise when an opening entry at the next millisecond pops;
    :meth:`run` merges each run against the heap's head, one entry at a time
    (see the module docstring).  So the heap holds ticks, timers, faults and
    one entry per delivery run in flight.

    :meth:`run` turns the cyclic garbage collector off for its loop and
    then restores the caller's setting.  ``gc`` is process-global, so on a
    threaded host every thread sees its collector paused while a run lasts.
    """

    def __init__(self, scenario: Scenario, store=None, sink=None):
        scenario.validate()
        self.scenario = scenario
        self.store = store if store is not None else MemoryStore()
        n = self._n = scenario.n_processes
        self.nodes: list[object | None] = [None] * n
        # Slices of one id tuple: every receiver tuple shares one int per id.
        ids = tuple(range(n))
        self._others = [ids[:pid] + ids[pid + 1:] for pid in ids]
        self._delay_cdf = delay_cdf(scenario.network)
        # Per sending process, its current run: (first seq, delay rows).
        self._runs: list[tuple[int, list]] = [(0, [])] * n
        # Per process, the node whose tick entry is pending, if any.
        self._ticking: list[object | None] = [None] * n
        self._heap: list[tuple] = []
        self._pushes = 0
        # Per timer slot ``pid*stride + key``: the heap entry that will fire
        # or re-file that timer (None when none is pending), and the push
        # order of the arm that last set its deadline.  An election node
        # files only under its own id, so nfdl takes stride 0 and n slots;
        # an all-pairs node files under each peer, in n slots of its own.
        self._stride = 0 if scenario.algorithm == "nfdl" else n
        slots = n * (self._stride or 1)
        self._pending: list[tuple | None] = [None] * slots
        self._armed = [0] * slots
        # Per process its sends.
        self._sends = [0] * n
        self.trace = EventTrace(scenario, output_changes={pid: [] for pid in ids})
        self._sink = self.trace.event_batches.append if sink is None else sink
        # The lines logged since the last batch went to the sink.
        self._lines: list[str] = []
        self._log = self._lines.append
        self._ran = False
        for pid in ids:
            self._start(pid, 0)

    # -- plumbing ----------------------------------------------------------

    def _push(self, time: int, pid: int, rank: int, payload) -> tuple:
        entry = (time, pid, rank, self._pushes, payload)
        heapq.heappush(self._heap, entry)
        self._pushes += 1
        return entry

    # -- run ---------------------------------------------------------------

    def run(self) -> EventTrace:
        if self._ran:
            raise RuntimeError("a Simulator instance runs exactly once")
        self._ran = True
        sc = self.scenario
        # Reference counting frees all that a run makes (see the module
        # docstring), so the cyclic collector would only rescan the heap.
        collecting = gc.isenabled()
        gc.disable()
        try:
            for f in sc.faults:
                rank = _CRASH if f.kind == "crash" else _RECOVER
                self._push(f.at, f.process, rank, f.kind)
            heap, duration = self._heap, sc.duration
            heappush, heappop = heapq.heappush, heapq.heappop
            # The horizon: it sorts before every entry due at or after the
            # end, so the heap never empties while the loop runs.
            heappush(heap, (duration, -1, _CRASH, 0, None))
            nodes, log, lines, sink = self.nodes, self._log, self._lines, self._sink
            pendings, armed, stride = self._pending, self._armed, self._stride
            ticking, sends, runs, others = self._ticking, self._sends, self._runs, self._others
            n, seed, eta = self._n, sc.seed, sc.config.eta
            loss, cdf = sc.network.loss_prob, self._delay_cdf
            # Each process's part of its lines, formatted once per run.
            send_text = [f"\t{p}\tsend\t" for p in range(n)]
            deliver_text = [f"\t{p}\tdeliver\t" for p in range(n)]
            sender_text = [f"sender={p} " for p in range(n)]
            receiver_text = [f"{p}\n" for p in range(n)]
            # A delivery run's keys, ``delay << 2*b | receiver << b | send``.
            b = n.bit_length()
            shift, mask = 2 * b, (1 << b) - 1
            # The delivery run being delivered from, while its next entry is
            # due before the heap's head: its send instant, that instant's
            # (order, hb, text) per send, and its keys, latest first.
            base, pairs, run = 0, None, None
            # The last send instant, its run's keys and its sends.
            opened_at, opened, sent = -1, None, None
            pack, batch = _PACK, _BATCH
            while True:
                if len(lines) > batch:
                    # The loop's only flush: lines go on in bounded batches.
                    sink("".join(lines))
                    lines.clear()
                if run:
                    key = run.pop()
                    time, pid = base + (key >> shift), key >> b & mask
                    order, hb, text = pairs[key & mask]
                    if time < heap[0][0] or (time, pid, _DELIVER, order) < heap[0]:
                        # The run's next entry is due first: deliver it in
                        # place.  The horizon is in the heap, so it is due
                        # before the end.
                        node = nodes[pid]
                        if node is None:
                            log(f"{time}\t{pid}\tdrop\tsender={hb.sender} seq={hb.seq}"
                                " reason=down\n")
                            continue
                        log(f"{time}{deliver_text[pid]}{text}")
                        changed, key, deadline = node.deliver(hb, time)
                        if changed:
                            self._log_output_change(pid, time, node.output())
                        if key is None:
                            continue
                        # Arm the timer of (pid, key) for the deadline its node just
                        # set.  A pending entry due no later than the deadline
                        # re-files itself under ``order`` when it pops (see below).
                        slot = pid * stride + key
                        order = self._pushes
                        self._pushes = order + 1
                        armed[slot] = order
                        pending = pendings[slot]
                        if pending is None or deadline < pending[0]:
                            pendings[slot] = entry = (
                                deadline if deadline > time else time, pid, _TIMER, order, key
                            )
                            heappush(heap, entry)
                        continue
                    # The heap's head is due first: the run waits in the heap
                    # under its next entry's key.
                    run.append(key)
                    heappush(heap, (time, pid, _DELIVER, order, (base, pairs, run)))
                    run = None
                entry = heappop(heap)
                time, pid, rank, order, payload = entry
                if time >= duration:
                    break
                if rank == _DELIVER:
                    if pid >= 0:
                        # The entry that carries a run through the heap.  An
                        # instant's opening entry has pid -1: its run is
                        # sorted below.
                        base, pairs, run = payload
                        continue
                elif rank == _TICK:
                    # A tick's payload is the node that filed it, which a
                    # crash or a recovery since may have replaced.
                    node = payload
                    if nodes[pid] is not node:
                        continue
                    hb = node.next_heartbeat(time)
                    if hb is None:
                        ticking[pid], runs[pid] = None, (0, [])
                        continue
                    # The next tick takes this order and all of this send's
                    # deliveries the one after it.
                    order = self._pushes
                    self._pushes = order + 2
                    heappush(heap, (time + eta, pid, _TICK, order, node))
                    order += 1
                    sends[pid] += 1
                    # A node's heartbeat names the node's own id as sender.
                    seq = hb.seq
                    # The text that the send's lines share, formatted once.
                    label = f"seq={seq} uptime={hb.uptime}"
                    receivers = node.targets
                    if receivers is None:
                        log(f"{time}{send_text[pid]}{label}\n")
                        receivers, unicast = others[pid], None
                    else:
                        unicast = f"{time}{send_text[pid]}{label} receiver="
                    first, rows = runs[pid]
                    row = seq - first
                    if not 0 <= row < len(rows):
                        # Draw a new run from this seq: longer when it carries on the last.
                        k = _run_length(seq, len(rows) if row == len(rows) else 0,
                                        (duration - 1 - time) // eta + 1)
                        rows = sample_run(seed, pid, seq, k, n, loss, cdf)
                        runs[pid] = (seq, rows)
                        row = 0
                    delay = rows[row]
                    if opened_at != time:
                        # The first send of this instant opens its delivery run.
                        opened_at, opened, sent = time, [], []
                    s = len(sent)
                    sent.append((order, hb, f"{sender_text[pid]}{label}\n"))
                    append, zeros = opened.append, None
                    for receiver in receivers:
                        if unicast is not None:
                            log(unicast + receiver_text[receiver])
                        if (d := delay[receiver]) > 0:
                            append(d << shift | receiver << b | s)
                        elif d:
                            log(f"{time}\t{receiver}\tdrop\tsender={pid} seq={seq} reason=loss\n")
                        elif zeros:
                            zeros.append(receiver << b | s)
                        else:
                            zeros = [receiver << b | s]
                    if zeros:
                        # Due at this instant, maybe before a later tick at it:
                        # a run of their own, in the heap at once.  Receivers
                        # ascend, so the reversed keys are latest first.
                        zeros.reverse()
                        heappush(heap, (time, zeros[-1] >> b, _DELIVER, order,
                                        (time, sent, zeros)))
                    if len(opened) > pack and opened.__class__ is list:
                        opened = array("q", opened)
                    if s:
                        # A later send of this instant: its opening entry waits.
                        continue
                    if heap[0][0] == time:
                        # More happens at this instant, maybe another send:
                        # the opening entry sorts after every event at it and
                        # before every entry of a later instant.
                        heappush(heap, (time + 1, -1, _DELIVER, order, None))
                        continue
                    # Nothing more happens at this instant: its run is whole.
                elif rank == _TIMER:
                    # A timer entry's payload is its key.
                    slot = pid * stride + payload
                    # Stale once superseded by an earlier deadline, or its
                    # process crashed.
                    if pendings[slot] is not entry:
                        continue
                    node = nodes[pid]
                    deadline = node.deadline_of(payload)
                    if armed[slot] != order:
                        # A later arm set the deadline, no earlier than now.
                        pendings[slot] = entry = (deadline, pid, _TIMER, armed[slot], payload)
                        heappush(heap, entry)
                        continue
                    pendings[slot] = None
                    changed = node.on_timer_fire(time, payload)
                    log(f"{time}\t{pid}\ttimer_fire\tdeadline={deadline}\n")
                    if changed:
                        self._log_output_change(pid, time, node.output())
                    if node.sends() and ticking[pid] is not node:
                        # Ticks rank after timers, so the send instant ``time``
                        # itself is still ahead: the first tick falls at or after it.
                        self._tick(pid, node, time + (node.zerotime - time) % eta)
                    continue
                elif rank == _CRASH:
                    nodes[pid] = None
                    # The process's slots: its own id under nfdl, else n of them.
                    width = stride or 1
                    pendings[pid * width:(pid + 1) * width] = [None] * width
                    log(f"{time}\t{pid}\tcrash\t\n")
                    continue
                else:
                    log(f"{time}\t{pid}\trecover\t\n")
                    self._start(pid, time)
                    continue
                # An instant's run, whole: latest first.  Its keys are unique
                # and their order is the heap's; past _PACK they are an array.
                base, pairs, run = opened_at, sent, opened
                if len(run) > pack:
                    np.frombuffer(run, np.int64).sort()
                    run.reverse()
                else:
                    run.sort(reverse=True)
            if lines:
                sink("".join(lines))
        finally:
            if collecting:
                gc.enable()
        trace = self.trace
        per_send = _lines_per_send(sc)
        trace.send_counts = {pid: c * per_send for pid, c in enumerate(self._sends) if c}
        trace.store_reads = dict(self.store.reads)
        trace.store_writes = dict(self.store.writes)
        for pid, node in enumerate(self.nodes):
            if node is not None:
                trace.final_outputs[pid] = node.output()
        return trace

    # -- process start-up --------------------------------------------------

    def _start(self, pid: int, now: int) -> None:
        sc = self.scenario
        if sc.algorithm == "nfdl":
            node = NfdlProcess(pid, sc.config, self.store, now)
            if sc.high_priority == pid:
                node.assume_leadership(PRIORITY_UPTIME_BOOST)
        elif sc.algorithm == "nfde-pair":
            node = _MonitorNode(pid, sc.config, self.store, now,
                                targets=(1,) if pid == 0 else (),
                                watched=(0,) if pid == 1 else (), elect=False)
        else:
            others = self._others[pid]
            node = _MonitorNode(pid, sc.config, self.store, now,
                                targets=others, watched=others, elect=True)
        self.nodes[pid] = node
        if node.sends():
            self._tick(pid, node, next_send_time(node.zerotime, now, sc.config.eta))
        deadline = node.deadline_of(pid)
        if deadline is not None:
            # A starting process has no timer pending (none has been armed,
            # or its crash cleared its slots), and its start-up deadline lies
            # ahead: it files at once, under the order of its own push.
            slot = pid * self._stride + pid
            entry = self._pending[slot] = self._push(deadline, pid, _TIMER, pid)
            self._armed[slot] = entry[3]

    # -- output changes ----------------------------------------------------

    def _log_output_change(self, pid: int, now: int, after) -> None:
        self.trace.output_changes[pid].append((now, after))
        if isinstance(after, str):
            self._log(f"{now}\t{pid}\toutput_change\tverdict={after}\n")
        elif after is None:
            self._log(f"{now}\t{pid}\toutput_change\t\n")
        else:
            self._log(f"{now}\t{pid}\toutput_change\tleader={after}\n")

    # -- sending and delivery ----------------------------------------------

    def _tick(self, pid: int, node, at: int) -> None:
        self._ticking[pid] = node
        self._push(at, pid, _TICK, node)


def run(scenario: Scenario) -> EventTrace:
    """Run a scenario to completion and return its trace."""
    return Simulator(scenario).run()


def stream_run(scenario: Scenario, trace_path: str | Path, store=None) -> EventTrace:
    """Run ``scenario`` holding no event list: the event lines go to the
    trace file at ``trace_path`` in one write per batch, whenever more than
    _BATCH lines wait and at the end.  Returns the trace: counters, output
    changes and final outputs, no events.  The file appears only if the run
    succeeds."""
    with TraceWriter(trace_path, scenario) as writer:
        return Simulator(scenario, store=store, sink=writer.write).run()
