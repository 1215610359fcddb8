"""A naive reference simulator, the differential oracle of ``simnet.Simulator``.

It runs a scenario the plain way: one heap entry per message and one per
timer arm, each keyed (time, process, kind rank, order) with kind ranks
crash < recover < timer < tick < deliver.  A send takes one order for its
next tick and one that all its deliveries share, so deliveries that tie on
(time, receiver) run in send order.  Every timer arm takes its own order and
pushes its own entry, which fires iff it is its slot's latest arm and no
crash of its process cleared the slot since.  Each message is drawn on its
own, ``sample_delivery(t, network, link_stream(seed, sender, seq,
receiver))``, and each line is ``TraceEvent(...).line()``.

It drives the simulator's own node classes, so it checks the schedule, the
sampling and the trace text, not the protocol rules.
"""

from __future__ import annotations

import heapq
import itertools

from nfdl.protocol import NfdlProcess
from nfdl.simnet import (
    PRIORITY_UPTIME_BOOST,
    Scenario,
    TraceEvent,
    _MonitorNode,
    link_stream,
    sample_delivery,
)
from nfdl.stable_store import MemoryStore, next_send_time

CRASH, RECOVER, TIMER, TICK, DELIVER = range(5)


def make_node(sc: Scenario, pid: int, store, now: int):
    """The node a process of ``sc`` starts (or recovers) as at ``now``."""
    if sc.algorithm == "nfdl":
        node = NfdlProcess(pid, sc.config, store, now)
        if sc.high_priority == pid:
            node.assume_leadership(PRIORITY_UPTIME_BOOST)
        return node
    if sc.algorithm == "nfde-pair":
        return _MonitorNode(pid, sc.config, store, now, targets=(1,) if pid == 0 else (),
                            watched=(0,) if pid == 1 else (), elect=False)
    others = tuple(p for p in range(sc.n_processes) if p != pid)
    return _MonitorNode(pid, sc.config, store, now, targets=others, watched=others,
                        elect=True)


class ReferenceSimulator:
    """Runs ``scenario`` once; after :meth:`run` the attributes hold what
    ``Simulator.run``'s trace holds: ``lines`` (without newlines),
    ``output_changes``, ``final_outputs``, ``send_counts`` (send lines per
    process) and the store's ``reads`` and ``writes``.  ``steps`` counts the
    heap entries popped; none due at or after the end is."""

    def __init__(self, scenario: Scenario):
        self.sc = scenario
        n = scenario.n_processes
        self.store = MemoryStore()
        self.heap: list[tuple] = []
        self.orders = itertools.count()
        self.nodes: list = [None] * n
        self.ticking: list = [None] * n
        self.armed: dict[tuple[int, int], int] = {}  # (pid, key) -> latest arm
        self.lines: list[str] = []
        self.output_changes = {pid: [] for pid in range(n)}
        self.send_counts: dict[int, int] = {}
        self.steps = 0

    def push(self, time, pid, rank, payload, order=None):
        order = next(self.orders) if order is None else order
        heapq.heappush(self.heap, (time, pid, rank, order, payload))

    def log(self, time, pid, kind, **payload):
        self.lines.append(TraceEvent(time, pid, kind, **payload).line())

    def start(self, pid, now):
        node = self.nodes[pid] = make_node(self.sc, pid, self.store, now)
        if node.sends():
            self.tick(pid, node, next_send_time(node.zerotime, now, self.sc.config.eta))
        deadline = node.deadline_of(pid)
        if deadline is not None:
            self.arm(pid, pid, deadline, now)

    def tick(self, pid, node, at):
        self.ticking[pid] = node
        self.push(at, pid, TICK, node)

    def arm(self, pid, key, deadline, now):
        order = next(self.orders)
        self.armed[pid, key] = order
        self.push(max(now, deadline), pid, TIMER, key, order)

    def output_change(self, pid, time, node):
        out = node.output()
        self.output_changes[pid].append((time, out))
        if isinstance(out, str):
            self.log(time, pid, "output_change", verdict=out)
        else:
            self.log(time, pid, "output_change", leader=out)

    def send(self, pid, node, time, hb):
        sc = self.sc
        order = next(self.orders)  # shared by every delivery of this send
        receivers = node.targets
        if receivers is None:
            self.log(time, pid, "send", seq=hb.seq, uptime=hb.uptime)
            receivers = [r for r in range(sc.n_processes) if r != pid]
        for r in receivers:
            if node.targets is not None:
                self.log(time, pid, "send", seq=hb.seq, uptime=hb.uptime, receiver=r)
            at = sample_delivery(time, sc.network, link_stream(sc.seed, pid, hb.seq, r))
            if at is None:
                self.log(time, r, "drop", sender=pid, seq=hb.seq, reason="loss")
            else:
                self.push(at, r, DELIVER, hb, order)
        lines = 1 if node.targets is None else len(node.targets)
        self.send_counts[pid] = self.send_counts.get(pid, 0) + lines

    def run(self) -> ReferenceSimulator:
        sc, eta = self.sc, self.sc.config.eta
        for pid in range(sc.n_processes):
            self.start(pid, 0)
        for f in sc.faults:
            self.push(f.at, f.process, CRASH if f.kind == "crash" else RECOVER, None)
        while self.heap and self.heap[0][0] < sc.duration:
            time, pid, rank, order, payload = heapq.heappop(self.heap)
            self.steps += 1
            node = self.nodes[pid]
            if rank == CRASH:
                self.nodes[pid] = None
                for slot in [s for s in self.armed if s[0] == pid]:
                    del self.armed[slot]
                self.log(time, pid, "crash")
            elif rank == RECOVER:
                self.log(time, pid, "recover")
                self.start(pid, time)
            elif rank == TICK:
                if payload is not node:
                    continue  # filed by a node that has since crashed
                hb = node.next_heartbeat(time)
                if hb is None:
                    self.ticking[pid] = None
                    continue
                self.push(time + eta, pid, TICK, node)
                self.send(pid, node, time, hb)
            elif rank == TIMER:
                if self.armed.get((pid, payload)) != order:
                    continue  # superseded by a later arm, or by a crash
                del self.armed[pid, payload]
                deadline = node.deadline_of(payload)
                changed = node.on_timer_fire(time, payload)
                self.log(time, pid, "timer_fire", deadline=deadline)
                if changed:
                    self.output_change(pid, time, node)
                if node.sends() and self.ticking[pid] is not node:
                    # The first send instant at or after now.
                    self.tick(pid, node, next_send_time(node.zerotime, time - 1, eta))
            else:
                hb = payload
                if node is None:
                    self.log(time, pid, "drop", sender=hb.sender, seq=hb.seq, reason="down")
                    continue
                self.log(time, pid, "deliver", sender=hb.sender, seq=hb.seq, uptime=hb.uptime)
                changed, key, deadline = node.deliver(hb, time)
                if changed:
                    self.output_change(pid, time, node)
                if key is not None:
                    self.arm(pid, key, deadline, time)
        self.final_outputs = {pid: node.output() for pid, node in enumerate(self.nodes)
                              if node is not None}
        self.reads, self.writes = dict(self.store.reads), dict(self.store.writes)
        return self
