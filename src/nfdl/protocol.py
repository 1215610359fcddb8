"""Leader election and failure detection state machines.

Three event-driven machines, all pure transitions on explicit state with an
explicit clock argument (no internal timers, no wall clock):

* ``NfdlProcess`` - single-leader election for crash-recovery processes.
  Only the process that currently believes itself leader broadcasts
  heartbeats; everyone else keeps the leader's heartbeat arrivals in an
  ``ArrivalWindow`` and self-elects when its freshness deadline expires.
  Leadership challenges are settled by priority: higher uptime wins,
  process id breaks ties.
* ``NfdeMonitor`` - the classic two-valued trust/suspect monitor of a single
  remote heartbeat source.  The simulator's all-pairs node runs one per
  watched peer, for both the two-process baseline and the all-pairs
  reduction.  The election needs no verdict, only the freshness point, so
  a follower keeps its leader's window itself.
* ``naive_reduction_cost`` - the message bill of building leader election
  from all-pairs monitoring, kept as the analytic cross-check for the
  simulator's counters.

:class:`NfdlProcess` states the contract its driver (the simulator, or any
transport adapter) keeps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .estimator import ArrivalWindow
from .stable_store import load_or_create_zerotime, send_label


# Not frozen: a frozen slots dataclass pays object.__setattr__ once per field.
# A send's deliveries share one Heartbeat and text made from it: never mutate it.
@dataclass(slots=True)
class Heartbeat:
    """The only wire message: schedule label, sender id, sender uptime."""

    seq: int
    sender: int
    uptime: int

    def __post_init__(self):
        if self.seq < 1:
            raise ValueError(f"heartbeat seq must be >= 1, got {self.seq}")
        if self.uptime < 0:
            raise ValueError(f"uptime must be >= 0, got {self.uptime}")


@dataclass(frozen=True, slots=True)
class ProtocolConfig:
    """Timing parameters: send interval eta, safety margin alpha (both ms),
    and the estimator window size."""

    eta: int
    alpha: int
    window_n: int = 100

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.window_n < 1:
            raise ValueError(f"window_n must be >= 1, got {self.window_n}")


# Not frozen: a frozen slots dataclass pays object.__setattr__ once per field.
@dataclass(slots=True)
class Output:
    """Locally elected leader and whether a delivery changed it, as
    :meth:`NfdlProcess.on_heartbeat` reports them."""

    leader: int | None
    changed: bool


class Verdict(enum.Enum):
    TRUST = "trust"
    SUSPECT = "suspect"


# Module aliases: a global load costs a quarter of the enum attribute lookup.
_TRUST, _SUSPECT = Verdict.TRUST, Verdict.SUSPECT


def naive_reduction_cost(n_processes: int) -> int:
    """Heartbeats per eta for the all-pairs reduction: one per directed link."""
    if n_processes < 2:
        raise ValueError(f"need at least 2 processes, got {n_processes}")
    return n_processes * n_processes - n_processes


class NfdlProcess:
    """One process's election state machine.

    State is mutated in place by one transition per input.  The driver
    contract:

    * deliver each received heartbeat via :meth:`deliver`, which reports
      whether the leader changed and the deadline it moved
      (:meth:`on_heartbeat` reports the same transition as an ``Output``);
    * keep a timer at :attr:`deadline` (None when unarmed), which
      :meth:`deliver` may move, and call :meth:`on_timer_fire` when it
      expires, which reports whether the leader changed (stale timers are
      no-ops);
    * call :meth:`next_heartbeat` at every send instant of the process's
      schedule (``zerotime + i*eta``); non-leaders return None.

    It is the simulator's node for ``nfdl``: the leader broadcasts (no
    ``targets``), its output is the leader, and its one deadline, grace or
    freshness, is keyed by its own id, which :meth:`due` names once it is
    due.

    A follower keeps its leader's arrivals in an :class:`ArrivalWindow`,
    started afresh on every adoption, and sets its freshness deadline to
    the window's expected arrival plus alpha, the point at which an
    :class:`NfdeMonitor` of the same stream would suspect.

    Initialization loads the persisted zerotime (writing it exactly once on
    first startup, refusing a clock earlier than it) and arms a one-shot
    grace deadline of eta + alpha: a process that hears no leader by then
    elects itself.  An active leader's next broadcast always beats that
    deadline, so recoveries do not disturb a running system.
    """

    targets = None

    def __init__(self, self_id: int, config: ProtocolConfig, store, now: int):
        self.self_id = self_id
        self.config = config
        self.eta, self.alpha = config.eta, config.alpha
        self.zerotime = load_or_create_zerotime(store, self_id, now)
        self.leader: int | None = None
        self.uptime = 0
        # Priority carried by the most recent heartbeat this process sent;
        # None until it has broadcast at least once.  Leadership defends
        # itself with this advertised value, not the live counter, so two
        # processes observing each other compare like for like.
        self.last_sent_uptime: int | None = None
        # The (uptime, pid) priority of the current leader (None while there
        # is none): a follower's from the leader's last accepted heartbeat,
        # a leader's own as advertised.  Set wherever either changes.
        self.incumbent: tuple[int, int] | None = None
        # Arrival window of the current leader's heartbeat stream; None
        # while this process leads or has no leader yet.
        self.window: ArrivalWindow | None = None
        self.deadline: int | None = now + config.eta + config.alpha

    def sends(self) -> bool:
        return self.leader == self.self_id

    def output(self) -> int | None:
        return self.leader

    def deadline_of(self, key: int) -> int | None:
        """The deadline; ``key`` is always this process's id."""
        return self.deadline

    def due(self, now: int) -> int | None:
        """This process's id while its deadline is due by ``now``, else None."""
        deadline = self.deadline
        return None if deadline is None or deadline > now else self.self_id

    def deliver(
        self, hb: Heartbeat, now: int
    ) -> tuple[bool, int | None, int | None]:
        """Handle a delivered heartbeat: ``(changed, key, deadline)``.

        ``changed`` is True iff the leader changed.  When the freshness
        deadline moved, ``key`` is this process's id, the key of its one
        deadline, and ``deadline`` the new deadline; both are None when it
        did not move.

        From the current leader: fresh labels enter the leader's window and
        advance the freshness deadline (stale ones change nothing).  From
        anyone else: the sender takes over iff its (uptime, pid) priority
        strictly beats the incumbent's, which starts a fresh window on its
        stream and arms the deadline from this first arrival.  Priorities
        compare as tuples, so a higher uptime wins and the pid breaks ties;
        no incumbent (None) loses to everything, so the first heartbeat seen
        before any election is always adopted.
        """
        sender = hb.sender
        if sender == self.self_id:
            return False, None, None
        if sender == self.leader:
            window = self.window
            if hb.seq <= window.last_seq:
                return False, None, None
            adopted = False
        else:
            incumbent = self.incumbent
            if incumbent is not None and (hb.uptime, sender) <= incumbent:
                return False, None, None
            self.leader = sender
            self.window = window = ArrivalWindow(self.config.window_n)
            adopted = True
        # The freshness point: the expected arrival of the next heartbeat
        # plus the margin.
        deadline = window.record(hb.seq, now, self.eta) + self.alpha
        self.incumbent = (hb.uptime, sender)
        if deadline == self.deadline:
            return adopted, None, None
        self.deadline = deadline
        return adopted, self.self_id, deadline

    def on_heartbeat(self, hb: Heartbeat, now: int) -> Output:
        """The :meth:`deliver` transition, reported as an :class:`Output`."""
        changed = self.deliver(hb, now)[0]
        return Output(self.leader, changed)

    def on_timer_fire(self, now: int, key: int | None = None) -> bool:
        """Freshness (or grace) deadline expiry: claim leadership.

        True iff the leader changed.  A timer that fires before the current
        deadline is stale (a fresh heartbeat advanced it) and changes
        nothing.  ``key``, when given, is this process's id.
        """
        if self.deadline is None or now < self.deadline:
            return False
        changed = self.leader != self.self_id
        self._lead()
        return changed

    def next_heartbeat(self, now: int) -> Heartbeat | None:
        """Heartbeat for the send instant ``now``, or None when not leader.

        The label is derived from the schedule, not a stored counter, so it
        is strictly increasing across the process's whole lifetime, crashes
        included.  The uptime counter advances after each send.
        """
        if self.leader != self.self_id:
            return None
        # Positional fields: keywords cost a third more per heartbeat.
        hb = Heartbeat(send_label(self.zerotime, now, self.config.eta),
                       self.self_id, self.uptime)
        self.last_sent_uptime = self.uptime
        self.uptime += 1
        self.incumbent = (hb.uptime, self.self_id)
        return hb

    def assume_leadership(self, uptime: int = 0) -> None:
        """Measurement harness hook: install this process as leader outright.

        Skips the election discipline (grace wait and priority contest), so
        it must never be called from a protocol driver.  The experiment
        harness uses it to pin a designated high-priority leader that gets
        re-elected immediately after recovering.
        """
        self._lead()
        self.uptime = uptime
        self.last_sent_uptime = None
        self.incumbent = (uptime, self.self_id)

    def _lead(self) -> None:
        """Become leader, defending the priority last advertised (the live
        uptime before the first send): stop watching anyone and drop the
        deadline."""
        self.leader = self.self_id
        sent = self.last_sent_uptime
        self.incumbent = (self.uptime if sent is None else sent, self.self_id)
        self.window = None
        self.deadline = None


class NfdeMonitor:
    """Trust/suspect monitor of a single heartbeat source.

    Starts suspecting (nothing has been heard).  A fresh heartbeat re-arms
    the freshness deadline and restores trust iff it arrived strictly before
    its own deadline; expiry of the deadline flips back to suspect.
    """

    def __init__(self, config: ProtocolConfig):
        self.eta, self.alpha = config.eta, config.alpha
        self.window = ArrivalWindow(config.window_n)
        self.deadline: int | None = None
        self.verdict = _SUSPECT

    def on_heartbeat(self, seq: int, now: int) -> Verdict:
        window = self.window
        if seq > window.last_seq:
            # The freshness point: one window call records the arrival and
            # predicts the next, and the margin goes on top.
            self.deadline = deadline = window.record(seq, now, self.eta) + self.alpha
            if now < deadline:
                self.verdict = _TRUST
        return self.verdict

    def on_timeout(self, now: int) -> Verdict:
        if self.deadline is not None and now >= self.deadline:
            self.verdict = _SUSPECT
            self.deadline = None
        return self.verdict
