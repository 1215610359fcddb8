"""Arrival prediction for periodic heartbeats.

A monitor keeps a sliding window of the last ``n`` accepted heartbeats as
(sequence number, local arrival time) pairs.  Shifting each arrival back by
``seq * eta`` collapses the periodic send schedule, so the window mean of the
shifted values is a smoothed one-way transit estimate.  The next heartbeat is
then expected at that estimate plus its own scheduled send instant.  The
freshness deadline adds a fixed safety margin on top; the window's caller,
an ``NfdeMonitor`` or an ``NfdlProcess`` following its leader, adds it to
``record``'s prediction, so this module holds no deadline rule.

Timestamps are integer milliseconds.  The window mean is evaluated exactly
and rounded half-up: with ``s`` the numerator below and ``m`` the window
size, the rounded mean is ``(2*s + m) // (2*m)``, which is floor(s/m + 1/2)
exactly for any integer ``s`` and ``m`` > 0.  So predictions are reproducible
across platforms and shifting every arrival by a constant shifts the
prediction by exactly that constant.

The window holds its sequence numbers and arrival times in two plain int
deques, with no tuple per heartbeat, and keeps running integer sums of both,
updated by each recorded value less the one it evicts, so the numerator
``sum(arrival) - eta * sum(seq)`` costs the same at any window size.  The
window's bound lives in ``capacity`` alone: ``record`` drops the oldest entry
itself once the window is full, so any capacity >= 1 is valid, however large.

A caller makes one window call per accepted heartbeat: ``record`` stores
the arrival and returns the expected arrival of the next heartbeat, so the
hot path neither calls ``expected_arrival`` nor re-checks what ``record``
has just ensured.  ``record`` holds the estimate's one copy;
``expected_arrival`` checks its arguments and reads the estimate back through
it.
"""

from __future__ import annotations

from collections import deque


class ArrivalWindow:
    """History of the last ``capacity`` accepted (seq, arrival) pairs,
    newest last, in two plain deques that ``record`` keeps at that bound.

    Only strictly fresh sequence numbers may be recorded; the caller is
    responsible for freshness screening, so a stale insert is a bug and
    raises.
    """

    __slots__ = ("capacity", "seqs", "arrivals", "last_seq", "seq_sum", "arrival_sum")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"window capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.seqs: deque[int] = deque()
        self.arrivals: deque[int] = deque()
        self.last_seq = -1
        self.seq_sum = 0
        self.arrival_sum = 0

    def __len__(self) -> int:
        return len(self.seqs)

    def record(self, seq: int, arrival: int, eta: int = 0) -> int:
        """Append a fresh arrival, evicting the oldest entry when full, and
        return the expected arrival of heartbeat ``seq + 1`` for heartbeats
        sent every ``eta`` ms: ``expected_arrival(eta, seq + 1)`` of the
        window this leaves."""
        if seq <= self.last_seq:
            raise ValueError(
                f"stale arrival: seq {seq} <= newest recorded {self.last_seq}"
            )
        seqs, arrivals = self.seqs, self.arrivals
        m = len(seqs)
        if m == self.capacity:
            self.seq_sum = seq_sum = self.seq_sum + seq - seqs.popleft()
            self.arrival_sum = arrival_sum = self.arrival_sum + arrival - arrivals.popleft()
        else:
            m += 1
            self.seq_sum = seq_sum = self.seq_sum + seq
            self.arrival_sum = arrival_sum = self.arrival_sum + arrival
        seqs.append(seq)
        arrivals.append(arrival)
        self.last_seq = seq
        s = arrival_sum - eta * seq_sum
        return (2 * s + m) // (2 * m) + (seq + 1) * eta

    def expected_arrival(self, eta: int, next_seq: int) -> int:
        """Predicted arrival time of heartbeat ``next_seq``, in ms.

        Mean of (arrival - eta*seq) over the window, rounded half-up, plus
        next_seq*eta.  The window must be non-empty and next_seq must be the
        successor of the newest recorded sequence number.
        """
        if not self.seqs:
            raise ValueError("expected_arrival undefined on an empty window")
        if next_seq != self.last_seq + 1:
            raise ValueError(
                f"next_seq must be {self.last_seq + 1}, got {next_seq}"
            )
        # Take the newest entry back out and record it again: with that
        # entry out the window has room, so recording it evicts nothing and
        # leaves the window as it was.
        seq, arrival = self.seqs.pop(), self.arrivals.pop()
        self.seq_sum -= seq
        self.arrival_sum -= arrival
        self.last_seq = seq - 1
        return self.record(seq, arrival, eta)
