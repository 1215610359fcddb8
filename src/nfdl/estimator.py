"""Arrival prediction for periodic heartbeats.

A monitor keeps a sliding window of the last ``n`` accepted heartbeats as
(sequence number, local arrival time) pairs.  Shifting each arrival back by
``seq * eta`` collapses the periodic send schedule, so the window mean of the
shifted values is a smoothed one-way transit estimate.  The next heartbeat is
then expected at that estimate plus its own scheduled send instant, and the
freshness deadline adds a fixed safety margin on top.

Timestamps are integer milliseconds.  The window mean is evaluated exactly
and rounded half-up: with ``s`` the numerator below and ``m`` the window
size, the rounded mean is ``(2*s + m) // (2*m)``, which is floor(s/m + 1/2)
exactly for any integer ``s`` and ``m`` > 0.  So predictions are reproducible
across platforms and shifting every arrival by a constant shifts the
prediction by exactly that constant.

The window holds its sequence numbers and arrival times in two bounded int
deques, with no tuple per heartbeat, and keeps running integer sums of both,
updated by each recorded value less the one it evicts, so the numerator
``sum(arrival) - eta * sum(seq)`` costs the same at any window size.
"""

from __future__ import annotations

from collections import deque


class ArrivalWindow:
    """Bounded history of accepted (seq, arrival) pairs, newest last.

    Only strictly fresh sequence numbers may be recorded; the caller is
    responsible for freshness screening, so a stale insert is a bug and
    raises.
    """

    __slots__ = ("capacity", "seqs", "arrivals", "last_seq", "seq_sum", "arrival_sum")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"window capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.seqs: deque[int] = deque(maxlen=capacity)
        self.arrivals: deque[int] = deque(maxlen=capacity)
        self.last_seq = -1
        self.seq_sum = 0
        self.arrival_sum = 0

    def __len__(self) -> int:
        return len(self.seqs)

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        """The window's (seq, arrival) pairs, oldest first (a copy)."""
        return tuple(zip(self.seqs, self.arrivals))

    def record(self, seq: int, arrival: int) -> None:
        """Append a fresh arrival, evicting the oldest entry when full."""
        if seq <= self.last_seq:
            raise ValueError(
                f"stale arrival: seq {seq} <= newest recorded {self.last_seq}"
            )
        seqs, arrivals = self.seqs, self.arrivals
        if len(seqs) == self.capacity:
            self.seq_sum += seq - seqs[0]
            self.arrival_sum += arrival - arrivals[0]
        else:
            self.seq_sum += seq
            self.arrival_sum += arrival
        seqs.append(seq)
        arrivals.append(arrival)
        self.last_seq = seq

    def expected_arrival(self, eta: int, next_seq: int) -> int:
        """Predicted arrival time of heartbeat ``next_seq``, in ms.

        Mean of (arrival - eta*seq) over the window, rounded half-up, plus
        next_seq*eta.  The window must be non-empty and next_seq must be the
        successor of the newest recorded sequence number.
        """
        m = len(self.seqs)
        if not m:
            raise ValueError("expected_arrival undefined on an empty window")
        if next_seq != self.last_seq + 1:
            raise ValueError(
                f"next_seq must be {self.last_seq + 1}, got {next_seq}"
            )
        s = self.arrival_sum - eta * self.seq_sum
        return (2 * s + m) // (2 * m) + next_seq * eta


def freshness_point(expected_arrival: int, alpha: int) -> int:
    """Deadline by which the next heartbeat must arrive: prediction + margin."""
    return expected_arrival + alpha
