"""Arrival prediction for periodic heartbeats.

A monitor keeps a sliding window of the last ``n`` accepted heartbeats as
(sequence number, local arrival time) pairs.  Shifting each arrival back by
``seq * eta`` collapses the periodic send schedule, so the window mean of the
shifted values is a smoothed one-way transit estimate.  The next heartbeat is
then expected at that estimate plus its own scheduled send instant, and the
freshness deadline adds a fixed safety margin on top.

Timestamps are integer milliseconds.  The window mean is evaluated exactly
(integer numerator over the window size) and rounded half-up, so predictions
are reproducible across platforms and shifting every arrival by a constant
shifts the prediction by exactly that constant.

The window keeps running integer sums of its sequence numbers and arrival
times, adding each recorded pair and subtracting the evicted one, so the
numerator ``sum(arrival) - eta * sum(seq)`` costs the same at any window size.
"""

from __future__ import annotations

from collections import deque


def div_round_half_up(num: int, den: int) -> int:
    """Exact num/den rounded half-up (ties toward +infinity). den > 0."""
    q, r = divmod(num, den)
    if 2 * r >= den:
        q += 1
    return q


class ArrivalWindow:
    """Bounded history of accepted (seq, arrival) pairs, newest last.

    Only strictly fresh sequence numbers may be recorded; the caller is
    responsible for freshness screening, so a stale insert is a bug and
    raises.
    """

    __slots__ = ("capacity", "entries", "last_seq", "seq_sum", "arrival_sum")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"window capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.entries: deque[tuple[int, int]] = deque(maxlen=capacity)
        self.last_seq = -1
        self.seq_sum = 0
        self.arrival_sum = 0

    def __len__(self) -> int:
        return len(self.entries)

    def record(self, seq: int, arrival: int) -> None:
        """Append a fresh arrival, evicting the oldest entry when full."""
        if seq <= self.last_seq:
            raise ValueError(
                f"stale arrival: seq {seq} <= newest recorded {self.last_seq}"
            )
        if len(self.entries) == self.capacity:
            old_seq, old_arrival = self.entries[0]
            self.seq_sum -= old_seq
            self.arrival_sum -= old_arrival
        self.entries.append((seq, arrival))
        self.seq_sum += seq
        self.arrival_sum += arrival
        self.last_seq = seq

    def expected_arrival(self, eta: int, next_seq: int) -> int:
        """Predicted arrival time of heartbeat ``next_seq``, in ms.

        Mean of (arrival - eta*seq) over the window plus next_seq*eta.
        The window must be non-empty and next_seq must be the successor of
        the newest recorded sequence number.
        """
        if not self.entries:
            raise ValueError("expected_arrival undefined on an empty window")
        if next_seq != self.last_seq + 1:
            raise ValueError(
                f"next_seq must be {self.last_seq + 1}, got {next_seq}"
            )
        shifted_sum = self.arrival_sum - eta * self.seq_sum
        return div_round_half_up(shifted_sum, len(self.entries)) + next_seq * eta


def freshness_point(expected_arrival: int, alpha: int) -> int:
    """Deadline by which the next heartbeat must arrive: prediction + margin."""
    return expected_arrival + alpha
