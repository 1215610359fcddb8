"""What the tests read of the simulator's queue.

The event heap, the delivery runs, the sampling runs and the timer slots are
``Simulator`` internals.  Every guard that counts or reads them goes through
this module, so a change to the queue's layout is mended here alone.  Each
``watch_*`` helper installs its stand-in on a pytest ``MonkeyPatch`` (the
``monkeypatch`` fixture or ``MonkeyPatch.context()``), which puts the
simulator's own back afterwards.
"""

import heapq
import math
from array import array
from collections import Counter

from nfdl import simnet


class HeapProbe:
    """A stand-in for ``simnet.heapq``.  It counts pushes by entry rank
    (``pushes[simnet._TIMER]`` and so on) and pops, keeps the most entries
    the heap held, and fails once there are more than ``bound`` pops, so a
    queue that never ends fails rather than hangs."""

    def __init__(self, bound=math.inf):
        self.pushes = Counter()
        self.pops = self.high = 0
        self.bound = bound

    def heappush(self, heap, entry):
        self.pushes[entry[2]] += 1
        heapq.heappush(heap, entry)
        self.high = max(self.high, len(heap))

    def heappop(self, heap):
        self.pops += 1
        if self.pops > self.bound:
            raise AssertionError(f"no end after {self.pops} heap pops")
        return heapq.heappop(heap)


def watch_heap(mp, bound=math.inf):
    """Install a new :class:`HeapProbe` as ``simnet.heapq`` and return it."""
    probe = HeapProbe(bound)
    mp.setattr(simnet, "heapq", probe)
    return probe


def watch_packs(mp):
    """A list that gets the length of each delivery run moved into an int64
    array."""
    packed = []

    def counted(typecode, keys):
        packed.append(len(keys))
        return array(typecode, keys)

    mp.setattr(simnet, "array", counted)
    return packed


def watch_draws(mp):
    """A list that gets the (sender, seq) of each row a sampling run draws."""
    drawn = []
    real = simnet.sample_run

    def counting(seed, sender, seq, k, *args):
        drawn.extend((sender, seq + j) for j in range(k))
        return real(seed, sender, seq, k, *args)

    mp.setattr(simnet, "sample_run", counting)
    return drawn


def cut_run(sim):
    """The delivery run that the horizon cut: the longest run a heap entry
    still carries when the loop stops."""
    return max((entry[4][2] for entry in sim._heap if entry[2] == simnet._DELIVER
                and entry[1] >= 0), key=len)


def holding_rows(sim):
    """The senders whose last sampling run still holds drawn rows."""
    return [pid for pid, (_, rows) in enumerate(sim._runs) if rows]


def ticking(sim, pid):
    """The node whose tick entry ``pid`` has pending, if any."""
    return sim._ticking[pid]


def timer_slots(sim):
    """The number of timer slots: pending entries and armed orders."""
    return len(sim._pending), len(sim._armed)
