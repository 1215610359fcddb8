"""Write-once persistence of each process's first-startup timestamp.

A process writes its startup clock reading ("zerotime") to stable storage
exactly once, on its very first initialization.  Every later recovery reads
the value back, and ``send_label`` derives heartbeat labels from elapsed time
alone, which keeps them strictly increasing across crashes without persisting
a counter.  Stores count reads and writes, so tests can assert the one-write
economy.  :func:`load_or_create_zerotime` is where a rewound clock is
refused: a stored zerotime later than the initialization clock raises
:class:`ClockRewindError` for every node kind, before it sends or watches.

Two interchangeable backends: an in-memory map for simulations (with
injectable corruption) and a file-per-process directory layout for real use
(``<state_dir>/zerotime.<pid>``, the decimal timestamp plus a newline,
written atomically via rename; any other content is a corrupt record).
"""

from __future__ import annotations

import os
from pathlib import Path


class StorageError(Exception):
    """Stable storage could not be read or written."""


class WriteOnceViolation(StorageError):
    """A second zerotime write was attempted for the same process."""


class ClockRewindError(ValueError):
    """The local clock reads earlier than the persisted zerotime."""


def send_label(zerotime: int, now: int, eta: int) -> int:
    """Label of the latest send instant zerotime + label*eta at or before now;
    every heartbeat sender labels its heartbeats with it."""
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if now < zerotime:
        raise ClockRewindError(
            f"clock reads {now} but zerotime is {zerotime}; "
            "local clocks must keep increasing through crashes"
        )
    return (now - zerotime) // eta


def recover_seq(zerotime: int, now: int, eta: int) -> int:
    """Next heartbeat label: above every label whose send instant has passed."""
    return send_label(zerotime, now, eta) + 1


def next_send_time(zerotime: int, now: int, eta: int) -> int:
    """First send instant of the schedule zerotime + label*eta strictly after now."""
    return zerotime + recover_seq(zerotime, now, eta) * eta


class MemoryStore:
    """In-memory zerotime store with the same write-once contract as disk.

    ``corrupt(pid)`` poisons a record so the next load raises StorageError,
    for exercising initialization failure paths without touching the
    filesystem.
    """

    def __init__(self):
        self._records: dict[int, int] = {}
        self._corrupt: set[int] = set()
        self.reads: dict[int, int] = {}
        self.writes: dict[int, int] = {}

    def load_zerotime(self, process: int) -> int | None:
        self.reads[process] = self.reads.get(process, 0) + 1
        if process in self._corrupt:
            raise StorageError(f"record for process {process} is corrupt")
        return self._records.get(process)

    def store_zerotime(self, process: int, t: int) -> None:
        if process in self._records:
            raise WriteOnceViolation(
                f"zerotime for process {process} already stored"
            )
        self._records[process] = t
        self.writes[process] = self.writes.get(process, 0) + 1

    def corrupt(self, process: int) -> None:
        self._corrupt.add(process)


class FileStore:
    """One ``zerotime.<pid>`` file per process under a state directory."""

    def __init__(self, state_dir: str | Path):
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.reads: dict[int, int] = {}
        self.writes: dict[int, int] = {}

    def _path(self, process: int) -> Path:
        return self.state_dir / f"zerotime.{process}"

    def load_zerotime(self, process: int) -> int | None:
        self.reads[process] = self.reads.get(process, 0) + 1
        path = self._path(process)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StorageError(f"cannot read {path}: {exc}") from exc
        # Only the exact bytes store_zerotime writes load: int() alone would
        # also take " 5", "05", "-0", "5_0" and non-ASCII digits.
        try:
            value = int(raw)
        except ValueError:
            value = None
        if value is None or raw != _record(value):
            raise StorageError(f"corrupt zerotime record {path}: {raw!r}")
        return value

    def store_zerotime(self, process: int, t: int) -> None:
        path = self._path(process)
        if path.exists():
            raise WriteOnceViolation(f"{path} already exists")
        tmp = path.with_suffix(path.suffix + ".tmp")
        try:
            tmp.write_bytes(_record(t))
            os.replace(tmp, path)
        except OSError as exc:
            raise StorageError(f"cannot write {path}: {exc}") from exc
        self.writes[process] = self.writes.get(process, 0) + 1


def _record(t: int) -> bytes:
    """A zerotime record's file contents: the decimal value and a newline."""
    return f"{t}\n".encode("ascii")


def load_or_create_zerotime(store, process: int, now: int) -> int:
    """Initialization-time zerotime fetch: read the record, write it once.

    Returns the persisted zerotime, creating it from ``now`` on the very
    first startup.  Storage failures propagate, and so does a stored
    zerotime later than ``now``; a process that cannot reach its stable
    store, or whose clock has gone back, must not join.
    """
    zerotime = store.load_zerotime(process)
    if zerotime is None:
        zerotime = now
        store.store_zerotime(process, zerotime)
    elif now < zerotime:
        raise ClockRewindError(f"process {process}: clock reads {now}, earlier than "
                               f"its stored zerotime {zerotime}")
    return zerotime
