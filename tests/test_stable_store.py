import os
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nfdl.stable_store import (
    ClockRewindError,
    FileStore,
    MemoryStore,
    StorageError,
    WriteOnceViolation,
    load_or_create_zerotime,
    recover_seq,
)


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryStore()
    return FileStore(tmp_path / "state")


def test_load_missing_returns_none(store):
    assert store.load_zerotime(3) is None
    assert store.reads[3] == 1


def test_store_then_load_round_trips(store):
    store.store_zerotime(1, 5000)
    assert store.load_zerotime(1) == 5000
    assert store.writes[1] == 1


def test_second_store_is_a_write_once_violation(store):
    store.store_zerotime(1, 5000)
    with pytest.raises(WriteOnceViolation):
        store.store_zerotime(1, 9000)
    assert store.writes[1] == 1


def test_records_are_per_process(store):
    store.store_zerotime(1, 5000)
    store.store_zerotime(2, 7000)
    assert store.load_zerotime(1) == 5000
    assert store.load_zerotime(2) == 7000


def test_corrupt_record_is_an_error_not_none(tmp_path):
    fs = FileStore(tmp_path)
    fs.store_zerotime(4, 1234)
    (tmp_path / "zerotime.4").write_text("12")  # truncated: no newline
    with pytest.raises(StorageError):
        fs.load_zerotime(4)
    (tmp_path / "zerotime.4").write_text("not a number\n")
    with pytest.raises(StorageError):
        fs.load_zerotime(4)
    # Only the exact bytes store_zerotime writes load, so neither what an
    # isdigit() screen admits nor what int() forgives passes.
    for raw in ("--5\n", "\u00b2\n", "\u0665\n", " 5\n", "5 \n", "-0\n", "05\n"):
        (tmp_path / "zerotime.4").write_text(raw, encoding="utf-8")
        with pytest.raises(StorageError, match="zerotime.4"):
            fs.load_zerotime(4)
    (tmp_path / "zerotime.4").write_bytes(b"\xff\n")
    with pytest.raises(StorageError, match="zerotime.4"):
        fs.load_zerotime(4)


@pytest.mark.parametrize("t", [0, 7, -3, 10**20])
def test_file_store_loads_what_it_stores(tmp_path, t):
    FileStore(tmp_path).store_zerotime(0, t)
    assert FileStore(tmp_path).load_zerotime(0) == t


def test_memory_store_corruption_injection():
    ms = MemoryStore()
    ms.store_zerotime(2, 10)
    ms.corrupt(2)
    with pytest.raises(StorageError):
        ms.load_zerotime(2)


def test_file_store_layout(tmp_path):
    fs = FileStore(tmp_path / "s")
    fs.store_zerotime(7, 42)
    assert (tmp_path / "s" / "zerotime.7").read_text() == "42\n"
    assert not list((tmp_path / "s").glob("*.tmp"))


def test_racing_file_stores_write_a_record_once(tmp_path, monkeypatch):
    # Both writers see no record, as when they race on one directory: the
    # second must fail, not replace the record the first reported written.
    first, second = FileStore(tmp_path), FileStore(tmp_path)
    monkeypatch.setattr(Path, "exists", lambda self: False)
    first.store_zerotime(0, 100)
    with pytest.raises(WriteOnceViolation):
        second.store_zerotime(0, 200)
    assert (tmp_path / "zerotime.0").read_text() == "100\n"
    assert (first.writes, second.writes) == ({0: 1}, {})
    assert [p.name for p in tmp_path.iterdir()] == ["zerotime.0"]


def test_a_failed_file_write_is_a_storage_error(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", str(dst))

    fs = FileStore(tmp_path)
    monkeypatch.setattr(os, "link", refuse)
    with pytest.raises(StorageError, match="cannot write .*zerotime.3") as raised:
        fs.store_zerotime(3, 5)
    assert not isinstance(raised.value, WriteOnceViolation)
    assert fs.writes == {}
    assert list(tmp_path.iterdir()) == []


def test_load_or_create_writes_exactly_once(store):
    assert load_or_create_zerotime(store, 0, 5000) == 5000
    assert load_or_create_zerotime(store, 0, 9999) == 5000
    assert store.writes[0] == 1
    assert store.reads[0] == 2


# -- recovery label ---------------------------------------------------------


def brute_force_next_label(zerotime, now, eta):
    """First label whose scheduled send instant has not yet passed."""
    label = 1
    while zerotime + label * eta <= now:
        label += 1
    return label


def test_recover_seq_zero_elapsed():
    assert recover_seq(1000, 1000, 330) == 1


def test_recover_seq_exact_multiple():
    assert recover_seq(0, 3300, 330) == 11
    assert brute_force_next_label(0, 3300, 330) == 11


def test_recover_seq_just_under_multiple():
    assert recover_seq(0, 3299, 330) == 10
    assert brute_force_next_label(0, 3299, 330) == 10


def test_recover_seq_clock_rewind():
    with pytest.raises(ClockRewindError):
        recover_seq(5000, 4999, 330)


def test_recover_seq_bad_eta():
    with pytest.raises(ValueError):
        recover_seq(0, 100, 0)


@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=2000),
    st.integers(min_value=0, max_value=9999),
    st.integers(min_value=1, max_value=10_000),
)
def test_recover_seq_matches_brute_force(zerotime, periods, remainder, eta):
    now = zerotime + periods * eta + (remainder % eta)
    assert recover_seq(zerotime, now, eta) == brute_force_next_label(zerotime, now, eta)


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=5000),
)
def test_recovery_label_exceeds_everything_already_due(zerotime, crash_gap, rec_gap, eta):
    # Any label whose send instant fell before the crash is strictly smaller
    # than the label computed at recovery.
    crash = zerotime + crash_gap
    now = crash + rec_gap
    next_label = recover_seq(zerotime, now, eta)
    last_due = (crash - zerotime) // eta
    assert next_label > last_due
