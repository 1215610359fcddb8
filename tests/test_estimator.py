import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfdl.estimator import ArrivalWindow


def div_round_half_up(num, den):
    """Exact num/den rounded half-up (ties toward +infinity), by divmod. den > 0."""
    q, r = divmod(num, den)
    if 2 * r >= den:
        q += 1
    return q


def pairs_of(window):
    """The window's (seq, arrival) pairs, oldest first."""
    return list(zip(window.seqs, window.arrivals))


def eq1_float(entries, eta, next_seq):
    """Independent re-evaluation of the prediction in plain float arithmetic."""
    shifted = [arrival - eta * seq for seq, arrival in entries]
    return sum(shifted) / len(shifted) + next_seq * eta


def fill(pairs, capacity=100):
    w = ArrivalWindow(capacity)
    for seq, arrival in pairs:
        w.record(seq, arrival)
    return w


def test_record_empty_window():
    w = fill([(1, 110)])
    assert len(w) == 1
    assert w.last_seq == 1


def test_record_evicts_oldest_at_capacity():
    w = fill([(1, 100), (2, 200), (3, 300)], capacity=3)
    w.record(4, 400)
    assert len(w) == 3
    assert pairs_of(w) == [(2, 200), (3, 300), (4, 400)]
    assert w.last_seq == 4


def test_record_rejects_stale_seq():
    w = fill([(5, 500)])
    with pytest.raises(ValueError):
        w.record(2, 600)


@pytest.mark.parametrize("capacity", [0, -1])
def test_window_capacity_below_one_is_rejected(capacity):
    with pytest.raises(ValueError, match="window capacity must be >= 1"):
        ArrivalWindow(capacity)


def test_expected_arrival_constant_shift():
    w = fill([(1, 110), (2, 210), (3, 310)])
    assert w.expected_arrival(eta=100, next_seq=4) == 410


def test_expected_arrival_mean_of_shifts():
    w = fill([(1, 105), (2, 215)])
    got = w.expected_arrival(eta=100, next_seq=3)
    assert got == 310
    assert got == round(eq1_float([(1, 105), (2, 215)], 100, 3))


def test_expected_arrival_empty_window():
    w = ArrivalWindow(4)
    with pytest.raises(ValueError):
        w.expected_arrival(eta=100, next_seq=1)


def test_expected_arrival_wrong_next_seq():
    w = fill([(1, 100)])
    with pytest.raises(ValueError):
        w.expected_arrival(eta=100, next_seq=3)


@given(st.integers(min_value=-10**6, max_value=10**6),
       st.integers(min_value=1, max_value=30),
       st.integers(min_value=1, max_value=2000),
       st.integers(min_value=1, max_value=10**4),
       st.data())
@settings(max_examples=200)
def test_expected_arrival_rounds_ties_up(k, half, eta, first, data):
    # Window size m = 2*half with shifted sum m*k + half: the mean is
    # exactly k + 1/2 (k negative too), and the prediction rounds it up.
    m = 2 * half
    shifts = data.draw(st.lists(st.integers(min_value=-5000, max_value=5000),
                                min_size=m - 1, max_size=m - 1))
    shifts.append(m * k + half - sum(shifts))
    w = fill([(first + i, eta * (first + i) + d) for i, d in enumerate(shifts)],
             capacity=m)
    next_seq = first + m
    assert w.expected_arrival(eta, next_seq) == k + 1 + next_seq * eta


@st.composite
def windows(draw):
    eta = draw(st.integers(min_value=1, max_value=2000))
    size = draw(st.integers(min_value=1, max_value=60))
    first = draw(st.integers(min_value=1, max_value=10_000))
    seqs = sorted(
        draw(
            st.sets(
                st.integers(min_value=first, max_value=first + 100_000),
                min_size=size,
                max_size=size,
            )
        )
    )
    entries = [
        (seq, eta * seq + draw(st.integers(min_value=-50, max_value=5000)))
        for seq in seqs
    ]
    return eta, entries


@given(windows())
@settings(max_examples=200)
def test_matches_float_reevaluation(data):
    eta, entries = data
    w = fill(entries, capacity=len(entries))
    next_seq = entries[-1][0] + 1
    got = w.expected_arrival(eta, next_seq)
    want = eq1_float(entries, eta, next_seq)
    assert abs(got - want) <= 0.5 + 1e-9 * abs(want)


@given(windows(), st.integers(min_value=-10_000, max_value=10_000))
@settings(max_examples=200)
def test_shift_equivariance_is_exact(data, c):
    eta, entries = data
    next_seq = entries[-1][0] + 1
    base = fill(entries, capacity=len(entries)).expected_arrival(eta, next_seq)
    shifted = fill(
        [(s, a + c) for s, a in entries], capacity=len(entries)
    ).expected_arrival(eta, next_seq)
    assert shifted == base + c


@given(
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=1000),
)
def test_zero_delay_predicts_the_schedule(eta, size, first):
    w = ArrivalWindow(size)
    for seq in range(first, first + size):
        w.record(seq, eta * seq)
    next_seq = first + size
    assert w.expected_arrival(eta, next_seq) == next_seq * eta


def test_random_windows_against_oracle():
    rng = random.Random(20240817)
    for _ in range(500):
        eta = rng.randint(1, 1000)
        size = rng.randint(1, 200)
        seq = 0
        entries = []
        for _ in range(size):
            seq += rng.randint(1, 3)
            entries.append((seq, eta * seq + rng.randint(0, 400)))
        w = fill(entries, capacity=size)
        got = w.expected_arrival(eta, seq + 1)
        want = eq1_float(entries, eta, seq + 1)
        assert abs(got - want) <= 0.5 + 1e-9 * abs(want)
        assert got == math.floor(want + 0.5) or abs(got - want) < 0.5


@given(windows(), st.integers(min_value=1, max_value=30))
@settings(max_examples=100)
def test_eviction_matches_a_window_of_the_last_entries(data, capacity):
    # Record more pairs than the window holds; the survivors must predict
    # exactly what the last ``capacity`` pairs do, summed directly.
    eta, entries = data
    last = entries[-1][0]
    entries += [(last + k, eta * (last + k) + 7 * k) for k in range(1, capacity + 2)]
    kept = entries[-capacity:]
    w = fill(entries, capacity=capacity)
    assert pairs_of(w) == kept
    next_seq = entries[-1][0] + 1
    shifted_sum = sum(a - eta * s for s, a in kept)
    want = div_round_half_up(shifted_sum, capacity) + next_seq * eta
    assert w.expected_arrival(eta, next_seq) == want
    assert fill(kept, capacity=capacity).expected_arrival(eta, next_seq) == want
