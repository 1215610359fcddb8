import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfdl.estimator import ArrivalWindow
from nfdl.protocol import (
    Heartbeat,
    NfdeMonitor,
    NfdlProcess,
    ProtocolConfig,
    Verdict,
    naive_reduction_cost,
)
from nfdl.stable_store import (
    ClockRewindError,
    MemoryStore,
    StorageError,
    next_send_time,
)
from test_estimator import pairs_of

CFG = ProtocolConfig(eta=330, alpha=670, window_n=100)


def make_proc(self_id=0, now=0, store=None, config=CFG):
    return NfdlProcess(self_id, config, store or MemoryStore(), now)


def hb(seq, sender, uptime):
    return Heartbeat(seq=seq, sender=sender, uptime=uptime)


# -- the wire message --------------------------------------------------------


@pytest.mark.parametrize("seq", [0, -1])
def test_heartbeat_rejects_a_seq_below_one(seq):
    with pytest.raises(ValueError, match="seq"):
        Heartbeat(seq=seq, sender=0, uptime=0)


def test_heartbeat_rejects_a_negative_uptime():
    with pytest.raises(ValueError, match="uptime"):
        Heartbeat(seq=1, sender=0, uptime=-1)


def test_heartbeats_with_equal_fields_compare_equal():
    assert hb(3, 1, 7) == hb(3, 1, 7)
    assert hb(3, 1, 7) != hb(3, 1, 8)
    assert hb(3, 1, 7) != hb(4, 1, 7)
    assert hb(3, 1, 7) != hb(3, 2, 7)


# -- timing parameters -------------------------------------------------------


# Each case sits just past its bound: eta >= 1, alpha >= 0, window_n >= 1.
@pytest.mark.parametrize("fields, name", [
    pytest.param({"eta": 0, "alpha": 500}, "eta", id="eta-0"),
    pytest.param({"eta": 330, "alpha": -1}, "alpha", id="alpha-minus-1"),
    pytest.param({"eta": 330, "alpha": 670, "window_n": 0}, "window_n", id="window_n-0"),
])
def test_protocol_config_rejects_a_field_out_of_range(fields, name):
    with pytest.raises(ValueError, match=name):
        ProtocolConfig(**fields)


# -- initialization ----------------------------------------------------------


def test_fresh_init_persists_zerotime_once():
    store = MemoryStore()
    p = make_proc(self_id=1, now=5000, store=store)
    assert p.zerotime == 5000
    assert store.writes[1] == 1
    assert p.leader is None
    assert p.uptime == 0
    assert p.deadline == 5000 + 330 + 670
    assert next_send_time(p.zerotime, 5000, p.config.eta) == 5000 + 330  # label 1


def test_recovery_reads_zerotime_and_advances_label():
    store = MemoryStore()
    store.store_zerotime(1, 0)
    p = make_proc(self_id=1, now=3300, store=store)
    assert p.zerotime == 0
    assert store.writes[1] == 1  # no second write
    assert next_send_time(p.zerotime, 3300, p.config.eta) == 11 * 330


def test_recovery_with_zero_elapsed_time():
    store = MemoryStore()
    store.store_zerotime(1, 7000)
    p = make_proc(self_id=1, now=7000, store=store)
    assert next_send_time(p.zerotime, 7000, p.config.eta) == 7000 + 330  # label 1


def test_init_fails_when_store_unreadable():
    store = MemoryStore()
    store.corrupt(0)
    with pytest.raises(StorageError):
        make_proc(self_id=0, now=100, store=store)


def test_init_fails_on_clock_rewind():
    store = MemoryStore()
    store.store_zerotime(0, 9000)
    with pytest.raises(ClockRewindError):
        make_proc(self_id=0, now=8000, store=store)


# -- priority ----------------------------------------------------------------


def takes_over(incumbent, challenger):
    """Whether a follower of ``incumbent``, an (uptime, pid) priority,
    adopts the challenger's first heartbeat; None is no leader yet."""
    p = make_proc(self_id=0)
    if incumbent is not None:
        p.deliver(hb(1, incumbent[1], incumbent[0]), now=330)
    uptime, sender = challenger
    return p.deliver(hb(2, sender, uptime), now=400)[0]


def test_priority_higher_uptime_dominates():
    assert takes_over((3, 9), (5, 2))
    assert not takes_over((5, 2), (3, 9))


def test_priority_pid_breaks_uptime_ties():
    assert takes_over((4, 3), (4, 7))
    assert not takes_over((4, 7), (4, 3))


def test_priority_none_loses_to_everything():
    assert takes_over(None, (0, 1))


# -- receive handling --------------------------------------------------------


def test_first_heartbeat_is_adopted_before_any_election():
    p = make_proc(self_id=0, now=0)
    out = p.on_heartbeat(hb(1, 3, 0), now=340)
    assert out.changed and out.leader == 3
    assert p.leader == 3
    assert p.deadline == 340 + 330 + 670  # re-armed from the adopting arrival


def test_lower_uptime_does_not_displace_known_leader():
    p = make_proc(self_id=0, now=0)
    p.on_heartbeat(hb(1, 7, 10), now=340)
    out = p.on_heartbeat(hb(5, 2, 3), now=400)
    assert not out.changed
    assert p.leader == 7


def test_equal_uptime_higher_pid_wins():
    p = make_proc(self_id=0, now=0)
    p.on_heartbeat(hb(1, 7, 4), now=340)
    out = p.on_heartbeat(hb(2, 9, 4), now=400)
    assert out.changed and p.leader == 9


def test_stale_leader_heartbeat_leaves_deadline_alone():
    p = make_proc(self_id=0, now=0)
    p.on_heartbeat(hb(5, 7, 1), now=340)
    deadline = p.deadline
    out = p.on_heartbeat(hb(4, 7, 1), now=500)
    assert not out.changed
    assert p.deadline == deadline
    assert p.window.last_seq == 5


def test_fresh_leader_heartbeat_advances_deadline_and_uptime_cache():
    p = make_proc(self_id=0, now=0)
    p.on_heartbeat(hb(5, 7, 1), now=1650 + 5)
    p.on_heartbeat(hb(6, 7, 2), now=1980 + 5)
    assert p.window.last_seq == 6
    assert p.incumbent == (2, 7)
    # window holds both arrivals, prediction is schedule plus mean delay
    assert p.deadline == 7 * 330 + 5 + 670


def test_adoption_resets_the_arrival_window():
    p = make_proc(self_id=0, now=0)
    for seq in range(1, 6):
        p.on_heartbeat(hb(seq, 7, 1), now=330 * seq + 5)
    assert len(p.window) == 5
    p.on_heartbeat(hb(50, 9, 99), now=2000)
    assert len(p.window) == 1
    assert p.leader == 9
    assert p.deadline == 2000 + 330 + 670


def test_own_heartbeat_is_ignored():
    p = make_proc(self_id=0, now=0)
    out = p.on_heartbeat(hb(1, 0, 5), now=330)
    assert not out.changed and p.leader is None


# -- timer handling ----------------------------------------------------------


def test_deadline_expiry_elects_self():
    p = make_proc(self_id=4, now=0)
    p.on_heartbeat(hb(1, 7, 1), now=330)  # deadline 1330
    assert p.on_timer_fire(now=1330)
    assert p.leader == 4 and p.deadline is None


def test_stale_timer_is_a_no_op():
    p = make_proc(self_id=4, now=0)
    p.on_heartbeat(hb(1, 7, 1), now=330)   # deadline 1330
    p.on_heartbeat(hb(2, 7, 1), now=660)   # deadline advanced
    assert not p.on_timer_fire(now=1330 - 330)
    assert p.leader == 7


def test_silent_system_triggers_self_election_after_grace():
    p = make_proc(self_id=2, now=1000)
    assert p.on_timer_fire(now=1000 + 330 + 670)
    assert p.leader == 2


def test_timer_after_election_reports_unchanged():
    p = make_proc(self_id=2, now=0)
    p.on_timer_fire(now=1000)
    assert not p.on_timer_fire(now=2000)
    assert p.leader == 2


# -- sending -----------------------------------------------------------------


def test_leader_emits_schedule_labels_and_counts_uptime():
    p = make_proc(self_id=2, now=0)
    p.on_timer_fire(now=1000)
    beat = p.next_heartbeat(now=990 + 330)  # first grid instant after 1000
    assert beat == Heartbeat(seq=4, sender=2, uptime=0)
    assert p.uptime == 1
    beat = p.next_heartbeat(now=1650)
    assert beat.seq == 5 and beat.uptime == 1


def test_non_leader_is_silent():
    p = make_proc(self_id=0, now=0)
    p.on_heartbeat(hb(1, 7, 1), now=330)
    assert p.next_heartbeat(now=660) is None


def test_pre_election_process_is_silent():
    p = make_proc(self_id=0, now=0)
    assert p.next_heartbeat(now=330) is None


def test_label_schedule_oracle():
    store = MemoryStore()
    store.store_zerotime(2, 0)
    p = make_proc(self_id=2, now=0, store=store)
    p.on_timer_fire(now=1000)
    assert p.next_heartbeat(now=990).seq == 990 // 330


# -- naive reduction cost ----------------------------------------------------


def test_naive_cost_examples():
    assert naive_reduction_cost(5) == 20
    assert naive_reduction_cost(2) == 2
    assert naive_reduction_cost(10) == 90


def test_naive_cost_rejects_singletons():
    with pytest.raises(ValueError):
        naive_reduction_cost(1)


# -- two-valued monitor ------------------------------------------------------


def test_monitor_trusts_fresh_message_before_its_deadline():
    m = NfdeMonitor(CFG)
    assert m.verdict is Verdict.SUSPECT
    assert m.on_heartbeat(1, now=335) is Verdict.TRUST


def test_monitor_suspects_on_expiry():
    m = NfdeMonitor(CFG)
    m.on_heartbeat(1, now=335)
    assert m.on_timeout(m.deadline) is Verdict.SUSPECT
    assert m.deadline is None


def test_monitor_ignores_duplicates():
    m = NfdeMonitor(CFG)
    m.on_heartbeat(2, now=665)
    deadline = m.deadline
    assert m.on_heartbeat(2, now=700) is Verdict.TRUST
    assert m.deadline == deadline


def test_monitor_timeout_before_deadline_changes_nothing():
    m = NfdeMonitor(CFG)
    m.on_heartbeat(1, now=335)
    assert m.on_timeout(m.deadline - 1) is Verdict.TRUST


def test_election_monitor_matches_the_pair_monitor():
    # With a single never-failing sender, the election's monitor-side
    # freshness deadlines equal the two-valued baseline's on any trace.
    rng = random.Random(7)
    for _ in range(50):
        proc = make_proc(self_id=1, now=0)
        mon = NfdeMonitor(CFG)
        seq = 0
        for _ in range(rng.randint(1, 120)):
            seq += rng.choice([1, 1, 1, 2, 3])  # occasional losses
            arrival = 330 * seq + rng.randint(0, 25)
            proc.on_heartbeat(hb(seq, 0, 1), now=arrival)
            mon.on_heartbeat(seq, now=arrival)
            assert proc.deadline == mon.deadline


def freshness_point(expected_arrival: int, alpha: int) -> int:
    """Deadline by which the next heartbeat must arrive: prediction + margin."""
    return expected_arrival + alpha


@given(st.integers(min_value=1, max_value=1000), st.integers(min_value=0, max_value=1000),
       st.integers(min_value=1, max_value=6),
       st.lists(st.tuples(st.integers(min_value=1, max_value=4),
                          st.integers(min_value=-1500, max_value=3000), st.booleans()),
                min_size=1, max_size=40))
@settings(max_examples=300)
def test_monitor_deadline_is_the_freshness_point_of_a_reference_window(
        eta, alpha, window_n, steps):
    # The monitor makes one window call per fresh heartbeat; a reference
    # window filled through record() and asked through expected_arrival()
    # must predict the same deadline, and trust follows from it.  Expiries
    # between heartbeats bring the monitor back to suspecting.
    mon = NfdeMonitor(ProtocolConfig(eta=eta, alpha=alpha, window_n=window_n))
    ref, seq, verdict = ArrivalWindow(window_n), 0, Verdict.SUSPECT
    for gap, jitter, expire in steps:
        if expire and mon.deadline is not None:
            assert mon.on_timeout(mon.deadline) is Verdict.SUSPECT
            verdict = Verdict.SUSPECT
        seq += gap
        now = seq * eta + jitter
        got = mon.on_heartbeat(seq, now)
        ref.record(seq, now)
        deadline = freshness_point(ref.expected_arrival(eta, seq + 1), alpha)
        if now < deadline:
            verdict = Verdict.TRUST
        assert (mon.deadline, got, mon.verdict) == (deadline, verdict, verdict)
        assert pairs_of(mon.window) == pairs_of(ref)


# -- properties --------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=10**6),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=100),  # uptime below incumbent's
            st.integers(min_value=0, max_value=50),
        ),
        max_size=30,
    ),
)
@settings(max_examples=150)
def test_established_leader_is_never_displaced_by_lower_uptime(incumbent_uptime, beats):
    p = make_proc(self_id=0, now=0)
    p.on_heartbeat(hb(10, 7, incumbent_uptime + 101), now=330)
    seq = 100
    for uptime, pid_offset in beats:
        seq += 1
        out = p.on_heartbeat(hb(seq, 8 + pid_offset, uptime), now=330 + seq)
        assert not out.changed
        assert p.leader == 7


@given(st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=20))
@settings(max_examples=100)
def test_labels_strictly_increase_across_crash_recover_cycles(gaps):
    # One process crashes and recovers repeatedly; whenever it leads, the
    # labels it emits keep increasing over its whole lifetime.
    store = MemoryStore()
    cfg = ProtocolConfig(eta=330, alpha=670)
    now = 0
    labels = []
    for gap in gaps:
        p = NfdlProcess(0, cfg, store, now)
        p.on_timer_fire(now + cfg.eta + cfg.alpha)  # alone, so it self-elects
        send_at = next_send_time(p.zerotime, now + cfg.eta + cfg.alpha, p.config.eta)
        for _ in range(3):
            beat = p.next_heartbeat(send_at)
            assert beat is not None
            labels.append(beat.seq)
            send_at += cfg.eta
        now = send_at + gap  # crash here, recover after the gap
    assert labels == sorted(set(labels))
    assert all(b > a for a, b in zip(labels, labels[1:]))


# -- reference transitions ---------------------------------------------------


def reference_deadline(pairs, eta, alpha):
    """Freshness point after the window ``pairs``, from the estimator's rule:
    the exact mean of (arrival - eta*seq) rounded half-up, plus the next
    seq's send instant, plus alpha."""
    mean = Fraction(sum(a - eta * s for s, a in pairs), len(pairs))
    return math.floor(mean + Fraction(1, 2)) + (pairs[-1][0] + 1) * eta + alpha


class ReferenceMonitor:
    """NfdeMonitor's rules restated: suspect until heard; a fresh seq enters
    the window, re-arms the deadline and restores trust iff it arrived
    strictly before that deadline; expiry of the deadline suspects."""

    def __init__(self, config):
        self.config = config
        self.pairs, self.deadline, self.verdict = [], None, Verdict.SUSPECT

    def on_heartbeat(self, seq, now):
        if not self.pairs or seq > self.pairs[-1][0]:
            self.pairs = (self.pairs + [(seq, now)])[-self.config.window_n:]
            self.deadline = reference_deadline(self.pairs, self.config.eta,
                                               self.config.alpha)
            if now < self.deadline:
                self.verdict = Verdict.TRUST
        return self.verdict

    def on_timeout(self, now):
        if self.deadline is not None and now >= self.deadline:
            self.verdict, self.deadline = Verdict.SUSPECT, None
        return self.verdict


class ReferenceProcess:
    """NfdlProcess's rules restated from its docstrings."""

    def __init__(self, self_id, config, now):
        self.self_id, self.config = self_id, config
        self.leader = self.leader_uptime = self.monitor = None
        self.uptime, self.last_sent_uptime = 0, None
        self.deadline = now + config.eta + config.alpha

    def priority(self):
        if self.leader is None:
            return None
        if self.leader == self.self_id:
            sent = self.last_sent_uptime
            return (self.uptime if sent is None else sent, self.self_id)
        return (self.leader_uptime, self.leader)

    def on_heartbeat(self, seq, sender, uptime, now):
        if sender == self.self_id:
            return self.leader, False
        adopted = sender != self.leader
        if adopted:
            incumbent = self.priority()
            if incumbent is not None and (uptime, sender) <= incumbent:
                return self.leader, False
            self.leader, self.monitor = sender, ReferenceMonitor(self.config)
        elif seq <= self.monitor.pairs[-1][0]:
            return self.leader, False
        self.monitor.on_heartbeat(seq, now)
        self.leader_uptime, self.deadline = uptime, self.monitor.deadline
        return self.leader, adopted

    def on_timer_fire(self, now):
        if self.deadline is None or now < self.deadline:
            return self.leader, False
        changed = self.leader != self.self_id
        self.leader, self.leader_uptime = self.self_id, None
        self.monitor = self.deadline = None
        return self.leader, changed

    def next_heartbeat(self, now):
        if self.leader != self.self_id:
            return None
        sent = (now // self.config.eta, self.self_id, self.uptime)
        self.last_sent_uptime, self.uptime = self.uptime, self.uptime + 1
        return sent


# An instant: any ms in a short span, or one ms either side of (or at) the
# process's current deadline, so expiries and late arrivals land exactly.
INSTANTS = st.one_of(st.integers(min_value=0, max_value=600),
                     st.tuples(st.just("deadline"), st.integers(min_value=-1, max_value=1)))
STEPS = st.one_of(
    # senders include self (0); small seqs repeat and go stale; uptimes tie
    st.tuples(st.just("heartbeat"), st.integers(min_value=1, max_value=12),
              st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
              INSTANTS),
    st.tuples(st.just("timer"), INSTANTS),
    st.tuples(st.just("send"), st.integers(min_value=0, max_value=600)),
)


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=60),
       st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=1_000),
       st.lists(STEPS, max_size=60))
@settings(max_examples=300)
# A heartbeat that lands exactly on its own freshness point (2660) is late.
@example(eta=330, alpha=670, window_n=2, start=0, steps=[
    ("heartbeat", 1, 1, 0, 330), ("timer", 1330), ("heartbeat", 2, 1, 0, 2660)])
def test_transitions_match_the_reference_rules(eta, alpha, window_n, start, steps):
    config = ProtocolConfig(eta=eta, alpha=alpha, window_n=window_n)
    proc, ref = NfdlProcess(0, config, MemoryStore(), start), ReferenceProcess(0, config, start)
    mon, ref_mon = NfdeMonitor(config), ReferenceMonitor(config)

    def instant(at):
        if isinstance(at, int):
            return at
        return (start if ref.deadline is None else ref.deadline) + at[1]

    for step in steps:
        if step[0] == "heartbeat":
            _, seq, sender, uptime, at = step
            now = instant(at)
            before = ref.deadline
            changed, key, deadline = proc.deliver(hb(seq, sender, uptime), now)
            assert (proc.leader, changed) == ref.on_heartbeat(seq, sender, uptime, now)
            # The simulator arms its timer from the deadline handed back.
            moved = ref.deadline != before
            assert (key, deadline) == ((0, ref.deadline) if moved else (None, None))
            assert mon.on_heartbeat(seq, now) is ref_mon.on_heartbeat(seq, now)
        elif step[0] == "timer":
            now = instant(step[1])
            changed = proc.on_timer_fire(now, 0)
            assert (proc.leader, changed) == ref.on_timer_fire(now)
            assert mon.on_timeout(now) is ref_mon.on_timeout(now)
        else:
            # any instant from the first send label on
            now = start + eta + step[1]
            sent = proc.next_heartbeat(now)
            want = ref.next_heartbeat(now - start)
            assert (None if sent is None else (sent.seq, sent.sender, sent.uptime)) == want
        # The kept priority is the one the reference rebuilds every time.
        assert (proc.leader, proc.incumbent, proc.deadline) == (
            ref.leader, ref.priority(), ref.deadline)
        pairs = None if proc.window is None else pairs_of(proc.window)
        assert pairs == (None if ref.monitor is None else ref.monitor.pairs)
        assert (mon.verdict, mon.deadline, pairs_of(mon.window)) == (
            ref_mon.verdict, ref_mon.deadline, ref_mon.pairs)
