"""QoS math on hand-built traces with known answers.

Each fixture constructs a tiny trace by hand — fd output flips, crash
markers, send events — so every number the analyzer reports (T_D, mistake
intervals, λ_M, T_M, leader stabilization, msgs/period) has a value you
can check on paper.
"""

import pytest

from repro.analysis import Mistake, qos_report, transformation_bound
from repro.obs import MemorySink


def _base(n=3):
    """All *n* processes boot trusting p0 and suspecting nobody."""
    sink = MemorySink()
    for pid in range(n):
        sink.record(0.0, "fd", pid, channel="fd",
                    suspected=frozenset(), trusted=0)
    return sink


def test_transformation_bound_formula():
    assert [transformation_bound(n) for n in (2, 3, 5)] == [2, 4, 8]


def test_detection_time_is_worst_over_observers():
    sink = _base()
    sink.record(10.0, "crash", 0)
    sink.record(13.0, "fd", 1, channel="fd",
                suspected=frozenset({0}), trusted=1)
    sink.record(14.0, "fd", 2, channel="fd",
                suspected=frozenset({0}), trusted=1)
    report = qos_report(sink)
    assert report.n == 3
    assert report.correct == frozenset({1, 2})
    assert report.crashes == {0: 10.0}
    assert report.detection == {0: pytest.approx(4.0)}  # p2 converges last
    assert report.max_detection == pytest.approx(4.0)
    assert report.mistakes == []


def test_post_crash_suspicion_is_not_a_mistake_but_early_one_is():
    sink = _base()
    # p1 suspects p2 while p2 is alive (a mistake), retracts 3 units later.
    sink.record(5.0, "fd", 1, channel="fd",
                suspected=frozenset({2}), trusted=0)
    sink.record(8.0, "fd", 1, channel="fd",
                suspected=frozenset(), trusted=0)
    sink.record(20.0, "crash", 2)
    # Suspecting p2 *after* its crash is correct, not a mistake.
    sink.record(22.0, "fd", 0, channel="fd",
                suspected=frozenset({2}), trusted=0)
    sink.record(22.0, "fd", 1, channel="fd",
                suspected=frozenset({2}), trusted=0)
    report = qos_report(sink)
    assert report.mistakes == [Mistake(1, 2, 5.0, 8.0)]
    assert report.mistakes[0].duration == pytest.approx(3.0)
    assert report.mean_mistake_duration == pytest.approx(3.0)
    assert report.mistake_rate == pytest.approx(1 / 22.0)
    assert report.unresolved_mistakes == 0


def test_premature_suspicion_of_a_later_crasher_ends_at_the_crash():
    sink = _base()
    sink.record(5.0, "fd", 1, channel="fd",
                suspected=frozenset({0}), trusted=1)
    sink.record(9.0, "crash", 0)
    sink.record(12.0, "fd", 2, channel="fd",
                suspected=frozenset({0}), trusted=1)
    report = qos_report(sink)
    # p1's suspicion opened while p0 was alive, became true at the crash.
    assert report.mistakes == [Mistake(1, 0, 5.0, 9.0)]
    # p1 suspected p0 from t=5 permanently, p2 from t=12: T_D = 12 - 9.
    assert report.detection == {0: pytest.approx(3.0)}


def test_never_retracted_mistake_is_unresolved():
    sink = _base()
    sink.record(5.0, "fd", 1, channel="fd",
                suspected=frozenset({2}), trusted=0)
    sink.record(30.0, "fd", 0, channel="fd",
                suspected=frozenset(), trusted=0)
    report = qos_report(sink)
    assert report.mistakes == [Mistake(1, 2, 5.0, None)]
    assert report.mistakes[0].duration is None
    assert report.unresolved_mistakes == 1
    assert report.mean_mistake_duration is None


def test_leader_stabilization_is_the_last_flip_to_the_final_leader():
    sink = _base()
    sink.record(10.0, "crash", 0)
    sink.record(13.0, "fd", 1, channel="fd",
                suspected=frozenset({0}), trusted=1)
    sink.record(14.0, "fd", 2, channel="fd",
                suspected=frozenset({0}), trusted=1)
    report = qos_report(sink)
    assert report.stable_leader == 1
    assert report.leader_stabilized_at == pytest.approx(14.0)


def test_no_stabilization_when_final_leaders_disagree():
    sink = _base()
    sink.record(10.0, "crash", 0)
    sink.record(13.0, "fd", 1, channel="fd",
                suspected=frozenset({0}), trusted=1)
    sink.record(14.0, "fd", 2, channel="fd",
                suspected=frozenset({0}), trusted=2)
    report = qos_report(sink)
    assert report.stable_leader is None
    assert report.leader_stabilized_at is None


def _with_cost(sends_per_period: int, period: float = 5.0,
               channel=lambda i: "fdp"):
    """Clean detection at t=14, then *sends_per_period* sends/period (the
    i-th on ``channel(i)``) over the measurement window [19, 49]."""
    sink = _base()
    sink.record(10.0, "crash", 0)
    sink.record(13.0, "fd", 1, channel="fd",
                suspected=frozenset({0}), trusted=1)
    sink.record(14.0, "fd", 2, channel="fd",
                suspected=frozenset({0}), trusted=1)
    # Window starts at max(stabilization, crash + T_D) + period = 19.
    start, end = 19.0, 49.0
    periods = (end - start) / period
    total = int(sends_per_period * periods)
    for i in range(total):
        t = start + (i + 0.5) * (end - start) / total
        sink.record(t, "send", 1, channel=channel(i), src=1, dst=2, tag="list")
    sink.record(end, "fd", 1, channel="fd",
                suspected=frozenset({0}), trusted=1)
    return qos_report(sink, period=period)


def test_message_cost_respects_the_bound():
    report = _with_cost(sends_per_period=4)  # exactly 2(n-1)
    assert report.cost_window == (pytest.approx(19.0), pytest.approx(49.0))
    assert report.message_cost["fdp"] == pytest.approx(4.0)
    assert report.bound_value == 4.0
    assert report.bound_ok is True


def test_message_cost_flags_a_bound_violation():
    report = _with_cost(sends_per_period=8)  # double the paper's cost
    assert report.message_cost["fdp"] == pytest.approx(8.0)
    assert report.bound_ok is False
    assert "VIOLATED" in report.format()


def test_message_cost_has_one_row_per_slot_channel_family():
    report = _with_cost(
        sends_per_period=4,
        channel=lambda i: f"rsm.c{i // 2}" + (".rb" if i % 2 else ""),
    )
    assert report.message_cost == {
        "rsm.c*": pytest.approx(2.0), "rsm.c*.rb": pytest.approx(2.0)}


def test_cost_skipped_without_a_period_and_without_a_stable_suffix():
    no_period = _base()
    no_period.record(10.0, "crash", 0)
    report = qos_report(no_period)
    assert report.period is None and report.cost_window is None
    # A run ending right after detection has no measurable window.
    short = _base()
    short.record(10.0, "crash", 0)
    short.record(13.0, "fd", 1, channel="fd",
                 suspected=frozenset({0}), trusted=1)
    short.record(14.0, "fd", 2, channel="fd",
                 suspected=frozenset({0}), trusted=1)
    report = qos_report(short, period=5.0)
    assert report.cost_window is None
    assert report.bound_ok is None


def test_format_renders_the_headline_numbers():
    report = _with_cost(sends_per_period=4)
    text = report.format()
    assert "detection time T_D   : p0: 4.000" in text
    assert "leader stabilization : t=14.000 (leader p1)" in text
    assert "fdp" in text and "4.00 msgs/period" in text
    assert "[2(n-1) bound = 4: OK]" in text
