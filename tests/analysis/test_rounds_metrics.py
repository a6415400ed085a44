"""Unit tests distinguishing the two rounds-after-stabilization metrics."""

from repro.analysis import round_at, rounds_after, rounds_after_system
from repro.sim import Trace


def staggered_trace():
    """Two processes at different rounds when t=100 passes; decision in
    round 12."""
    trace = Trace()
    # p0 enters rounds 1..10 before t=100, p1 lags at round 8.
    for r in range(1, 11):
        trace.record(r * 9.0, "round", 0, algo="x", round=r)
    for r in range(1, 9):
        trace.record(r * 11.0, "round", 1, algo="x", round=r)
    for pid in (0, 1):
        trace.record(110.0, "round", pid, algo="x", round=11)
        trace.record(120.0, "round", pid, algo="x", round=12)
        trace.record(130.0, "decide", pid, algo="x", value="v", round=12)
    return trace


class TestRoundMetrics:
    def test_round_at(self):
        trace = staggered_trace()
        assert round_at(trace, 0, 100.0, "x") == 10
        assert round_at(trace, 1, 100.0, "x") == 8
        assert round_at(trace, 0, 0.0, "x") == 0

    def test_rounds_after_per_process(self):
        trace = staggered_trace()
        extra = rounds_after(trace, 100.0, "x")
        # Per-process accounting: p0 was at 10 (needs 3 incl. its own),
        # p1 at 8 (needs 5).
        assert extra == {0: 3, 1: 5}

    def test_rounds_after_system_uses_frontier(self):
        trace = staggered_trace()
        # System frontier at t=100 is round 10 (p0); decision round 12:
        # two fresh rounds were started after stabilization.
        assert rounds_after_system(trace, 100.0, "x") == 2

    def test_round_entered_at_time_is_fresh(self):
        # Proposing exactly when the detector stabilizes starts round 1 at
        # that instant: it is the first fresh round, not one in flight.
        trace = Trace()
        for pid in (0, 1):
            trace.record(300.0, "round", pid, algo="x", round=1)
            trace.record(301.0, "decide", pid, algo="x", value="v", round=1)
        assert rounds_after_system(trace, 300.0, "x") == 1

    def test_rounds_after_system_none_without_decision(self):
        trace = Trace()
        trace.record(1.0, "round", 0, algo="x", round=1)
        assert rounds_after_system(trace, 0.5, "x") is None

    def test_rounds_after_none_round_decision(self):
        trace = Trace()
        trace.record(1.0, "decide", 0, algo="x", value="v", round=None)
        assert rounds_after(trace, 0.0, "x") == {0: None}
