"""Unit tests for the FD property checkers on hand-built traces."""

import pytest

from repro.analysis import build_histories, check_fd_class, require_fd_class
from repro.analysis.qos import fold_detector
from repro.errors import PropertyViolation
from repro.fd import (
    EVENTUALLY_CONSISTENT,
    EVENTUALLY_PERFECT,
    EVENTUALLY_WEAK,
    OMEGA,
)
from repro.sim import Trace

S = frozenset


def hist(*records):
    """A single-process history from (time, suspected, trusted)."""
    return [(t, S(susp), trusted) for t, susp, trusted in records]


CORRECT = S({0, 1})
END = 100.0

#: property name -> (a class requiring it, its key in check_fd_class).
PROPERTY = {
    "strong-completeness": (EVENTUALLY_PERFECT, "completeness"),
    "weak-completeness": (EVENTUALLY_WEAK, "completeness"),
    "eventual-strong-accuracy": (EVENTUALLY_PERFECT, "accuracy"),
    "eventual-weak-accuracy": (EVENTUALLY_WEAK, "accuracy"),
    "omega": (OMEGA, "omega"),
    "trusted-not-suspected": (EVENTUALLY_CONSISTENT, "trusted-not-suspected"),
}


def judge(name, histories, crashed=None):
    """Check property *name* on the trace of *histories* (pid -> records)
    and *crashed* (pid -> crash time), over ``CORRECT`` up to ``END``."""
    events = [(t, "crash", pid, {}) for pid, t in (crashed or {}).items()]
    for pid, records in histories.items():
        events += [
            (t, "fd", pid, {"channel": "fd", "suspected": susp,
                            "trusted": trusted})
            for t, susp, trusted in records
        ]
    trace = Trace()
    for t, kind, pid, data in sorted(events, key=lambda e: e[0]):
        trace.record(t, kind, pid, **data)
    fd_class, key = PROPERTY[name]
    result = check_fd_class(trace, fd_class, CORRECT, end_time=END)[key]
    assert result.name == name and result.end_time == END
    return result


class TestStrongCompleteness:
    def test_satisfied(self):
        histories = {
            0: hist((0, [], None), (15, [2], None)),
            1: hist((0, [], None), (12, [2], None)),
        }
        result = judge("strong-completeness", histories, {2: 10.0})
        assert result.ok
        assert result.stabilized_at == 15.0

    def test_vacuous_without_crashes(self):
        assert judge("strong-completeness", {}, {}).ok

    def test_violated_when_one_process_never_suspects(self):
        histories = {
            0: hist((0, [], None), (15, [2], None)),
            1: hist((0, [], None)),  # never suspects 2
        }
        result = judge("strong-completeness", histories, {2: 10.0})
        assert not result.ok

    def test_late_stabilization_fails_margin(self):
        histories = {
            0: hist((0, [], None), (95, [2], None)),
            1: hist((0, [], None), (95, [2], None)),
        }
        result = judge("strong-completeness", histories, {2: 10.0})
        assert not result.ok  # 95 > 100 * 0.9

    def test_unsuspecting_blip_moves_stabilization(self):
        histories = {
            0: hist((0, [], None), (15, [2], None), (40, [], None),
                    (50, [2], None)),
            1: hist((0, [2], None)),
        }
        result = judge("strong-completeness", histories, {2: 10.0})
        assert result.ok
        assert result.stabilized_at == 50.0


class TestWeakCompleteness:
    def test_single_witness_suffices(self):
        histories = {
            0: hist((0, [], None), (15, [2], None)),
            1: hist((0, [], None)),  # never suspects — fine for weak
        }
        result = judge("weak-completeness", histories, {2: 10.0})
        assert result.ok
        assert result.witness == 0

    def test_violated_when_nobody_suspects(self):
        histories = {0: hist((0, [], None)), 1: hist((0, [], None))}
        result = judge("weak-completeness", histories, {2: 10.0})
        assert not result.ok


class TestAccuracy:
    def test_strong_accuracy_ok(self):
        histories = {
            0: hist((0, [1], None), (20, [], None)),
            1: hist((0, [], None)),
        }
        result = judge("eventual-strong-accuracy", histories)
        assert result.ok
        assert result.stabilized_at == 20.0

    def test_strong_accuracy_violated_by_permanent_false_suspicion(self):
        histories = {
            0: hist((0, [1], None), (90, [1], None)),
            1: hist((0, [], None)),
        }
        result = judge("eventual-strong-accuracy", histories)
        assert not result.ok

    def test_weak_accuracy_needs_only_one_clean_process(self):
        histories = {
            0: hist((0, [1], None), (90, [1], None)),  # 1 suspected forever
            1: hist((0, [], None)),
        }
        # 0 is never suspected by anyone: weak accuracy holds with witness 0.
        result = judge("eventual-weak-accuracy", histories)
        assert result.ok
        assert result.witness == 0

    def test_weak_accuracy_violated_when_everyone_suspected(self):
        histories = {
            0: hist((90, [1], None)),
            1: hist((90, [0], None)),
        }
        result = judge("eventual-weak-accuracy", histories)
        assert not result.ok


class TestOmegaAndConsistency:
    def test_omega_ok(self):
        histories = {
            0: hist((0, [], 1), (10, [], 0)),
            1: hist((0, [], 0)),
        }
        result = judge("omega", histories)
        assert result.ok
        assert result.witness == 0
        assert result.stabilized_at == 10.0

    def test_omega_violated_by_disagreement(self):
        histories = {
            0: hist((95, [], 0)),
            1: hist((95, [], 1)),
        }
        assert not judge("omega", histories).ok

    def test_omega_requires_correct_leader(self):
        # Both trust 2 forever, but 2 is not in the correct set.
        histories = {
            0: hist((0, [], 2)),
            1: hist((0, [], 2)),
        }
        assert not judge("omega", histories).ok

    def test_trusted_not_suspected(self):
        histories = {
            0: hist((0, [1], 1), (30, [], 1)),
            1: hist((0, [], 1)),
        }
        result = judge("trusted-not-suspected", histories)
        assert result.ok
        assert result.stabilized_at == 30.0

    def test_trusted_suspected_forever_fails(self):
        histories = {
            0: hist((95, [1], 1)),
            1: hist((0, [], 1)),
        }
        assert not judge("trusted-not-suspected", histories).ok


class TestTraceIntegration:
    def make_trace(self):
        trace = Trace()
        trace.record(5.0, "crash", 2)
        for pid in (0, 1):
            trace.record(0.0, "fd", pid, channel="fd",
                         suspected=S(()), trusted=None)
            trace.record(10.0, "fd", pid, channel="fd",
                         suspected=S({2}), trusted=None)
        trace.record(99.0, "heartbeat", 0)  # push end_time out
        return trace

    def test_build_histories_filters_channel(self):
        trace = self.make_trace()
        trace.record(1.0, "fd", 0, channel="other",
                     suspected=S({1}), trusted=None)
        histories = build_histories(trace, channel="fd")
        assert all(S({1}) != susp for _, susp, _ in histories[0])

    def test_crash_times(self):
        assert fold_detector(self.make_trace()).crashes == {2: 5.0}

    def test_check_fd_class_dp(self):
        results = check_fd_class(
            self.make_trace(), EVENTUALLY_PERFECT, CORRECT
        )
        assert set(results) == {"completeness", "accuracy"}
        assert all(results.values())

    def test_require_fd_class_raises_on_violation(self):
        trace = Trace()
        trace.record(5.0, "crash", 2)
        for pid in (0, 1):
            trace.record(0.0, "fd", pid, channel="fd",
                         suspected=S(()), trusted=None)
        trace.record(99.0, "x", 0)
        with pytest.raises(PropertyViolation):
            require_fd_class(trace, EVENTUALLY_PERFECT, CORRECT)
