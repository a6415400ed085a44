"""Unit tests for consensus property checkers, metrics, and stats helpers."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    Summary,
    channel_message_count,
    check_consensus,
    extract_outcome,
    geometric_mean,
    max_phases_per_round,
    mean_messages_per_round,
    messages_per_round,
    phases_per_round,
    require_consensus,
    round_at,
    rounds_after,
    summarize,
)
from repro.errors import PropertyViolation
from repro.sim import Trace

S = frozenset


def consensus_trace():
    trace = Trace()
    for pid in range(3):
        trace.record(0.0, "propose", pid, algo="x", value=pid)
    for pid in range(3):
        trace.record(1.0, "round", pid, algo="x", round=1)
        trace.record(1.5, "phase", pid, algo="x", round=1, phase=0)
        trace.record(2.0, "phase", pid, algo="x", round=1, phase=1)
    trace.record(3.0, "phase", 0, algo="x", round=1, phase=2)
    for pid in range(3):
        trace.record(9.0, "decide", pid, algo="x", value=1, round=1)
    return trace


class TestConsensusProperties:
    def test_all_properties_hold(self):
        outcome = extract_outcome(consensus_trace(), "x")
        results = check_consensus(outcome, S({0, 1, 2}))
        assert all(results.values())

    def test_algo_autodetected(self):
        outcome = extract_outcome(consensus_trace())
        assert outcome.algo == "x"
        assert len(outcome.decisions) == 3

    def test_termination_violated(self):
        trace = consensus_trace()
        outcome = extract_outcome(trace, "x")
        del outcome.decisions[2]
        results = check_consensus(outcome, S({0, 1, 2}))
        assert not results["termination"]

    def test_agreement_violated(self):
        outcome = extract_outcome(consensus_trace(), "x")
        outcome.decisions[1] = 999
        assert not check_consensus(outcome, S({0, 1, 2}))["uniform-agreement"]

    def test_uniform_agreement_counts_faulty_processes(self):
        # A crashed process decided differently: uniform agreement broken
        # even though it is not in the correct set.
        outcome = extract_outcome(consensus_trace(), "x")
        outcome.decisions[2] = 999
        assert not check_consensus(outcome, S({0, 1}))["uniform-agreement"]

    def test_validity_violated(self):
        outcome = extract_outcome(consensus_trace(), "x")
        for pid in outcome.decisions:
            outcome.decisions[pid] = "not-proposed"
        assert not check_consensus(outcome, S({0, 1, 2}))["validity"]

    def test_integrity_violated_by_double_decide(self):
        trace = consensus_trace()
        trace.record(10.0, "decide", 0, algo="x", value=1, round=2)
        outcome = extract_outcome(trace, "x")
        assert not check_consensus(outcome, S({0, 1, 2}))["uniform-integrity"]

    def test_require_raises(self):
        outcome = extract_outcome(consensus_trace(), "x")
        outcome.decisions[1] = 999
        with pytest.raises(PropertyViolation):
            require_consensus(outcome, S({0, 1, 2}))

    def test_unhashable_values_supported(self):
        trace = Trace()
        trace.record(0.0, "propose", 0, algo="x", value={"k": 1})
        trace.record(1.0, "decide", 0, algo="x", value={"k": 1}, round=1)
        outcome = extract_outcome(trace, "x")
        assert check_consensus(outcome, S({0}))["uniform-agreement"]
        assert check_consensus(outcome, S({0}))["validity"]


class TestMetrics:
    def make_trace(self):
        trace = Trace()
        for i in range(6):
            trace.record(float(i), "send", 0, channel="consensus",
                         loopback=(i == 0), round=1 + i // 4, tag="est")
        trace.record(10.0, "send", 0, channel="rb", loopback=False)
        trace.record(11.0, "send", 0, channel="consensus", loopback=False)
        return trace

    def test_channel_message_count(self):
        trace = self.make_trace()
        assert channel_message_count(trace, "consensus") == 6
        assert channel_message_count(trace, "consensus",
                                     include_loopback=True) == 7
        assert channel_message_count(trace, "rb") == 1
        assert channel_message_count(trace, "consensus", after=3.0,
                                     before=6.0) == 3

    def test_messages_per_round_excludes_loopback_and_unrounded(self):
        per_round = messages_per_round(self.make_trace())
        assert per_round == {1: 3, 2: 2}

    def test_mean_messages_per_round(self):
        assert mean_messages_per_round(self.make_trace()) == 2.5

    def test_phase_metrics(self):
        trace = consensus_trace()
        assert phases_per_round(trace, "x") == {1: {0, 1, 2}}
        assert max_phases_per_round(trace, "x") == 3
        assert max_phases_per_round(trace, "nope") == 0

    def test_round_at(self):
        trace = consensus_trace()
        assert round_at(trace, 0, 0.5, "x") == 0
        assert round_at(trace, 0, 2.0, "x") == 1

    def test_rounds_after(self):
        trace = consensus_trace()
        extra = rounds_after(trace, 1.2, "x")
        assert extra == {0: 1, 1: 1, 2: 1}


class TestStats:
    def test_summarize_basics(self):
        s = summarize([1, 2, 3, 4])
        assert s.n == 4
        assert s.mean == 2.5
        assert s.median == 2.5
        assert s.minimum == 1 and s.maximum == 4

    def test_summarize_empty(self):
        s = summarize([])
        assert s.n == 0
        assert math.isnan(s.mean)

    def test_odd_median(self):
        assert summarize([3, 1, 2]).median == 2

    def test_geometric_mean(self):
        assert geometric_mean([1, 100]) == pytest.approx(10.0)
        assert math.isnan(geometric_mean([]))

    # No deadline: the first example pays the numpy import (140–500 ms on
    # a slow host), which alone trips hypothesis's 200 ms default.
    @settings(deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_summary_invariants(self, xs):
        import math

        import numpy as np
        s = summarize(xs)
        assert s.minimum <= s.median <= s.maximum
        # Allow 1-ulp float rounding around the extremes.
        lo = math.nextafter(s.minimum, -math.inf)
        hi = math.nextafter(s.maximum, math.inf)
        assert lo <= s.mean <= hi
        assert s.mean == pytest.approx(float(np.mean(xs)), abs=1e-6)
        assert s.std == pytest.approx(float(np.std(xs)), abs=1e-6)
