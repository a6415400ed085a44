"""Directed unit tests of consensus-protocol internals.

These poke at the mechanisms the integration suites exercise only
indirectly: the NULL sentinel, phase-mark deduplication, decision
idempotence/conflict detection, Fig. 4 late-coordinator bookkeeping, and
round-state pruning, and where the per-round ``round_step`` is charged.
"""

import pytest

from repro.broadcast import ReliableBroadcast
from repro.consensus import ChandraTouegConsensus, ECConsensus, NULL
from repro.consensus.ec_consensus import _NullEstimate
from repro.errors import ProtocolError
from repro.fd import (
    EVENTUALLY_CONSISTENT,
    OracleConfig,
    OracleFailureDetector,
    ScriptedFailureDetector,
)
from repro.sim import FixedDelay, ReliableLink, World


def make_world(n=5, seed=0, pre="ideal", stabilize=0.0):
    world = World(n=n, seed=seed, default_link=ReliableLink(FixedDelay(1.0)))
    protos = []
    for pid in world.pids:
        fd = world.attach(pid, OracleFailureDetector(
            EVENTUALLY_CONSISTENT,
            OracleConfig(pre_behavior=pre, stabilize_time=stabilize),
        ))
        rb = world.attach(pid, ReliableBroadcast(channel="consensus.rb"))
        protos.append(world.attach(pid, ECConsensus(fd, rb)))
    world.start()
    return world, protos


class TestNullSentinel:
    def test_singleton(self):
        assert _NullEstimate() is NULL

    def test_distinct_from_none(self):
        assert NULL is not None
        assert NULL != None  # noqa: E711

    def test_repr(self):
        assert repr(NULL) == "NULL"

    def test_none_is_a_valid_proposal(self):
        world, protos = make_world(n=3, seed=1)
        for p in protos:
            p.propose(None)
        world.run(until=300.0)
        assert all(p.decided and p.decision is None for p in protos)


class TestDecisionDiscipline:
    def test_decide_is_idempotent(self):
        world, protos = make_world(n=3)
        p = protos[0]
        p._decide("v", round=1)
        p._decide("v", round=2)  # duplicate with same value: ignored
        assert p.decision_round == 1

    def test_conflicting_decide_raises(self):
        world, protos = make_world(n=3)
        p = protos[0]
        p._decide("v", round=1)
        with pytest.raises(ProtocolError):
            p._decide("w", round=2)

    def test_decide_trace_emitted_once(self):
        world, protos = make_world(n=3)
        for p in protos:
            p.propose(p.pid)
        world.run(until=300.0)
        for pid in world.pids:
            events = world.trace.select(kind="decide", pid=pid)
            assert len(events) == 1


class TestPhaseMarks:
    def test_consecutive_duplicates_collapsed(self):
        world, protos = make_world(n=3)
        p = protos[0]
        p.mark_phase(1, 0)
        p.mark_phase(1, 0)
        p.mark_phase(1, 1)
        events = world.trace.select(kind="phase", pid=0)
        assert [(e.get("round"), e.get("phase")) for e in events] == [
            (1, 0), (1, 1)
        ]


class TestLateCoordinatorBookkeeping:
    def test_null_estimate_sent_once_per_coordinator(self):
        world, protos = make_world(n=5)
        p = protos[0]
        p.propose("x")
        world.run(until=5.0)
        # Simulate duplicate announcements from a stale coordinator of a
        # past round; only one null estimate may go out.
        p.r = 10
        before = world.network.sent_by_channel.get("consensus", 0)
        p.on_message(3, ("COORD", 4))
        p.on_message(3, ("COORD", 4))
        after = world.network.sent_by_channel.get("consensus", 0)
        assert after - before == 1

    def test_late_nack_for_non_null_prop_of_old_round(self):
        world, protos = make_world(n=5)
        p = protos[0]
        p.propose("x")
        world.run(until=5.0)
        p.r = 10
        before = world.network.sent_by_channel.get("consensus", 0)
        p.on_message(3, ("PROP", 4, "some-value"))
        p.on_message(3, ("PROP", 4, "some-value"))  # duplicate: one nack
        after = world.network.sent_by_channel.get("consensus", 0)
        assert after - before == 1

    def test_null_prop_of_old_round_ignored(self):
        world, protos = make_world(n=5)
        p = protos[0]
        p.propose("x")
        world.run(until=5.0)
        p.r = 10
        before = world.network.sent_by_channel.get("consensus", 0)
        p.on_message(3, ("PROP", 4, NULL))
        after = world.network.sent_by_channel.get("consensus", 0)
        assert after == before


class TestPruning:
    def test_old_round_state_dropped(self):
        world, protos = make_world(n=5, pre="erratic", stabilize=150.0)
        for p in protos:
            p.propose(p.pid)
        world.run(until=1000.0)
        for p in protos:
            if not p.decided:
                continue
            # Nothing older than two rounds below the final round survives
            # (the run churned through many rounds before stabilizing).
            for store in (p._est_msgs, p._props, p._replies, p._coord_annc):
                stale = [r for r in store if r < p.r - 2]
                assert not stale, (p.pid, stale[:5], p.r)


class TestRoundStep:
    STEP = 0.25

    @pytest.mark.parametrize("protocol, round1_ends", [
        # p1 learns its ◇C coordinator from p0's announcement (one link
        # delay), then nacks it at once.
        (ECConsensus, 1.0),
        # p1 knows the rotating coordinator p0 and nacks it on the spot.
        (ChandraTouegConsensus, 0.0),
    ])
    def test_charged_before_every_round_but_the_first(
            self, protocol, round1_ends):
        # Everyone trusts p0 and p1, p2 also suspect it: round 1 ends
        # undecided at p1, which is what the step exists to pace.
        world = World(n=3, seed=0, default_link=ReliableLink(FixedDelay(1.0)))
        protos = []
        for pid in world.pids:
            fd = world.attach(
                pid, ScriptedFailureDetector(lambda p, t: ({0}, 0)))
            rb = world.attach(pid, ReliableBroadcast(channel="consensus.rb"))
            protos.append(
                world.attach(pid, protocol(fd, rb, round_step=self.STEP)))
        world.start()
        for p in protos:
            p.propose(p.pid)
        world.run(until=round1_ends + 2 * self.STEP)
        entered = {
            e.get("round"): e.time for e in world.trace.select(kind="round", pid=1)
        }
        assert entered[1] == 0.0  # on propose: no step
        assert entered[2] == round1_ends + self.STEP
