"""Negative-space tests: what breaks when the paper's assumptions do.

The paper's results are conditional — f < n/2, reliable links, partial
synchrony on specific links.  Each test here removes one assumption and
shows the corresponding guarantee fail *while safety still holds*, which
is exactly the boundary the theory draws.
"""

import pytest

from repro.analysis import check_consensus, extract_outcome
from repro.broadcast import ReliableBroadcast
from repro.consensus import ECConsensus, propose_all
from repro.fd import (
    EVENTUALLY_CONSISTENT,
    OracleConfig,
    OracleFailureDetector,
)
from repro.sim import (
    FixedDelay,
    ReliableLink,
    World,
    crash_at,
)


def build(n, seed=0):
    world = World(n=n, seed=seed, default_link=ReliableLink(FixedDelay(1.0)))
    protos = []
    for pid in world.pids:
        fd = world.attach(pid, OracleFailureDetector(
            EVENTUALLY_CONSISTENT, OracleConfig(pre_behavior="ideal")))
        rb = world.attach(pid, ReliableBroadcast(channel="consensus.rb"))
        protos.append(world.attach(pid, ECConsensus(fd, rb)))
    world.start()
    propose_all(protos)
    return world, protos


class TestMajorityAssumption:
    def test_half_crashes_block_termination_but_not_safety(self):
        """With f = n/2 (violating f < n/2), no majority survives: the
        algorithm must *not* decide — blocking is the correct behaviour
        (deciding could violate uniform agreement with a healed majority).
        """
        world, protos = build(n=4)
        crash_at((2, 0.5), (3, 0.5)).apply(world)  # 2 of 4: f = n/2
        world.run(until=2000.0)
        live = [p for p in protos if not world.process(p.pid).crashed]
        assert all(not p.decided for p in live)
        # Safety intact: nothing decided at all.
        outcome = extract_outcome(world.trace, "ec")
        results = check_consensus(outcome, world.correct_pids)
        assert results["uniform-agreement"] and results["validity"]

    def test_exact_majority_survives_and_decides(self):
        """One fewer crash — a bare majority — and termination returns."""
        world, protos = build(n=5, seed=1)
        crash_at((3, 0.5), (4, 0.5)).apply(world)  # 2 of 5: f < n/2
        world.run(until=2000.0)
        live = [p for p in protos if not world.process(p.pid).crashed]
        assert all(p.decided for p in live)


class TestReliableLinksAssumption:
    def test_permanent_partition_blocks_both_sides_minority(self):
        """A permanent partition leaves no side with a majority: nobody
        decides, nobody diverges."""
        world, protos = build(n=4, seed=2)
        world.fault("partition", {"groups": [[0, 1], [2, 3]]})
        world.run(until=1500.0)
        assert all(not p.decided for p in protos)
        outcome = extract_outcome(world.trace, "ec")
        assert check_consensus(outcome, world.correct_pids)["uniform-agreement"]

    def test_majority_side_decides_minority_catches_up_after_heal(self):
        """Needs a *message-passing* detector: a crash oracle never suspects
        merely-partitioned peers, so its coordinator would wait for their
        replies forever.  A heartbeat detector suspects the other side of
        the cut, letting the majority proceed — detector inaccuracy is what
        buys availability here."""
        from repro.fd import HeartbeatEventuallyPerfect
        from repro.transform import PToC

        world = World(n=5, seed=3,
                      default_link=ReliableLink(FixedDelay(1.0)))
        protos = []
        for pid in world.pids:
            hb = world.attach(pid, HeartbeatEventuallyPerfect(
                initial_timeout=8.0, channel="fd.hb"))
            fd = world.attach(pid, PToC(hb))
            rb = world.attach(pid, ReliableBroadcast(
                channel="consensus.rb", retransmit_period=10.0))
            protos.append(world.attach(pid, ECConsensus(
                fd, rb, stubborn_period=10.0)))
        world.start()
        propose_all(protos)
        world.fault("partition", {"groups": [[3, 4]]}, at=0.5)
        world.fault("heal", {}, at=300.0)
        world.run(until=250.0)
        majority = [protos[i] for i in (0, 1, 2)]
        minority = [protos[i] for i in (3, 4)]
        assert all(p.decided for p in majority)
        assert all(not p.decided for p in minority)
        world.run(until=2500.0)
        assert all(p.decided for p in protos)
        decisions = {p.decision for p in protos}
        assert len(decisions) == 1


class TestDetectorAssumption:
    def test_never_stabilizing_detector_blocks_termination(self):
        """Without the ◇C eventual properties (leader election never
        settles), the algorithm may never decide — but never errs."""
        world = World(n=5, seed=4,
                      default_link=ReliableLink(FixedDelay(1.0)))
        protos = []
        for pid in world.pids:
            fd = world.attach(pid, OracleFailureDetector(
                EVENTUALLY_CONSISTENT,
                OracleConfig(pre_behavior="suspect-all",
                             stabilize_time=10_000_000.0)))
            rb = world.attach(pid, ReliableBroadcast(channel="consensus.rb"))
            protos.append(world.attach(pid, ECConsensus(fd, rb)))
        world.start()
        propose_all(protos)
        world.run(until=800.0)
        # Everyone self-coordinates, nobody ever acks: no decision...
        assert all(not p.decided for p in protos)
        # ...and no divergence.
        outcome = extract_outcome(world.trace, "ec")
        assert check_consensus(outcome, world.correct_pids)["uniform-agreement"]
