"""Tests for the sim Network's link table, failures and the World facade.

The send path itself (counters, records, order) is tested on both
substrates at once in ``tests/test_message_path.py``.
"""

import pytest

from repro.broadcast import ReliableBroadcast
from repro.consensus import ECConsensus, propose_all
from repro.errors import ConfigurationError
from repro.fd import attach_ec_stack
from repro.sim import (
    Component,
    CrashEvent,
    CrashSchedule,
    DeadLink,
    FairLossyLink,
    FixedDelay,
    ReliableLink,
    World,
    crash_at,
    no_crashes,
    random_crashes,
)
from repro.transform import CToPTransformation
from repro.workloads import partially_synchronous_link


class Sink(Component):
    channel = "sink"

    def __init__(self):
        super().__init__()
        self.messages = []

    def on_message(self, src, payload):
        self.messages.append((src, payload))


@pytest.fixture
def world():
    return World(n=4, seed=0, default_link=ReliableLink(FixedDelay(1.0)))


class TestNetwork:
    def test_per_pair_link_override(self, world):
        comps = world.attach_all(lambda pid: Sink())
        world.network.set_link(0, 1, DeadLink())
        world.start()
        comps[0].send(1, "lost")
        comps[0].send(2, "kept")
        world.run()
        assert comps[1].messages == []
        assert comps[2].messages == [(0, "kept")]
        assert world.network.dropped_total == 1

    def test_set_links_from_and_to(self, world):
        comps = world.attach_all(lambda pid: Sink())
        world.network.set_links_from(0, DeadLink)
        world.network.set_links_to(2, DeadLink)
        world.start()
        comps[0].send(1, "x")   # dead (from 0)
        comps[1].send(2, "y")   # dead (to 2)
        comps[1].send(3, "z")   # alive
        world.run()
        assert comps[1].messages == []
        assert comps[2].messages == []
        assert comps[3].messages == [(1, "z")]

    def test_link_lookup(self, world):
        dead = DeadLink()
        world.network.set_link(1, 2, dead)
        assert world.network.link(1, 2) is dead
        assert world.network.link(2, 1) is not dead

    def test_drop_recorded_in_trace(self, world):
        comps = world.attach_all(lambda pid: Sink())
        world.network.set_link(0, 1, DeadLink())
        world.start()
        comps[0].send(1, "x")
        world.run()
        drops = world.trace.select(kind="drop")
        assert len(drops) == 1
        assert drops[0].get("reason") == "link"

    def test_network_requires_processes(self):
        with pytest.raises(ConfigurationError):
            World(n=0)


class TestWorld:
    def test_majority(self):
        assert World(n=5).majority == 3
        assert World(n=4).majority == 3
        assert World(n=1).majority == 1

    def test_pids(self, world):
        assert list(world.pids) == [0, 1, 2, 3]

    def test_double_start_rejected(self, world):
        world.start()
        with pytest.raises(ConfigurationError):
            world.start()

    def test_run_autostarts(self, world):
        comp = world.attach(0, Sink())
        world.run(until=1.0)
        assert world._started

    def test_correct_and_crashed_sets(self, world):
        world.schedule_crash(1, 5.0)
        world.run(until=10.0)
        assert world.crashed_pids == {1}
        assert world.correct_pids == {0, 2, 3}

    def test_crash_validation(self, world):
        with pytest.raises(ValueError):
            world.schedule_crash(99, 1.0)


class TestCrashSchedules:
    def test_no_crashes(self):
        sched = no_crashes()
        assert len(sched) == 0
        assert sched.crashed_pids == frozenset()
        assert sched.correct_pids(4) == {0, 1, 2, 3}

    def test_crash_at(self):
        sched = crash_at((1, 5.0), (2, 3.0))
        assert sched.crashed_pids == {1, 2}
        # sorted by time
        assert [e.pid for e in sched.events] == [2, 1]

    def test_double_crash_rejected(self):
        with pytest.raises(ConfigurationError):
            CrashSchedule([CrashEvent(1, 1.0), CrashEvent(1, 2.0)])

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            CrashSchedule([CrashEvent(1, -1.0)])

    def test_apply(self, world):
        crash_at((0, 2.0), (3, 4.0)).apply(world)
        world.run(until=10.0)
        assert world.crashed_pids == {0, 3}

    def test_random_crashes_respects_protect_and_bounds(self):
        import random
        for seed in range(20):
            rng = random.Random(seed)
            sched = random_crashes(rng, 7, 3, (0.0, 100.0), protect=[0, 1])
            assert len(sched) <= 3
            assert not sched.crashed_pids & {0, 1}
            assert all(0.0 <= e.time <= 100.0 for e in sched.events)

    def test_random_crashes_cannot_kill_all(self):
        import random
        with pytest.raises(ConfigurationError):
            random_crashes(random.Random(0), 3, 3, (0.0, 1.0))


def _series(label, values):
    return [{"labels": {label: key}, "value": value}
            for key, value in sorted(values.items())]


#: The registry and path counters of the run below, pinned so a change to
#: how the message path counts must reproduce them field for field.
GOLDEN_COUNTERS = {
    "sent_total": 963,
    "sent_network": 960,
    "delivered_total": 936,
    "dropped_total": 9,
    "sent_by_channel": {
        "fd.omega": 184, "fd.suspects": 407, "fdp": 339,
        "consensus": 17, "consensus.rb": 16,
    },
}
GOLDEN_SNAPSHOT = {
    "messages_sent_total": _series("channel", {
        "consensus": 14, "consensus.rb": 16, "fd.omega": 184,
        "fd.suspects": 407, "fdp": 339}),
    "messages_delivered_total": _series("channel", {
        "consensus": 17, "consensus.rb": 16, "fd.omega": 176,
        "fd.suspects": 397, "fdp": 330}),
    "messages_dropped_total": _series("reason", {"crashed": 128, "link": 9}),
    "fd_suspicion_flips_total": _series("channel", {
        "fd": 32, "fd.omega": 10, "fd.suspects": 37, "fdp": 10}),
    "fd_leader_changes_total": _series("channel", {
        "fd": 15, "fd.omega": 15, "fd.suspects": 20}),
    "fd_timeout_adaptations_total": _series("channel", {
        "fd.omega": 3, "fd.suspects": 12, "fdp": 5}),
    "fd_suspected_size": _series("channel", {
        "fd": 1, "fd.omega": 1, "fd.suspects": 1, "fdp": 1}),
    "consensus_proposals_total": _series("algo", {"ec": 4}),
    "consensus_rounds_total": _series("algo", {"ec": 7}),
    "consensus_decisions_total": _series("algo", {"ec": 4}),
}


def test_paper_stack_metrics_golden():
    """Ring + Omega -> <>C, Fig. 2 <>C -> <>P and one consensus at n=5, with
    a crash and a lossy link out of the crashed process."""
    world = World(n=5, seed=3, default_link=partially_synchronous_link(
        gst=20.0, pre_max=10.0))
    world.network.set_link(0, 1, FairLossyLink(
        ReliableLink(FixedDelay(1.0)), deliver_every=3))
    detectors = attach_ec_stack(
        world, suspects="ring", period=2.0, initial_timeout=5.0)
    protocols = []
    for pid in world.pids:
        world.attach(pid, CToPTransformation(
            detectors[pid], send_period=2.0, alive_period=2.0,
            initial_timeout=5.0, channel="fdp"))
        rb = world.attach(pid, ReliableBroadcast(channel="consensus.rb"))
        protocols.append(world.attach(pid, ECConsensus(detectors[pid], rb)))
    world.start()
    world.schedule_crash(0, 10.0)
    world.run(until=40.0)
    propose_all([p for p in protocols if not p.crashed])
    world.run(until=100.0)
    net = world.network
    assert {name: getattr(net, name) for name in GOLDEN_COUNTERS} \
        == GOLDEN_COUNTERS
    assert world.metrics.snapshot() == GOLDEN_SNAPSHOT
    # The crash at 10.0 leaves each of pid 0's timers one dead tick.
    assert world.scheduler.events_fired == 2990
    assert world.now == 100.0
