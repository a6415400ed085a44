"""Tests for the sim Network's link table, failures and the World facade.

The send path itself (counters, records, order) is tested on both
substrates at once in ``tests/test_message_path.py``.
"""

import pytest

from repro.errors import ConfigurationError
from repro.sim import (
    Component,
    CrashEvent,
    CrashSchedule,
    DeadLink,
    FixedDelay,
    ReliableLink,
    World,
    crash_at,
    no_crashes,
    random_crashes,
)


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
