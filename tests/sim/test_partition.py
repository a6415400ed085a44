"""Dynamic network conditions on a simulated world: swapping a link model
for a window (``Network.set_link``) and a partition under a real detector.
The fault step itself (partition / isolate / heal / stall / delay / loss)
is tested once for every substrate in ``tests/test_message_path.py``."""

import pytest

from repro.sim import Component, FixedDelay, ReliableLink, World


class Sink(Component):
    channel = "sink"

    def __init__(self):
        super().__init__()
        self.messages = []

    def on_message(self, src, payload):
        self.messages.append((src, payload, self.now))


@pytest.fixture
def setup():
    world = World(n=4, seed=0, default_link=ReliableLink(FixedDelay(1.0)))
    comps = world.attach_all(lambda pid: Sink())
    world.start()
    return world, comps


class TestDegrade:
    def test_degrade_changes_delay(self, setup):
        world, comps = setup
        world.network.set_link(0, 1, ReliableLink(FixedDelay(20.0)))
        comps[0].send(1, "slow")
        world.run()
        assert comps[1].messages[0][2] == 20.0

    def test_restore(self, setup):
        world, comps = setup
        normal = world.network.link(0, 1)
        world.network.set_link(0, 1, ReliableLink(FixedDelay(20.0)))
        world.network.set_link(0, 1, normal)
        comps[0].send(1, "fast-again")
        world.run()
        assert comps[1].messages[0][2] == 1.0

    def test_degrade_window(self, setup):
        world, comps = setup
        at, set_link = world.scheduler.schedule_at, world.network.set_link
        at(5.0, set_link, 0, 1, ReliableLink(FixedDelay(50.0)))
        at(10.0, set_link, 0, 1, world.network.link(0, 1))
        world.scheduler.schedule_at(6.0, lambda: comps[0].send(1, "slow"))
        world.scheduler.schedule_at(12.0, lambda: comps[0].send(1, "fast"))
        world.run()
        arrival = {m[1]: m[2] for m in comps[1].messages}
        assert arrival["slow"] == 56.0
        assert arrival["fast"] == 13.0


class TestPartitionWithDetectors:
    def test_fd_false_suspicions_during_partition_then_recovery(self):
        """A partition makes the heartbeat detector falsely suspect the
        other side; healing restores accuracy — the ◇-style guarantee."""
        from repro.fd import HeartbeatEventuallyPerfect

        world = World(n=4, seed=1, default_link=ReliableLink(FixedDelay(1.0)))
        dets = world.attach_all(
            lambda pid: HeartbeatEventuallyPerfect(initial_timeout=8.0)
        )
        world.fault("partition", {"groups": [[0, 1], [2, 3]]}, at=40.0)
        world.fault("heal", {}, at=120.0)
        world.run(until=600.0)
        # During the partition, suspicion across the split appeared...
        during = world.trace.select(
            kind="fd", after=40.0, before=120.0,
            where=lambda e: e.pid in (0, 1) and (
                2 in e.get("suspected") or 3 in e.get("suspected")),
        )
        assert during
        # ...and after healing (plus adaptation) everyone is clear again.
        assert all(det.suspected() == frozenset() for det in dets)
