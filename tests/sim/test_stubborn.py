"""Tests for stubborn-channel retransmission (Component opt-in)."""

import pytest

from repro.sim import (
    Component,
    FixedDelay,
    ReliableLink,
    World,
)


class Chatter(Component):
    channel = "chat"

    def __init__(self):
        super().__init__()
        self.received = []

    def on_message(self, src, payload):
        self.received.append((self.now, src, payload))


@pytest.fixture
def setup():
    world = World(n=3, seed=0, default_link=ReliableLink(FixedDelay(1.0)))
    comps = world.attach_all(lambda pid: Chatter())
    world.start()
    return world, comps


class TestStubbornResend:
    def test_off_by_default(self, setup):
        world, comps = setup
        comps[0].send(1, ("hello", None), tag="t")
        world.run(until=50.0)
        assert len(comps[1].received) == 1

    def test_retransmits_last_message_per_tag(self, setup):
        world, comps = setup
        comps[0].enable_stubborn_resend(5.0)
        comps[0].send(1, "m", tag="a")
        world.run(until=21.0)
        # original + retransmissions at 5, 10, 15, 20
        assert len(comps[1].received) == 5
        assert all(payload == "m" for _, _, payload in comps[1].received)

    def test_newer_message_replaces_slot(self, setup):
        world, comps = setup
        comps[0].enable_stubborn_resend(5.0)
        comps[0].send(1, "old", tag="a")
        world.scheduler.schedule_at(7.0, lambda: comps[0].send(1, "new", tag="a"))
        world.run(until=30.0)
        payloads = [p for _, _, p in comps[1].received]
        assert payloads[0] == "old"
        assert payloads[-1] == "new"
        # After the replacement only "new" is retransmitted.
        assert "old" not in payloads[3:]

    def test_separate_tags_keep_separate_slots(self, setup):
        world, comps = setup
        comps[0].enable_stubborn_resend(5.0)
        comps[0].send(1, "first-stream", tag="coord")
        comps[0].send(1, "second-stream", tag="prop")
        world.run(until=12.0)
        payloads = {p for _, _, p in comps[1].received}
        assert payloads == {"first-stream", "second-stream"}
        # Both streams retransmitted (>= 2 copies each).
        all_payloads = [p for _, _, p in comps[1].received]
        assert all_payloads.count("first-stream") >= 2
        assert all_payloads.count("second-stream") >= 2

    def test_survives_partition(self, setup):
        """The whole point: a message lost to a partition arrives after
        healing thanks to retransmission."""
        world, comps = setup
        comps[0].enable_stubborn_resend(5.0)
        world.fault("partition", {"groups": [[0], [1, 2]]})
        comps[0].send(1, "through-the-cut", tag="x")
        world.run(until=20.0)
        assert comps[1].received == []
        world.fault("heal", {})
        world.run(until=40.0)
        assert comps[1].received
        assert comps[1].received[0][2] == "through-the-cut"

    def test_idempotent_enable(self, setup):
        world, comps = setup
        comps[0].enable_stubborn_resend(5.0)
        comps[0].enable_stubborn_resend(5.0)  # no double timers
        comps[0].send(1, "m", tag="a")
        world.run(until=11.0)
        assert len(comps[1].received) == 3  # original + 2, not + 4

    def test_stops_on_crash(self, setup):
        world, comps = setup
        comps[0].enable_stubborn_resend(5.0)
        comps[0].send(1, "m", tag="a")
        world.schedule_crash(0, 7.0)
        world.run(until=40.0)
        assert len(comps[1].received) == 2  # original + one retransmit at 5
