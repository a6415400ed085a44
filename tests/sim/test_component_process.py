"""Tests for Component, Periodic, Process and their crash semantics."""

import pytest

from repro.errors import ConfigurationError
from repro.sim import Component, FixedDelay, ReliableLink, Sleep, World


class Recorder(Component):
    """Test component recording everything it sees."""

    channel = "rec"

    def __init__(self, channel="rec"):
        super().__init__(channel)
        self.messages = []
        self.started = False
        self.crashed_hook = False
        self.fd_changes = 0

    def on_start(self):
        self.started = True

    def on_message(self, src, payload):
        self.messages.append((src, payload))

    def on_crash(self):
        self.crashed_hook = True

    def on_fd_change(self):
        self.fd_changes += 1
        super().on_fd_change()


@pytest.fixture
def world():
    return World(n=3, seed=0, default_link=ReliableLink(FixedDelay(1.0)))


class TestComponentBasics:
    def test_requires_channel(self):
        class NoChannel(Component):
            channel = ""

        with pytest.raises(ConfigurationError):
            NoChannel()

    def test_channel_override_at_init(self, world):
        comp = world.attach(0, Recorder(channel="other"))
        assert comp.channel == "other"

    def test_properties(self, world):
        comp = world.attach(1, Recorder())
        assert comp.pid == 1
        assert comp.n == 3
        assert comp.now == 0.0
        assert not comp.crashed

    def test_send_and_receive(self, world):
        comps = world.attach_all(lambda pid: Recorder())
        world.start()
        comps[0].send(1, "hello")
        world.run()
        assert comps[1].messages == [(0, "hello")]

    def test_broadcast_excludes_self_by_default(self, world):
        comps = world.attach_all(lambda pid: Recorder())
        world.start()
        comps[0].broadcast("x")
        world.run()
        assert comps[0].messages == []
        assert comps[1].messages == [(0, "x")]
        assert comps[2].messages == [(0, "x")]

    def test_broadcast_include_self(self, world):
        comps = world.attach_all(lambda pid: Recorder())
        world.start()
        comps[0].broadcast("x", include_self=True)
        world.run()
        assert comps[0].messages == [(0, "x")]

    def test_send_self_loopback_same_time(self, world):
        comps = world.attach_all(lambda pid: Recorder())
        world.start()
        comps[0].send_self("me")
        world.run(until=0.0)
        assert comps[0].messages == [(0, "me")]

    def test_rng_is_deterministic_per_component(self, world):
        comp = world.attach(0, Recorder())
        w2 = World(n=3, seed=0)
        comp2 = w2.attach(0, Recorder())
        assert comp.rng.random() == comp2.rng.random()


class TestTimers:
    def test_set_timer_fires(self, world):
        comp = world.attach(0, Recorder())
        fired = []
        comp.set_timer(5.0, fired.append, "x")
        world.run()
        assert fired == ["x"]

    def test_timer_suppressed_after_crash(self, world):
        comp = world.attach(0, Recorder())
        fired = []
        comp.set_timer(5.0, fired.append, "x")
        world.schedule_crash(0, 1.0)
        world.run()
        assert fired == []

    def test_periodic_fires_repeatedly(self, world):
        comp = world.attach(0, Recorder())
        ticks = []
        comp.periodically(2.0, lambda: ticks.append(comp.now))
        world.run(until=7.0)
        assert ticks == [2.0, 4.0, 6.0]

    def test_periodic_stop(self, world):
        comp = world.attach(0, Recorder())
        ticks = []
        timer = comp.periodically(2.0, lambda: ticks.append(comp.now))
        world.scheduler.schedule(5.0, timer.stop)
        world.run(until=20.0)
        assert ticks == [2.0, 4.0]

    def test_periodic_stops_on_crash(self, world):
        comp = world.attach(0, Recorder())
        ticks = []
        comp.periodically(2.0, lambda: ticks.append(comp.now))
        world.schedule_crash(0, 5.0)
        world.run(until=20.0)
        assert ticks == [2.0, 4.0]

    def test_periodic_validation(self, world):
        comp = world.attach(0, Recorder())
        with pytest.raises(ConfigurationError):
            comp.periodically(0.0, lambda: None)


class TestProcessCrash:
    def test_crash_is_permanent_and_idempotent(self, world):
        world.attach_all(lambda pid: Recorder())
        world.start()
        proc = world.process(0)
        world.crash(0)
        assert proc.crashed
        first_time = proc.crash_time
        world.crash(0)
        assert proc.crash_time == first_time
        assert world.trace.count("crash") == 1

    def test_messages_to_crashed_are_dropped(self, world):
        comps = world.attach_all(lambda pid: Recorder())
        world.start()
        world.crash(1)
        comps[0].send(1, "too late")
        world.run()
        assert comps[1].messages == []
        drops = world.trace.select(kind="drop", where=lambda e: e.get("reason") == "crashed")
        assert len(drops) == 1

    def test_in_flight_messages_from_crashed_still_arrive(self, world):
        comps = world.attach_all(lambda pid: Recorder())
        world.start()
        comps[0].send(1, "sent before crash")
        world.crash(0)
        world.run()
        assert comps[1].messages == [(0, "sent before crash")]

    def test_sends_after_crash_are_noops(self, world):
        comps = world.attach_all(lambda pid: Recorder())
        world.start()
        world.crash(0)
        comps[0].send(1, "x")
        comps[0].broadcast("y")
        world.run()
        assert comps[1].messages == []

    def test_crash_stops_tasks_and_calls_hook(self, world):
        comp = world.attach(0, Recorder())
        log = []

        def task():
            yield Sleep(10.0)
            log.append("no")

        comp.spawn(task())
        world.schedule_crash(0, 1.0)
        world.run()
        assert log == []
        assert comp.crashed_hook

    def test_crashed_property_reflected_on_component(self, world):
        comp = world.attach(0, Recorder())
        world.crash(0)
        assert comp.crashed


class TestProcessWiring:
    def test_duplicate_channel_rejected(self, world):
        world.attach(0, Recorder())
        with pytest.raises(ConfigurationError):
            world.attach(0, Recorder())

    def test_unknown_channel_parks_until_attached(self, world):
        comps = world.attach_all(lambda pid: Recorder())
        world.start()
        world.network.send(0, 1, "late-channel", "x")
        world.run()
        proc = world.process(1)
        assert proc.pending_channels == ["late-channel"]
        late = world.attach(1, Recorder(channel="late-channel"))
        # The flush is deferred one scheduler tick so companion components
        # attached at the same instant can subscribe first.
        assert late.messages == []
        world.run()
        assert late.messages == [(0, "x")]
        assert proc.pending_channels == []

    def test_detach_silences_the_component_and_retires_its_channel(
            self, world):
        comp = world.attach(1, Recorder())
        world.start()
        fired = []
        comp.periodically(1.0, lambda: fired.append("tick"))
        comp.set_timer(2.5, lambda: fired.append("timer"))

        def task():
            yield Sleep(2.0)
            fired.append("task")

        comp.spawn(task())
        world.run(until=1.5)
        assert fired == ["tick"]
        proc = world.process(1)
        proc.detach(comp)
        assert "rec" not in proc.components
        world.network.send(0, 1, "rec", "late")
        world.run(until=10.0)
        assert fired == ["tick"] and comp.messages == []
        assert proc.pending_channels == []
        assert [e.get("reason") for e in world.trace.select(kind="drop")] == [
            "retired"]
        assert world.metrics.value(
            "messages_dropped_total", reason="retired") == 1

    def test_parked_flush_after_companion_subscription(self, world):
        """The race that motivated the deferred flush: a broadcast-style
        component and its subscriber attached back to back must both see a
        message that was parked before either existed."""
        world.start()
        world.network.send(0, 1, "bus", "event")
        world.run()
        bus = world.attach(1, Recorder(channel="bus"))
        follower = []
        # Simulate a subscriber wired immediately after the attach.
        original = bus.on_message
        bus.on_message = lambda src, payload: (original(src, payload),
                                               follower.append(payload))
        world.run()
        assert bus.messages == [(0, "event")]
        assert follower == ["event"]

    def test_component_lookup(self, world):
        comp = world.attach(2, Recorder())
        assert world.component(2, "rec") is comp
        assert world.process(2).component("rec") is comp

    def test_attach_after_start_calls_on_start(self, world):
        world.start()
        comp = world.attach(0, Recorder())
        assert comp.started

    def test_notify_fd_change_skips_source(self, world):
        a = world.attach(0, Recorder(channel="a"))
        b = world.attach(0, Recorder(channel="b"))
        world.start()
        world.process(0).notify_fd_change(source=a)
        assert a.fd_changes == 0
        assert b.fd_changes == 1

    def test_notify_fd_change_noop_when_crashed(self, world):
        a = world.attach(0, Recorder(channel="a"))
        world.crash(0)
        world.process(0).notify_fd_change()
        assert a.fd_changes == 0
