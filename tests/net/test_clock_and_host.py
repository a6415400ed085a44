"""Clocks and the NodeHost adapter: the component API over live parts."""

import asyncio

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.net import (
    AsyncioClock,
    FaultPlan,
    JsonCodec,
    LoopbackHub,
    LoopbackTransport,
    NodeHost,
    VirtualClock,
)
from repro.sim.component import Component
from repro.sim.message import Message


class Echo(Component):
    """Replies "pong" to every "ping"; records everything it hears."""

    channel = "echo"

    def __init__(self):
        super().__init__()
        self.heard = []

    def on_message(self, src, payload):
        self.heard.append((src, payload))
        if payload == "ping":
            self.send(src, "pong")


def _pair(clock):
    """Two loopback-connected hosts sharing *clock*."""
    hub = LoopbackHub(clock)
    hosts = []
    for pid in range(2):
        transport = LoopbackTransport(pid, hub)
        host = NodeHost(pid, 2, transport, FaultPlan(2), clock=clock)
        transport.bind()
        hosts.append(host)
    addresses = {h.pid: h.transport.local_address for h in hosts}
    for h in hosts:
        h.transport.set_peers(addresses)
    return hosts


# ---------------------------------------------------------------- VirtualClock
def test_virtual_clock_hosts_echo_deterministically():
    clock = VirtualClock()
    hosts = _pair(clock)
    echoes = [h.attach(Echo()) for h in hosts]
    for h in hosts:
        h.start()
    echoes[0].send(1, "ping")
    clock.run(until=10.0)
    assert echoes[1].heard == [(0, "ping")]
    assert echoes[0].heard == [(1, "pong")]


def test_virtual_clock_self_send_loops_back():
    clock = VirtualClock()
    hosts = _pair(clock)
    echoes = [h.attach(Echo()) for h in hosts]
    for h in hosts:
        h.start()
    echoes[0].send(0, "hello-me")
    clock.run(until=1.0)
    assert echoes[0].heard == [(0, "hello-me")]
    # A self-send never reaches the crossing (counters: test_message_path).
    assert hosts[0].transport.frames_sent == 0


def test_crashed_host_counts_sends_as_noops():
    clock = VirtualClock()
    hosts = _pair(clock)
    echoes = [h.attach(Echo()) for h in hosts]
    for h in hosts:
        h.start()
    hosts[0].crash()
    assert hosts[0].crashed
    echoes[0].send(1, "ping")  # component helper is a no-op after crash
    clock.run(until=10.0)
    assert echoes[1].heard == []


def test_undecodable_frame_is_counted_not_fatal():
    clock = VirtualClock()
    hosts = _pair(clock)
    echoes = [h.attach(Echo()) for h in hosts]
    for h in hosts:
        h.start()
    hosts[0].transport.send(1, b"\xffnot-a-frame")
    clock.run(until=1.0)
    assert hosts[1].metrics.value(
        "messages_dropped_total", reason="undecodable") == 1
    assert echoes[1].heard == []
    drops = [ev for ev in hosts[1].trace.events if ev.kind == "drop"]
    assert drops and drops[0].get("reason") == "undecodable"


def test_misrouted_frame_is_counted_and_ignored():
    clock = VirtualClock()
    hosts = _pair(clock)
    for h in hosts:
        h.attach(Echo())
        h.start()
    stray = Message(src=0, dst=5, channel="echo", payload="x", send_time=0.0)
    hosts[0].transport.send(1, JsonCodec().encode_message(stray))
    clock.run(until=1.0)
    # Counted and visible, like the undecodable branch — never delivered.
    assert hosts[1].metrics.value(
        "messages_dropped_total", reason="misrouted") == 1
    drops = [ev for ev in hosts[1].trace.events if ev.kind == "drop"]
    assert [(d.pid, d.get("reason"), d.get("dst")) for d in drops] == [
        (1, "misrouted", 5)
    ]
    assert hosts[1].world.network.delivered_total == 0


def test_runtime_world_rejects_oracle_surface():
    clock = VirtualClock()
    (host, _) = _pair(clock)
    with pytest.raises(ConfigurationError):
        host.world.processes


def test_host_validates_pid_and_transport_pid():
    hub = LoopbackHub(VirtualClock())
    with pytest.raises(ConfigurationError):
        NodeHost(5, 3, LoopbackTransport(5, hub), FaultPlan(3))
    with pytest.raises(ConfigurationError):
        NodeHost(0, 3, LoopbackTransport(1, hub), FaultPlan(3))


# ---------------------------------------------------------------- AsyncioClock
def test_asyncio_clock_timers_and_rebase():
    async def scenario():
        clock = AsyncioClock()
        clock.rebase()
        fired = []
        clock.schedule(0.01, fired.append, "a")
        cancelled = clock.schedule(0.01, fired.append, "never")
        cancelled.cancel()
        clock.schedule_at(clock.now + 0.02, fired.append, "b")
        with pytest.raises(SimulationError):
            clock.schedule(-1.0, fired.append, "x")
        with pytest.raises(SimulationError):
            clock.schedule_at(clock.now - 1.0, fired.append, "x")
        await asyncio.sleep(0.05)
        assert fired == ["a", "b"]
        assert clock.now >= 0.05

    asyncio.run(scenario())


def test_asyncio_clock_hosts_echo():
    async def scenario():
        clock = AsyncioClock()
        hosts = _pair(clock)
        echoes = [h.attach(Echo()) for h in hosts]
        clock.rebase()
        for h in hosts:
            h.start()
        echoes[0].send(1, "ping")
        await asyncio.sleep(0.05)
        assert echoes[1].heard == [(0, "ping")]
        assert echoes[0].heard == [(1, "pong")]

    asyncio.run(scenario())


def test_asyncio_periodic_stops_on_crash_detach_and_own_stop():
    async def scenario():
        clock = AsyncioClock()
        host = _pair(clock)[0]
        crashed, detached, own = (
            host.attach(Component(name)) for name in ("a", "b", "c"))
        clock.rebase()
        host.start()
        ticks = {"a": 0, "b": 0, "c": 0}

        def counter(name):
            def tick():
                ticks[name] += 1
            return tick

        def tick_once():
            ticks["c"] += 1
            own_timer.stop()

        crashed.periodically(0.01, counter("a"))
        detached.periodically(0.01, counter("b"))
        own_timer = own.periodically(0.01, tick_once)
        with pytest.raises(ConfigurationError):
            own.periodically(0.0, tick_once)
        await asyncio.sleep(0.05)
        assert ticks["a"] >= 1 and ticks["b"] >= 1 and ticks["c"] == 1
        host.process.detach(detached)
        before = dict(ticks)
        await asyncio.sleep(0.05)
        assert ticks["a"] > before["a"]
        assert (ticks["b"], ticks["c"]) == (before["b"], 1)
        host.crash()
        before = dict(ticks)
        await asyncio.sleep(0.05)
        assert ticks == before

    asyncio.run(scenario())
