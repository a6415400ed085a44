"""The per-node fault-control endpoint, in-process: a real UDP socket over a
real FaultPlan, no node subprocess.  (The proc integration tests exercise
the same path end to end, slowly.)"""

import asyncio
import json
import time
from types import SimpleNamespace

import pytest

from repro.cluster import LocalCluster
from repro.errors import ConfigurationError
from repro.net import FaultControlEndpoint, FaultPlan, send_fault_command
from repro.net.clock import SkewedClock, VirtualClock
from repro.obs.sinks import MemorySink

N = 3
NODE = 1  # the pid the endpoint under test belongs to

#: Every fault that travels as a datagram, as the wire spells it, next to
#: the LocalCluster verb call that must leave a plan in the same state.
NETWORK_OPS = [
    ({"op": "partition", "groups": [[2], [0, 1]]},
     lambda c: c.partition([[2], [0, 1]])),
    ({"op": "partition", "groups": [[0]]}, lambda c: c.partition([[0]])),
    ({"op": "isolate", "pid": 2}, lambda c: c.isolate(2)),
    ({"op": "heal"}, lambda c: c.heal()),
    ({"op": "degrade", "src": 0, "dst": 1, "loss": 0.3, "delay": 0.02},
     lambda c: c.degrade(0, 1, loss=0.3, delay=0.02)),
    ({"op": "degrade", "src": 2, "dst": 0, "loss": 1.0},
     lambda c: c.degrade(2, 0, loss=1.0)),
    ({"op": "restore", "src": 0, "dst": 1}, lambda c: c.restore(0, 1)),
    ({"op": "storm", "loss": 0.0}, lambda c: c.storm(0.0)),
    ({"op": "storm", "loss": 1.0}, lambda c: c.storm(1.0)),
    ({"op": "calm"}, lambda c: c.calm()),
    ({"op": "skew", "pid": NODE, "offset": 0.5}, lambda c: c.skew(NODE, 0.5)),
    ({"op": "stall", "pid": 0}, lambda c: c.stall(0)),
    ({"op": "resume", "pid": 0}, lambda c: c.resume(0)),
]


def plan_state(plan):
    """Everything a fault can change, in comparable form."""
    return {
        "cut": set(plan._cut),
        "partitioned": plan.partitioned,
        "stalled": plan.stalled,
        "pair_loss": dict(plan._pair_loss),
        "pair_delay": {k: vars(v) for k, v in plan._pair_delay.items()},
        "storm": (plan._storm_loss, plan._storm_delay),
        "active": plan.active,
        "skew": plan.clocks[NODE].offset,
    }


def narration(trace):
    return [
        (ev.kind, ev.pid, ev.data) for ev in trace.events
        if ev.kind.startswith("scenario.")
    ]


def make_node():
    """A FaultPlan + the slice of NodeHost the endpoint uses."""
    plan = FaultPlan(N)
    clock = plan.clocks[NODE] = SkewedClock(VirtualClock())
    host = SimpleNamespace(pid=NODE, plan=plan, clock=clock, trace=MemorySink())
    return plan, host


async def raw_datagram(address, payload, timeout=2.0):
    """Send *payload* bytes verbatim; the reply, or TimeoutError."""
    loop = asyncio.get_running_loop()
    reply = loop.create_future()

    class Client(asyncio.DatagramProtocol):
        def connection_made(self, transport):
            transport.sendto(payload)

        def datagram_received(self, data, addr):
            if not reply.done():
                reply.set_result(data)

    transport, _ = await loop.create_datagram_endpoint(
        Client, remote_addr=address
    )
    try:
        return await asyncio.wait_for(reply, timeout)
    finally:
        transport.close()


def serve(body):
    """Run ``await body(endpoint, plan, host)`` against a bound endpoint."""

    async def main():
        plan, host = make_node()
        endpoint = FaultControlEndpoint(host)
        await endpoint.bind()
        try:
            return await body(endpoint, plan, host)
        finally:
            endpoint.close()

    return asyncio.run(main())


# ------------------------------------------------------------ every network op
@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize(
    "command, verb", NETWORK_OPS, ids=[json.dumps(c) for c, _ in NETWORK_OPS]
)
def test_a_datagram_does_what_the_local_verb_does(command, verb, record):
    # Some faults only show against a non-idle plan (heal, restore, calm,
    # resume), so both sides start from the same busy state.
    preamble = [
        ("partition", {"groups": [[1]]}),
        ("degrade", {"src": 0, "dst": 1, "loss": 0.9, "delay": 0.5}),
        ("storm", {"loss": 0.25}),
        ("stall", {"pid": 0}),
    ]
    reference = LocalCluster(n=N, clock="virtual")
    reference.start_virtual()
    for op, args in preamble:
        reference.fault(op, args)
    before = len(narration(reference.trace))
    verb(reference)
    expected_events = narration(reference.trace)[before:]
    assert len(expected_events) == 1

    async def body(endpoint, plan, host):
        for op, args in preamble:
            plan.apply(op, args)
        await send_fault_command(
            endpoint.address, dict(command, record=record), timeout=2.0
        )
        return plan_state(plan), narration(host.trace), endpoint

    state, events, endpoint = serve(body)
    assert state == plan_state(reference.plan)
    assert events == (expected_events if record else [])
    assert endpoint.commands_applied == 1


def test_ping_mutates_nothing():
    async def body(endpoint, plan, host):
        idle = plan_state(plan)
        await send_fault_command(endpoint.address, {"op": "ping"})
        await send_fault_command(
            endpoint.address, {"op": "ping", "record": True}
        )
        return idle, plan_state(plan), host.trace.events, endpoint

    idle, after, events, endpoint = serve(body)
    assert after == idle and not after["active"]
    assert events == []
    assert endpoint.commands_applied == 0


# --------------------------------------------------------------- bad datagrams
GOOD = json.dumps({"op": "storm", "loss": 0.5, "record": True}).encode()

BAD_DATAGRAMS = {
    "unknown op": b'{"op": "reboot"}',
    "no op": b'{"loss": 0.5}',
    "op not a string": b'{"op": ["storm"], "loss": 0.5}',
    "crash is not a network fault": b'{"op": "crash", "pid": 0}',
    "missing arg": b'{"op": "storm"}',
    "extra arg": b'{"op": "heal", "pid": 0}',
    "pid out of range": b'{"op": "isolate", "pid": 3}',
    "pid in two groups": b'{"op": "partition", "groups": [[0, 1], [1]]}',
    "groups not lists": b'{"op": "partition", "groups": [0, 1]}',
    "loss too large": b'{"op": "storm", "loss": 1.000001}',
    "loss negative": b'{"op": "degrade", "src": 0, "dst": 1, "loss": -0.1}',
    "loss not a number": b'{"op": "storm", "loss": "0.5"}',
    "loss NaN": b'{"op": "storm", "loss": NaN}',
    "negative delay": b'{"op": "degrade", "src": 0, "dst": 1, "delay": -1}',
    "skew of another node's clock": b'{"op": "skew", "pid": 0, "offset": 1}',
    "non-object JSON": b'[1, 2, 3]',
    "JSON scalar": b'"heal"',
    "non-UTF-8": b'\xff\xfe{"op": "heal"}',
    "truncated": GOOD[: len(GOOD) // 2],
}


@pytest.mark.parametrize("payload", BAD_DATAGRAMS.values(), ids=BAD_DATAGRAMS)
def test_bad_datagram_gets_an_error_reply_and_changes_nothing(payload):
    async def body(endpoint, plan, host):
        idle = plan_state(plan)
        reply = await raw_datagram(endpoint.address, payload)  # never hangs
        # The endpoint is still serving afterwards.
        assert await raw_datagram(endpoint.address, GOOD) == b"ok"
        plan.calm()
        return reply, idle, plan_state(plan), host.trace.events, endpoint

    reply, idle, after, events, endpoint = serve(body)
    assert reply.startswith(b"error: "), reply
    assert after == idle
    assert [ev.kind for ev in events] == ["scenario.storm"]  # GOOD's only
    assert endpoint.commands_applied == 1


def test_rejected_command_raises_configuration_error_at_the_sender():
    async def body(endpoint, plan, host):
        with pytest.raises(ConfigurationError, match="unknown fault op"):
            await send_fault_command(endpoint.address, {"op": "reboot"})

    serve(body)


def test_send_to_a_closed_port_raises_after_paced_attempts():
    async def main():
        plan, host = make_node()
        endpoint = FaultControlEndpoint(host)
        address = await endpoint.bind()
        endpoint.close()
        await asyncio.sleep(0)  # let the socket actually close
        started = time.monotonic()
        with pytest.raises((OSError, asyncio.TimeoutError)):
            await send_fault_command(
                address, {"op": "ping"}, timeout=0.05, attempts=4
            )
        return time.monotonic() - started

    elapsed = asyncio.run(main())
    # An ICMP-refused send fails in microseconds; pacing makes every attempt
    # but the last cost a full timeout — neither a spin nor a hang.
    assert 3 * 0.05 * 0.9 <= elapsed < 2.0


def test_double_bind_is_refused():
    async def body(endpoint, plan, host):
        with pytest.raises(ConfigurationError, match="already bound"):
            await endpoint.bind()

    serve(body)
