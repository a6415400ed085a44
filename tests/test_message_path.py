"""The one send path (``repro.sim.network``), on both of its crossings.

admit → record → self-send or cross → deliver is written once; the
simulator's ``Network`` and the runtime's ``RuntimeNetwork`` add only how a
message crosses.  Every assertion here therefore runs twice: on a ``World``
and on a virtual-clock ``LocalCluster`` (codec, loopback transport, fault
proxy and all).  What the two crossings *converge to* under a whole
protocol stack is ``tests/net/test_parity.py``.
"""

import pytest

from repro.net import LocalCluster
from repro.sim import Component, FairLossyLink, FixedDelay, ReliableLink, World

N = 4


class Sink(Component):
    channel = "sink"

    def __init__(self):
        super().__init__()
        self.heard = []

    def on_message(self, src, payload):
        self.heard.append((src, payload))


class SimSubstrate:
    """Zero-delay links, so ties between a call's deliveries are visible."""

    #: A link-level loss leaves a ``drop`` record.
    drop_records = 1

    def __init__(self):
        self.world = World(
            n=N, seed=0, default_link=ReliableLink(FixedDelay(0.0))
        )
        self.trace = self.world.trace
        self.comps = self.world.attach_all(lambda pid: Sink())
        self.world.start()

    def network(self, pid):
        return self.world.network

    def lose_crossing(self, src, dst):
        self.world.network.set_link(src, dst, FairLossyLink(deliver_every=2))

    def run(self):
        self.world.run(until=10.0)

    def total(self, counter):
        return getattr(self.world.network, counter)


class RuntimeSubstrate:
    #: A ``FaultPlan`` loss is counted by the plan but leaves no ``drop``
    #: record yet (ROADMAP item 5 records the gap).
    drop_records = 0

    def __init__(self):
        self.cluster = LocalCluster(n=N, transport="loopback", clock="virtual")
        self.trace = self.cluster.trace
        self.comps = self.cluster.attach_all(lambda pid: Sink())
        self.cluster.start_virtual()

    def network(self, pid):
        return self.cluster.host(pid).world.network

    def lose_crossing(self, src, dst):
        self.cluster.plan.isolate(dst)

    def run(self):
        self.cluster.run_virtual(until=10.0)

    def total(self, counter):
        return sum(getattr(h.world.network, counter) for h in self.cluster.hosts)


@pytest.fixture(params=[SimSubstrate, RuntimeSubstrate], ids=["sim", "runtime"])
def sub(request):
    return request.param()


def _records(trace, *kinds):
    return [
        (ev.kind, ev.get("dst"), ev.get("loopback"))
        for ev in trace.events if ev.kind in kinds
    ]


def test_counters_after_mixed_self_and_network_send_many(sub):
    net = sub.network(0)
    msgs = net.send_many(0, [0, 1, 2], "sink", "x", "est", 3)
    assert [(m.src, m.dst, m.tag, m.round) for m in msgs] == [
        (0, 0, "est", 3), (0, 1, "est", 3), (0, 2, "est", 3),
    ]
    assert net.sent_total == 3
    assert net.sent_network == 2  # the self-send is not a network message
    assert net.sent_by_channel == {"sink": 3}
    assert sub.total("delivered_total") == 0  # nothing is delivered inline
    sub.run()
    assert sub.total("delivered_total") == 3
    assert sub.total("dropped_total") == 0
    assert [c.heard for c in sub.comps] == [[(0, "x")]] * 3 + [[]]
    send = sub.trace.select(kind="send")[0]
    assert (send.get("tag"), send.get("round")) == ("est", 3)


@pytest.mark.parametrize(
    "substrate", [SimSubstrate, RuntimeSubstrate], ids=["sim", "runtime"]
)
def test_send_many_equals_n_sends(substrate):
    def run(batched):
        sub = substrate()
        net = sub.network(1)
        if batched:
            net.send_many(1, [0, 1, 3], "sink", "y", "t", 1)
        else:
            for dst in (0, 1, 3):
                net.send(1, dst, "sink", "y", "t", 1)
        sub.run()
        counters = (
            net.sent_total, net.sent_network, net.sent_by_channel,
            sub.total("delivered_total"), sub.total("dropped_total"),
        )
        records = [
            (ev.time, ev.kind, ev.pid, sorted(ev.data.items()))
            for ev in sub.trace.events if ev.kind in ("send", "deliver")
        ]
        return counters, sorted(records), [c.heard for c in sub.comps]

    assert run(batched=True) == run(batched=False)


def test_record_order_of_one_broadcast_with_a_dropped_crossing(sub):
    """All of a call's ``send`` records, in destination order, come before
    anything its crossing records; its self-send is queued first, so with
    every delay zero it is delivered ahead of its network siblings."""
    sub.lose_crossing(0, 1)
    sub.comps[0].broadcast("z", include_self=True)
    assert _records(sub.trace, "send", "drop") == [
        ("send", 0, True), ("send", 1, False),
        ("send", 2, False), ("send", 3, False),
    ] + [("drop", 1, None)] * sub.drop_records
    sub.run()
    assert _records(sub.trace, "deliver") == [
        ("deliver", 0, None), ("deliver", 2, None), ("deliver", 3, None),
    ]
    assert sub.network(0).sent_network == 3
    assert sub.total("delivered_total") == 3


def test_stubborn_broadcast_keeps_one_slot_per_destination_and_tag(sub):
    comp = sub.comps[2]
    comp.enable_stubborn_resend(1.0)
    comp.broadcast("old", include_self=True, tag="a")
    comp.broadcast("new", include_self=True, tag="a", round=2)
    comp.send(0, "other", tag="b")
    comp.send_self("mine", tag="b")
    assert comp._stubborn_last == {
        (0, "a"): ("new", 2), (1, "a"): ("new", 2), (3, "a"): ("new", 2),
        (0, "b"): ("other", None),
    }  # one slot per (dst, tag), none for self
    before = sub.network(2).sent_network
    sub.run()
    # Ten ticks (t = 1 .. 10), each resending exactly the four slots.
    assert sub.network(2).sent_network - before == 40
    assert sub.comps[0].heard.count((2, "old")) == 1
    assert sub.comps[2].heard == [(2, "old"), (2, "new"), (2, "mine")]
