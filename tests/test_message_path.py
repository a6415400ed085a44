"""The one send path (``repro.sim.network``), on both of its crossings.

admit → record → self-send or fault → cross → deliver is written once; the
simulator's ``Network`` and the runtime's ``RuntimeNetwork`` add only how a
message crosses.  Every assertion here therefore runs twice: on a ``World``
and on a virtual-clock ``LocalCluster`` (codec, loopback transport and
all) — the fault step included: an injected loss is the same counted,
recorded ``drop`` on both.  What the two crossings *converge to* under a
whole protocol stack is ``tests/net/test_parity.py``.
"""

import pytest

from repro.net import LocalCluster
from repro.sim import Component, FixedDelay, ReliableLink, World

N = 4


class Sink(Component):
    channel = "sink"

    def __init__(self):
        super().__init__()
        self.heard = []

    def on_message(self, src, payload):
        self.heard.append((src, payload, self.now))


class SimSubstrate:
    """Zero-delay links, so ties between a call's deliveries are visible."""

    def __init__(self, seed=0):
        self.world = World(
            n=N, seed=seed, default_link=ReliableLink(FixedDelay(0.0))
        )
        self.trace = self.world.trace
        self.plan = self.world.plan
        self.fault = self.world.fault
        self.at = self.world.scheduler.schedule_at
        self.comps = self.world.attach_all(lambda pid: Sink())
        self.world.start()

    def network(self, pid):
        return self.world.network

    def run(self, until=10.0):
        self.world.run(until=until)

    def total(self, counter):
        return getattr(self.world.network, counter)

    def fault_drops_metric(self):
        return self.world.metrics.value("messages_dropped_total", reason="fault")


class RuntimeSubstrate:
    def __init__(self, seed=0):
        self.cluster = LocalCluster(
            n=N, transport="loopback", clock="virtual", seed=seed
        )
        self.trace = self.cluster.trace
        self.plan = self.cluster.plan
        self.fault = self.cluster.fault
        self.at = self.cluster.clock.schedule_at
        self.comps = self.cluster.attach_all(lambda pid: Sink())
        self.cluster.start_virtual()

    def network(self, pid):
        return self.cluster.host(pid).world.network

    def run(self, until=10.0):
        self.cluster.run_virtual(until=until)

    def total(self, counter):
        return sum(getattr(h.world.network, counter) for h in self.cluster.hosts)

    def fault_drops_metric(self):
        return sum(
            h.metrics.value("messages_dropped_total", reason="fault")
            for h in self.cluster.hosts
        )


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
    assert [c.heard for c in sub.comps] == [[(0, "x", 0.0)]] * 3 + [[]]
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
    sub.plan.isolate(1)
    sub.comps[0].broadcast("z", include_self=True)
    assert _records(sub.trace, "send", "drop") == [
        ("send", 0, True), ("send", 1, False),
        ("send", 2, False), ("send", 3, False), ("drop", 1, None),
    ]
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
    assert sub.comps[0].heard.count((2, "old", 0.0)) == 1
    assert sub.comps[2].heard == [
        (2, "old", 0.0), (2, "new", 0.0), (2, "mine", 0.0),
    ]


# ------------------------------------------------------------ the fault step
def heard(sub, pid):
    return [payload for _, payload, _ in sub.comps[pid].heard]


def assert_fault_drops(sub, *pairs):
    """Every injected loss is one ``dropped_total``, one
    ``messages_dropped_total{reason="fault"}`` and one ``drop`` record —
    exactly the ``(src, dst)`` *pairs*, in order."""
    drops = sub.trace.select(kind="drop")
    assert [(ev.get("src"), ev.get("dst")) for ev in drops] == list(pairs)
    assert all(
        ev.get("reason") == "fault" and ev.get("channel") == "sink"
        and ev.pid == ev.get("src") for ev in drops
    )
    assert sub.total("dropped_total") == len(pairs)
    assert sub.fault_drops_metric() == len(pairs)


def test_cross_group_loss_both_ways(sub):
    sub.fault("partition", {"groups": [[0, 1], [2, 3]]})
    sub.comps[0].send(1, "same-side")
    sub.comps[0].send(2, "out")
    sub.comps[2].send(0, "back")
    sub.run()
    assert heard(sub, 1) == ["same-side"]
    assert heard(sub, 0) == heard(sub, 2) == []
    assert_fault_drops(sub, (0, 2), (2, 0))


def test_implicit_rest_group(sub):
    sub.fault("partition", {"groups": [[0, 1]]})  # 2, 3 form the rest group
    sub.comps[2].send(3, "rest-to-rest")
    sub.comps[2].send(0, "rest-to-named")
    sub.run()
    assert heard(sub, 3) == ["rest-to-rest"]
    assert heard(sub, 0) == []
    assert_fault_drops(sub, (2, 0))


def test_isolate(sub):
    sub.fault("isolate", {"pid": 3})
    sub.comps[3].send(0, "trapped")
    sub.comps[0].send(3, "unreachable")
    sub.comps[0].send(1, "fine")
    sub.run()
    assert heard(sub, 0) == heard(sub, 3) == []
    assert heard(sub, 1) == ["fine"]
    assert_fault_drops(sub, (3, 0), (0, 3))


def test_heal_restores_traffic(sub):
    sub.fault("partition", {"groups": [[0]]})
    assert sub.plan.partitioned
    sub.comps[0].send(2, "lost")
    sub.fault("heal", {})
    assert not sub.plan.partitioned and not sub.plan.active
    sub.comps[0].send(2, "after-heal")
    sub.run()
    assert heard(sub, 2) == ["after-heal"]
    assert_fault_drops(sub, (0, 2))


def test_partition_heal_window_via_fault_at(sub):
    sub.fault("partition", {"groups": [[0, 1]]}, at=5.0)
    sub.fault("heal", {}, at=8.0)
    for t, payload in ((4.0, "before"), (6.0, "during"), (9.0, "after")):
        sub.at(t, sub.comps[0].send, 2, payload)
    sub.run()
    assert heard(sub, 2) == ["before", "after"]
    assert_fault_drops(sub, (0, 2))
    assert [
        (ev.time, ev.kind, ev.data) for ev in sub.trace.events
        if ev.kind.startswith("scenario.")
    ] == [
        (5.0, "scenario.partition", {"groups": [[0, 1], [2, 3]]}),
        (8.0, "scenario.heal", {}),
    ]


def test_stall_silences_both_directions(sub):
    sub.fault("stall", {"pid": 1})
    sub.comps[1].send(0, "from-stalled")
    sub.comps[0].send(1, "to-stalled")
    sub.comps[0].send(2, "bystander")
    sub.comps[1].send_self("own-timer")  # a self-send never crosses
    sub.fault("resume", {"pid": 1})
    sub.comps[1].send(0, "resumed")
    sub.run()
    assert heard(sub, 0) == ["resumed"]
    assert heard(sub, 1) == ["own-timer"]
    assert heard(sub, 2) == ["bystander"]
    assert_fault_drops(sub, (1, 0), (0, 1))


def test_fixed_extra_delay_arrives_late(sub):
    sub.fault("degrade", {"src": 0, "dst": 1, "delay": 3.0})
    sub.comps[0].send(1, "slow")
    sub.comps[0].send(2, "fast")
    sub.run(until=2.9)
    assert heard(sub, 1) == [] and heard(sub, 2) == ["fast"]  # in flight
    sub.fault("restore", {"src": 0, "dst": 1})
    sub.comps[0].send(1, "fast-again")
    sub.run()
    assert sub.comps[1].heard == [(0, "fast-again", 2.9), (0, "slow", 3.0)]
    assert_fault_drops(sub)  # a delay is not a loss


@pytest.mark.parametrize(
    "substrate", [SimSubstrate, RuntimeSubstrate], ids=["sim", "runtime"]
)
def test_seeded_loss_is_reproducible_and_seed_sensitive(substrate):
    def outcomes(seed):
        sub = substrate(seed=seed)
        sub.fault("storm", {"loss": 0.5})
        for i in range(30):
            sub.comps[0].send(1, i)
        sub.run()
        kept = heard(sub, 1)
        assert_fault_drops(sub, *[(0, 1)] * (30 - len(kept)))
        return kept

    assert outcomes(3) == outcomes(3)
    assert 0 < len(outcomes(3)) < 30
    assert outcomes(3) != outcomes(4)  # and the seed actually matters
