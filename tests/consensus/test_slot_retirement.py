"""An applied replicated-log slot is retired: what a replica holds does
not grow with the number of slots it has decided."""

import gc
import tracemalloc

from repro.cluster import LocalCluster
from repro.consensus import ReplicatedStateMachine
from repro.fd import EVENTUALLY_CONSISTENT, OracleFailureDetector
from repro.sim import Component, FixedDelay, ReliableLink, World


class Serial:
    """A virtual loopback rsm cluster fed one command at a time, each run
    until every replica applied it (so each slot carries one command)."""

    def __init__(self, n=3):
        self.cluster = LocalCluster(
            n, transport="loopback", clock="virtual", seed=1, trace_kinds=())
        stacks = self.cluster.deploy_standard_stack(stack="rsm", period=0.05)
        self.cluster.run_virtual(until=1.0)
        self.rsms = stacks["rsm"]
        self.leader = stacks["fd"][0].trusted()
        self.sent = 0

    def commands(self, count):
        for _ in range(count):
            self.sent += 1
            self.rsms[self.leader].submit({"seq": self.sent})
            while min(len(rsm.log) for rsm in self.rsms) < self.sent:
                self.cluster.run_virtual(until=self.cluster.now + 0.005)
        # Past the retirement tick, short of the idle slot's NOOP grace.
        self.cluster.run_virtual(until=self.cluster.now + 0.01)

    def footprint(self):
        """Per replica: everything that used to grow by one entry per slot."""
        rows = []
        for host, rsm in zip(self.cluster.hosts, self.rsms):
            labelled = sum(
                "channel" in series["labels"]
                for entries in host.metrics.snapshot().values()
                for series in entries
            )
            rows.append((
                len(host.process.components), len(rsm._instances),
                host.process.pending_channels, labelled,
                len(host.world.network.sent_by_channel),
            ))
        return rows


def test_what_a_replica_holds_does_not_depend_on_slots_decided():
    serial = Serial()
    serial.commands(100)
    at_100 = serial.footprint()
    assert serial.rsms[serial.leader].current_slot >= 100
    serial.commands(200)
    assert serial.footprint() == at_100


def test_memory_per_command_stays_within_budget():
    serial = Serial()
    serial.commands(50)  # warm: caches, interned labels, set growth
    commands = 200
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        serial.commands(commands)
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    grown = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    # The log, dedupe sets and retired-channel names of three replicas;
    # holding every decided slot's components cost ≈ 28 KB.
    assert grown / commands <= 8 * 1024


def test_a_retired_slot_is_freed_by_reference_counting():
    # A consensus instance and its broadcast hold each other, and a stopped
    # task and its sleep handle too; left in place, every retired slot is
    # ~40 objects per replica for the cycle collector.
    serial = Serial()
    serial.commands(20)
    gc.collect()
    gc.disable()
    try:
        serial.commands(100)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_late_relay_on_a_retired_slot_is_dropped_not_parked():
    world = World(n=3, seed=0, default_link=ReliableLink(FixedDelay(1.0)))
    rsms = [
        world.attach(pid, ReplicatedStateMachine(
            world.attach(pid, OracleFailureDetector(EVENTUALLY_CONSISTENT)),
            idle_grace=50.0,  # slot 1 stays idle: slot 0 is all there is
        ))
        for pid in world.pids
    ]
    world.start()
    rsms[0].submit("x")
    world.run(until=20.0)
    assert all(rsm.log == ["x"] for rsm in rsms)
    # The coordinator decides on its own R-delivery and retires slot 0 at
    # once; the other replicas' relays reach it two link delays later.
    drops = world.trace.select(kind="drop")
    assert drops and all(d.get("reason") == "retired" for d in drops)
    assert {d.get("channel") for d in drops} == {"rsm.c0.rb"}
    assert world.metrics.value(
        "messages_dropped_total", reason="retired") == len(drops)
    assert world.trace.select(kind="parked") == []
    assert all(not world.processes[pid].pending_channels for pid in world.pids)
    assert all(
        "rsm.c0" not in world.processes[pid].components for pid in world.pids)


def test_retirement_state_does_not_grow_with_retired_slots():
    world = World(n=2, seed=0, default_link=ReliableLink(FixedDelay(1.0)))
    world.start()
    proc = world.process(1)
    for slot in range(10_000):  # released in apply order, as the rsm does
        for channel in (f"rsm.c{slot}", f"rsm.c{slot}.rb"):
            proc.detach(proc.attach(Component(channel)))
        if slot == 10:
            size = len(proc._retired)
    assert len(proc._retired) == size == 2
    world.network.send(0, 1, "rsm.c5.rb", "late relay")
    world.network.send(0, 1, "rsm.c10000.rb", "next slot")
    world.run(until=5.0)
    drops = world.trace.select(kind="drop")
    assert [(d.get("channel"), d.get("reason")) for d in drops] == [
        ("rsm.c5.rb", "retired")]
    assert proc.pending_channels == ["rsm.c10000.rb"]
