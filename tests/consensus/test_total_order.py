"""Tests for Total-Order (atomic) Broadcast."""

import pytest

from repro.consensus import TotalOrderBroadcast
from repro.fd import (
    EVENTUALLY_CONSISTENT,
    OracleConfig,
    OracleFailureDetector,
)
from repro.sim import FixedDelay, ReliableLink, World


def build(n=4, seed=0, stabilize=0.0, **tob_kwargs):
    world = World(n=n, seed=seed, default_link=ReliableLink(FixedDelay(1.0)))
    tobs = []
    for pid in world.pids:
        fd = world.attach(pid, OracleFailureDetector(
            EVENTUALLY_CONSISTENT,
            OracleConfig(
                pre_behavior="erratic" if stabilize else "ideal",
                stabilize_time=stabilize,
            ),
        ))
        tobs.append(world.attach(pid, TotalOrderBroadcast(fd, **tob_kwargs)))
    world.start()
    return world, tobs


class TestTotalOrder:
    def test_single_broadcast_delivered_everywhere(self):
        world, tobs = build()
        tobs[1].to_broadcast("hello")
        world.run(until=400.0)
        for tob in tobs:
            assert tob.delivered == [(1, "hello")]

    def test_same_order_at_every_process(self):
        world, tobs = build(seed=1)
        tobs[0].to_broadcast("a")
        world.scheduler.schedule_at(12.0, lambda: tobs[2].to_broadcast("b"))
        world.scheduler.schedule_at(25.0, lambda: tobs[3].to_broadcast("c"))
        world.run(until=900.0)
        sequences = {tuple(t.delivered) for t in tobs}
        assert len(sequences) == 1
        assert {m for _, m in tobs[0].delivered} == {"a", "b", "c"}

    def test_prefix_property_mid_run(self):
        """At any instant, delivery sequences are prefix-comparable."""
        world, tobs = build(seed=2)
        for i in range(4):
            world.scheduler.schedule_at(
                5.0 + 10 * i, lambda i=i: tobs[i].to_broadcast(f"m{i}")
            )
        for checkpoint in (30.0, 60.0, 120.0, 600.0):
            world.run(until=checkpoint)
            seqs = sorted((tuple(t.delivered) for t in tobs), key=len)
            for shorter, longer in zip(seqs, seqs[1:]):
                assert longer[: len(shorter)] == shorter

    def test_total_order_holds_with_batched_log(self):
        # The batching/pipelining knobs forward to the underlying log;
        # all four TO-broadcast properties must survive them.
        world, tobs = build(seed=7, max_batch=4, pipeline_depth=2)
        for i in range(6):
            tobs[i % 4].to_broadcast(f"b{i}")
        world.run(until=900.0)
        sequences = {tuple(t.delivered) for t in tobs}
        assert len(sequences) == 1
        assert {m for _, m in tobs[0].delivered} == {
            f"b{i}" for i in range(6)
        }

    def test_callbacks_fire_in_order(self):
        world, tobs = build(seed=3)
        got = []
        tobs[2].on_to_deliver(lambda origin, m: got.append((origin, m)))
        tobs[0].to_broadcast("x")
        world.scheduler.schedule_at(15.0, lambda: tobs[1].to_broadcast("y"))
        world.run(until=600.0)
        assert got == tobs[2].delivered

    def test_order_preserved_under_crash(self):
        world, tobs = build(n=5, seed=4)
        tobs[0].to_broadcast("survives")
        world.scheduler.schedule_at(8.0, lambda: world.crash(1))
        world.scheduler.schedule_at(20.0, lambda: tobs[2].to_broadcast("later"))
        world.run(until=900.0)
        live = [t for t in tobs if not t.crashed]
        sequences = {tuple(t.delivered) for t in live}
        assert len(sequences) == 1
        assert [m for _, m in live[0].delivered] == ["survives", "later"]

    def test_progress_with_erratic_detector(self):
        world, tobs = build(seed=5, stabilize=80.0)
        tobs[3].to_broadcast("eventually-ordered")
        world.run(until=3000.0)
        assert all(
            ("eventually-ordered" in [m for _, m in t.delivered])
            for t in tobs
        )

