"""Batched slots and pipelined instances in the replicated state machine.

Three layers of pinning:

* sim runs — many commands ride few slots, logs stay identical across
  replicas, and a mid-batch coordinator crash loses nothing and
  duplicates nothing;
* unit drives of the apply path — out-of-order decides buffer and apply
  in slot order; a decided batch carrying the same command id twice
  applies it exactly once;
* parity — ``max_batch=1, pipeline_depth=1`` reproduces the historical
  one-command-per-slot machine: bare commands on the wire, no batch
  trace events, every ``apply`` at index 0.
"""

import random

import pytest

from repro.consensus import BATCH, NOOP, ReplicatedStateMachine
from repro.fd import (
    EVENTUALLY_CONSISTENT,
    OracleConfig,
    OracleFailureDetector,
)
from repro.sim import FixedDelay, ReliableLink, World


def build(n=4, seed=0, stabilize=0.0, **rsm_kwargs):
    world = World(n=n, seed=seed, default_link=ReliableLink(FixedDelay(1.0)))
    rsms = []
    for pid in world.pids:
        fd = world.attach(
            pid,
            OracleFailureDetector(
                EVENTUALLY_CONSISTENT,
                OracleConfig(
                    stabilize_time=stabilize,
                    pre_behavior="erratic" if stabilize else "ideal",
                ),
                channel="fd",
            ),
        )
        rsms.append(
            world.attach(pid, ReplicatedStateMachine(fd, **rsm_kwargs))
        )
    world.start()
    return world, rsms


# ------------------------------------------------------------------ batching
class TestBatchedSlots:
    def test_many_commands_few_slots(self):
        world, rsms = build(seed=10, max_batch=8, pipeline_depth=2)
        for i in range(16):
            rsms[0].submit(f"c{i}")
        world.run(until=900.0)
        logs = [tuple(rsm.log) for rsm in rsms]
        assert len(set(logs)) == 1
        assert sorted(logs[0]) == sorted(f"c{i}" for i in range(16))
        # 16 commands submitted before the first decide must not take 16
        # slots: batching packs them into the pipeline window.
        command_slots = {
            e.get("slot") for e in world.trace.select(kind="apply", pid=0)
        }
        assert len(command_slots) < 16
        sizes = [
            e.get("size")
            for e in world.trace.select(kind="rsm.batch_proposed", pid=0)
        ]
        assert sizes and max(sizes) > 1

    def test_batch_applied_event_shape(self):
        world, rsms = build(seed=11, max_batch=4)
        for i in range(4):
            rsms[0].submit(i)
        world.run(until=900.0)
        applied = world.trace.select(kind="rsm.batch_applied", pid=1)
        assert applied
        assert all(e.get("duplicates") == 0 for e in applied)
        assert sum(e.get("size") for e in applied) == 4

    def test_validation(self):
        from repro.errors import ConfigurationError

        world = World(n=1, seed=0)
        fd = world.attach(
            0,
            OracleFailureDetector(
                EVENTUALLY_CONSISTENT, OracleConfig(), channel="fd"
            ),
        )
        with pytest.raises(ConfigurationError):
            ReplicatedStateMachine(fd, max_batch=0)
        with pytest.raises(ConfigurationError):
            ReplicatedStateMachine(fd, pipeline_depth=0)

    def test_coordinator_crash_mid_batch_exactly_once(self):
        # Commands in flight when the coordinator dies must be re-proposed
        # by a survivor into a later slot — applied exactly once, never
        # lost, never doubled.
        world, rsms = build(
            n=5, seed=12, max_batch=4, pipeline_depth=2, stabilize=40.0
        )
        for i in range(8):
            rsms[1].submit(f"k{i}")
        world.scheduler.schedule(3.0, lambda: world.crash(0))
        world.run(until=3000.0)
        survivors = [rsm for rsm in rsms if rsm.pid != 0]
        logs = [tuple(rsm.log) for rsm in survivors]
        assert len(set(logs)) == 1
        for i in range(8):
            assert logs[0].count(f"k{i}") == 1


# ------------------------------------------------------- apply-path internals
def _bare_rsm(max_batch=8, pipeline_depth=4):
    world = World(n=1, seed=0)
    fd = world.attach(
        0,
        OracleFailureDetector(
            EVENTUALLY_CONSISTENT, OracleConfig(), channel="fd"
        ),
    )
    rsm = world.attach(
        0,
        ReplicatedStateMachine(
            fd, max_batch=max_batch, pipeline_depth=pipeline_depth
        ),
    )
    return world, rsm


class TestApplyPath:
    def test_out_of_order_decides_apply_in_slot_order(self):
        world, rsm = _bare_rsm()
        applied = []
        rsm.on_apply(lambda slot, cmd: applied.append((slot, cmd)))
        # Slot 1 decides before slot 0: nothing may apply until 0 lands.
        rsm._on_slot_decided(1, (BATCH, ((0, 1, "b"),)))
        assert applied == [] and rsm.log == []
        rsm._on_slot_decided(0, (BATCH, ((0, 0, "a"),)))
        assert applied == [(0, "a"), (1, "b")]
        assert rsm.log == ["a", "b"]
        assert rsm.current_slot == 2

    def test_duplicate_cid_across_slots_applies_once(self):
        # A command re-proposed into a second slot (retry race) applies on
        # its first decide only.
        world, rsm = _bare_rsm()
        rsm._on_slot_decided(0, (BATCH, ((0, 0, "x"),)))
        rsm._on_slot_decided(1, (BATCH, ((0, 0, "x"), (0, 1, "y"))))
        assert rsm.log == ["x", "y"]
        dup = [
            e for e in world.trace.select(kind="rsm.batch_applied")
            if e.get("slot") == 1
        ]
        assert dup and dup[0].get("duplicates") == 1

    def test_duplicate_cid_inside_one_batch_applies_once(self):
        world, rsm = _bare_rsm()
        applied = []
        rsm.on_apply(lambda slot, cmd: applied.append(cmd))
        rsm._on_slot_decided(
            0, (BATCH, ((0, 0, "x"), (0, 0, "x"), (0, 1, "y")))
        )
        assert rsm.log == ["x", "y"]
        assert applied == ["x", "y"]

    def test_apply_indexes_are_contiguous_per_slot(self):
        world, rsm = _bare_rsm()
        rsm._on_slot_decided(
            0, (BATCH, ((0, 0, "a"), (0, 1, "b"), (0, 2, "c")))
        )
        events = world.trace.select(kind="apply", pid=0)
        assert [e.get("index") for e in events] == [0, 1, 2]
        assert all(e.get("slot") == 0 for e in events)

    def test_noop_and_bare_command_shapes_still_decode(self):
        world, rsm = _bare_rsm()
        rsm._on_slot_decided(0, NOOP)
        rsm._on_slot_decided(1, (0, 0, "bare"))
        assert rsm.log == ["bare"]
        # NOOP slots and bare commands never emit batch events.
        assert world.trace.select(kind="rsm.batch_applied") == []


# ------------------------------------------------------ pending-queue cost
class TestPendingQueueCost:
    def test_shuffled_arrivals_stay_ordered_at_logarithmic_key_cost(self):
        # Counted, not timed.  Every CMD arrival places one command into an
        # already ordered queue: 3 id checks + ~log2(backlog) + 1 key calls
        # for an ordered insert, one per *queued command* for a re-sort.
        world, rsm = _bare_rsm()
        cid = ReplicatedStateMachine._cid
        calls = 0

        def counting_cid(command):
            nonlocal calls
            calls += 1
            return cid(command)

        rsm._cid = counting_cid
        commands = [(pid, seq, f"c{pid}.{seq}")
                    for pid in range(4) for seq in range(512)]
        random.Random(5).shuffle(commands)
        for command in commands[:1024]:
            rsm.on_message(0, ("CMD", command))
        delivery_calls = calls
        # A decided batch trims the queue from the front; later arrivals
        # (lower ids among them) must still land in order.
        decided = tuple(rsm._pending[:256])
        rsm._on_slot_decided(0, (BATCH, decided))
        calls = 0
        for command in commands[1024:]:
            rsm.on_message(0, ("CMD", command))
        delivery_calls += calls
        assert rsm._pending == sorted(set(commands) - set(decided))
        assert rsm.log == [command[2] for command in decided]
        # Measured: 13.5 (ordered insert), 899.5 (append + sort).
        assert delivery_calls / len(commands) < 28


# -------------------------------------------------------------------- parity
class TestUnbatchedParity:
    def test_max_batch_1_reproduces_legacy_shape(self):
        # The historical machine: one bare command per slot, no batch
        # markers anywhere — trace-compatible with pre-batching runs.
        world, rsms = build(seed=13, max_batch=1, pipeline_depth=1)
        for i in range(3):
            rsms[0].submit(f"p{i}")
        world.run(until=900.0)
        logs = [tuple(rsm.log) for rsm in rsms]
        assert len(set(logs)) == 1
        assert sorted(logs[0]) == ["p0", "p1", "p2"]
        assert world.trace.select(kind="rsm.batch_proposed") == []
        assert world.trace.select(kind="rsm.batch_applied") == []
        applies = world.trace.select(kind="apply")
        assert applies and all(e.get("index") == 0 for e in applies)

    def test_same_seed_same_trace_batched(self):
        # Batching stays deterministic in the simulator: identical runs
        # produce identical apply streams.
        def run_once():
            world, rsms = build(seed=14, max_batch=4, pipeline_depth=2)
            for i in range(6):
                rsms[0].submit(i)
            world.run(until=900.0)
            return [
                (e.pid, e.get("slot"), e.get("index"), e.get("command"))
                for e in world.trace.select(kind="apply")
            ]

        assert run_once() == run_once()
