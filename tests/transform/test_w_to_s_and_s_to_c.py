"""Tests for the gossip ◇W→◇S transformation and the counter-based ◇S→◇C."""

import pytest

from repro.analysis import check_fd_class_on_world
from repro.fd import (
    EVENTUALLY_CONSISTENT,
    EVENTUALLY_STRONG,
    EVENTUALLY_WEAK,
    OracleConfig,
    OracleFailureDetector,
)
from repro.sim import FixedDelay, ReliableLink, World
from repro.transform import SToC, WToS, attach_s_to_c_stack


def w_to_s_world(n=5, seed=0, slander=frozenset()):
    world = World(n=n, seed=seed, default_link=ReliableLink(FixedDelay(1.0)))
    dets = []
    for pid in world.pids:
        w_det = world.attach(
            pid,
            OracleFailureDetector(
                EVENTUALLY_WEAK,
                OracleConfig(pre_behavior="ideal", slander=slander),
                channel="fd.w",
            ),
        )
        dets.append(world.attach(pid, WToS(w_det, period=5.0)))
    return world, dets


class TestWToS:
    def test_upgrades_weak_to_strong_completeness(self):
        world, dets = w_to_s_world(seed=1)
        world.schedule_crash(4, 30.0)
        world.run(until=400.0)
        # The ◇W oracle only has the witness (pid 0) suspect the crash; the
        # gossip must spread it to everyone.
        for det in dets:
            if det.pid != 4:
                assert 4 in det.suspected()
        result = check_fd_class_on_world(world, EVENTUALLY_STRONG)
        assert result["completeness"].ok

    def test_senders_are_cleared(self):
        world, dets = w_to_s_world(seed=1)
        world.run(until=300.0)
        # No crashes: gossip from everyone keeps everyone clear.
        assert all(det.suspected() == frozenset() for det in dets)

    def test_preserves_eventual_weak_accuracy_with_slander(self):
        world, dets = w_to_s_world(seed=2, slander=frozenset({2}))
        world.schedule_crash(4, 30.0)
        world.run(until=500.0)
        results = check_fd_class_on_world(world, EVENTUALLY_STRONG)
        assert all(results.values()), results
        # Process 2 stays slandered (it is in every report), process 0 clean.
        assert 2 in dets[1].suspected()

    def test_message_cost_n_squared(self):
        n = 5
        world, dets = w_to_s_world(n=n, seed=0)
        world.run(until=300.0)
        sends = world.trace.select(
            kind="send", after=150.0, before=300.0,
            where=lambda e: e.get("channel") == "fd",
        )
        per_period = len(sends) / (150.0 / 5.0)
        assert per_period == pytest.approx(n * (n - 1), rel=0.1)


def s_to_c_world(n=5, seed=0, slander=frozenset(), stabilize=0.0, leader=None):
    world = World(n=n, seed=seed, default_link=ReliableLink(FixedDelay(1.0)))
    config = OracleConfig(
        pre_behavior="ideal" if stabilize == 0 else "erratic",
        stabilize_time=stabilize,
        slander=slander,
        leader=leader,
    )
    dets = attach_s_to_c_stack(
        world,
        lambda pid: OracleFailureDetector(
            EVENTUALLY_STRONG, config, channel="fd.s"
        ),
        period=5.0,
    )
    return world, dets


class TestSToC:
    def test_elects_common_correct_leader(self):
        world, dets = s_to_c_world(seed=1)
        world.schedule_crash(0, 30.0)
        world.run(until=600.0)
        leaders = {det.trusted() for det in dets if det.pid != 0}
        assert len(leaders) == 1
        assert leaders.pop() in world.correct_pids

    def test_crashed_processes_accumulate_counts(self):
        world, dets = s_to_c_world(seed=1)
        world.schedule_crash(0, 30.0)
        world.run(until=600.0)
        det = dets[1]
        assert det.count_of(0) > det.count_of(1)

    def test_leader_not_crashed_despite_low_count(self):
        # A process that crashes *early* has a low count; the argmin must
        # still not elect it forever because its count keeps growing via
        # reports from everyone else.
        world, dets = s_to_c_world(seed=3)
        world.schedule_crash(1, 10.0)
        world.run(until=800.0)
        for det in dets:
            if det.pid != 1:
                assert det.trusted() != 1

    def test_satisfies_ec_class_with_erratic_prefix(self):
        world, dets = s_to_c_world(seed=4, stabilize=80.0)
        world.schedule_crash(4, 120.0)
        world.run(until=1500.0)
        results = check_fd_class_on_world(world, EVENTUALLY_CONSISTENT)
        assert all(results.values()), results

    def test_slandered_process_not_elected(self):
        # Designate 1 as the ◇S oracle's accuracy witness so that 0 may be
        # slandered (the oracle never slanders its designated leader).
        world, dets = s_to_c_world(seed=5, slander=frozenset({0}), leader=1)
        world.run(until=800.0)
        for det in dets:
            assert det.trusted() != 0
            # ...but slander keeps 0 suspected (a process never suspects
            # itself, so skip pid 0's own view).
            if det.pid != 0:
                assert 0 in det.suspected()
