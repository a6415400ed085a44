"""Tests for the ring-based ◇S/◇P detector."""

import pytest

from repro.analysis import (
    check_fd_class,
    check_fd_class_on_world,
    detection_latency,
)
from repro.errors import ConfigurationError
from repro.fd import EVENTUALLY_PERFECT, OMEGA, RingDetector
from repro.sim import FixedDelay, ReliableLink, World
from repro.workloads import partially_synchronous_link


def lan_world(n=5, seed=0):
    return World(n=n, seed=seed, default_link=ReliableLink(FixedDelay(1.0)))


class TestRingBasics:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            RingDetector(period=0)

    def test_monitors_immediate_predecessor_initially(self):
        world = lan_world()
        dets = world.attach_all(lambda pid: RingDetector())
        world.start()
        assert [d.target for d in dets] == [4, 0, 1, 2, 3]

    def test_no_suspicion_on_stable_lan(self):
        world = lan_world(seed=1)
        dets = world.attach_all(lambda pid: RingDetector())
        world.run(until=400.0)
        assert all(det.suspected() == frozenset() for det in dets)
        # Ring leader rule: everyone trusts process 0.
        assert all(det.trusted() == 0 for det in dets)

    def test_crash_retargets_monitor(self):
        world = lan_world(seed=1)
        dets = world.attach_all(lambda pid: RingDetector())
        world.schedule_crash(4, 50.0)
        world.run(until=400.0)
        # Process 0 monitored 4; must now monitor 3.
        assert dets[0].target == 3
        assert 4 in dets[0].suspected()

    def test_suspicion_propagates_to_everyone(self):
        world = lan_world(n=6, seed=2)
        dets = world.attach_all(lambda pid: RingDetector())
        world.schedule_crash(2, 50.0)
        world.run(until=800.0)
        for det in dets:
            if det.pid != 2:
                assert 2 in det.suspected(), f"pid {det.pid} missed the crash"

    def test_leader_is_first_non_suspected_in_ring_order(self):
        world = lan_world(seed=3)
        dets = world.attach_all(lambda pid: RingDetector())
        world.schedule_crash(0, 50.0)
        world.schedule_crash(1, 60.0)
        world.run(until=900.0)
        for det in dets:
            if det.pid not in (0, 1):
                assert det.trusted() == 2

    def test_message_cost_is_2n_per_period(self):
        n = 6
        world = lan_world(n=n, seed=0)
        world.attach_all(lambda pid: RingDetector(period=5.0))
        world.run(until=300.0)
        sends = world.trace.select(
            kind="send", after=150.0, before=300.0,
            where=lambda e: e.get("channel") == "fd",
        )
        periods = 150.0 / 5.0
        per_period = len(sends) / periods
        assert per_period == pytest.approx(2 * n, rel=0.15)

    def test_detection_latency_grows_with_distance(self):
        """The DISC'99 drawback: the suspect list travels hop by hop."""
        n = 8
        world = lan_world(n=n, seed=1)
        world.attach_all(lambda pid: RingDetector(period=5.0))
        world.schedule_crash(2, 60.0)
        world.run(until=1500.0)
        latency = detection_latency(
            world.trace, 2, 60.0, world.correct_pids, channel="fd"
        )
        assert latency is not None
        # Must exceed several periods: information crosses ~n-1 hops.
        assert latency > 3 * 5.0


class TestRingClassProperties:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_satisfies_dp_under_partial_synchrony(self, seed):
        world = World(
            n=5, seed=seed,
            default_link=partially_synchronous_link(gst=60.0),
        )
        world.attach_all(lambda pid: RingDetector(initial_timeout=10.0))
        world.schedule_crash(3, 100.0)
        world.run(until=2500.0)
        results = check_fd_class_on_world(world, EVENTUALLY_PERFECT)
        assert all(results.values()), results

    def test_ring_leader_satisfies_omega(self):
        world = World(
            n=5, seed=4, default_link=partially_synchronous_link(gst=60.0)
        )
        world.attach_all(lambda pid: RingDetector(initial_timeout=10.0))
        world.schedule_crash(0, 100.0)
        world.run(until=2500.0)
        result = check_fd_class(world.trace, OMEGA, world.correct_pids)["omega"]
        assert result.ok
        assert result.witness == 1
