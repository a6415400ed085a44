"""Tests for the leader-based Ω implementation."""

import pytest

from repro.analysis import check_fd_class_on_world
from repro.errors import ConfigurationError
from repro.fd import LeaderBasedOmega, OMEGA
from repro.sim import FixedDelay, ReliableLink, World
from repro.workloads import partially_synchronous_link


def lan_world(n=5, seed=0):
    return World(n=n, seed=seed, default_link=ReliableLink(FixedDelay(1.0)))


class TestLeaderBasedBasics:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            LeaderBasedOmega(period=-1)

    def test_everyone_trusts_p0_when_stable(self):
        world = lan_world(seed=1)
        dets = world.attach_all(lambda pid: LeaderBasedOmega())
        world.run(until=300.0)
        assert all(det.trusted() == 0 for det in dets)

    def test_leader_crash_moves_to_next(self):
        world = lan_world(seed=1)
        dets = world.attach_all(lambda pid: LeaderBasedOmega())
        world.schedule_crash(0, 50.0)
        world.run(until=400.0)
        for det in dets:
            if det.pid != 0:
                assert det.trusted() == 1

    def test_cascade_of_leader_crashes(self):
        world = lan_world(seed=2)
        dets = world.attach_all(lambda pid: LeaderBasedOmega())
        world.schedule_crash(0, 50.0)
        world.schedule_crash(1, 120.0)
        world.schedule_crash(2, 190.0)
        world.run(until=600.0)
        for det in dets:
            if det.pid > 2:
                assert det.trusted() == 3

    def test_non_leader_crash_is_invisible(self):
        # The detector only monitors candidates; crashing a high pid must not
        # disturb the elected leader.
        world = lan_world(seed=3)
        dets = world.attach_all(lambda pid: LeaderBasedOmega())
        world.schedule_crash(4, 50.0)
        world.run(until=300.0)
        for det in dets:
            if det.pid != 4:
                assert det.trusted() == 0

    def test_steady_state_cost_is_n_minus_1(self):
        n = 7
        world = lan_world(n=n, seed=0)
        world.attach_all(lambda pid: LeaderBasedOmega(period=5.0))
        world.run(until=400.0)
        sends = world.trace.select(
            kind="send", after=200.0, before=400.0,
            where=lambda e: e.get("channel") == "fd",
        )
        per_period = len(sends) / (200.0 / 5.0)
        assert per_period == pytest.approx(n - 1, rel=0.1)

    def test_reinstates_falsely_ruled_out_leader(self):
        # Chaotic pre-GST phase: p0 will be ruled out and must come back.
        world = World(
            n=4, seed=5,
            default_link=partially_synchronous_link(gst=100.0, pre_max=50.0),
        )
        dets = world.attach_all(
            lambda pid: LeaderBasedOmega(initial_timeout=6.0)
        )
        world.run(until=800.0)
        assert all(det.trusted() == 0 for det in dets)
        # At least one process widened p0's timeout along the way.
        assert any(det.timeout_of(0) > 6.0 for det in dets if det.pid != 0)


class TestLeaderBasedOmegaProperty:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_satisfies_omega_under_partial_synchrony(self, seed):
        world = World(
            n=5, seed=seed, default_link=partially_synchronous_link(gst=80.0)
        )
        world.attach_all(lambda pid: LeaderBasedOmega(initial_timeout=8.0))
        world.schedule_crash(0, 120.0)
        world.run(until=1500.0)
        results = check_fd_class_on_world(world, OMEGA)
        assert all(results.values()), results
        assert results["omega"].witness == 1
