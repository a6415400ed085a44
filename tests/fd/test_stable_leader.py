"""Tests for the stable Ω implementation (accusation counters)."""

import pytest

from repro.analysis import check_fd_class_on_world
from repro.errors import ConfigurationError
from repro.fd import LeaderBasedOmega, OMEGA, StableLeaderOmega
from repro.sim import (
    FixedDelay,
    ReliableLink,
    UniformDelay,
    World,
)
from repro.workloads import partially_synchronous_link


def lan_world(n=5, seed=0):
    return World(n=n, seed=seed, default_link=ReliableLink(FixedDelay(1.0)))


class TestStableLeaderBasics:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            StableLeaderOmega(period=0)

    def test_everyone_trusts_p0_when_stable(self):
        world = lan_world(seed=1)
        dets = world.attach_all(lambda pid: StableLeaderOmega())
        world.run(until=400.0)
        assert all(det.trusted() == 0 for det in dets)
        # And nobody churned.
        assert all(det.leader_changes == 0 for det in dets)

    def test_leader_crash_elects_successor(self):
        world = lan_world(seed=2)
        dets = world.attach_all(lambda pid: StableLeaderOmega())
        world.schedule_crash(0, 60.0)
        world.run(until=600.0)
        leaders = {det.trusted() for det in dets if det.pid != 0}
        assert len(leaders) == 1
        assert leaders.pop() in world.correct_pids

    def test_counters_converge_across_processes(self):
        world = lan_world(seed=3)
        dets = world.attach_all(lambda pid: StableLeaderOmega())
        world.schedule_crash(0, 60.0)
        world.run(until=800.0)
        live = [d for d in dets if not d.crashed]
        for q in range(world.n):
            values = {d.counter_of(q) for d in live}
            assert len(values) == 1, (q, values)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_satisfies_omega_under_partial_synchrony(self, seed):
        world = World(
            n=5, seed=seed, default_link=partially_synchronous_link(gst=80.0)
        )
        world.attach_all(lambda pid: StableLeaderOmega(initial_timeout=8.0))
        world.schedule_crash(0, 120.0)
        world.run(until=2000.0)
        results = check_fd_class_on_world(world, OMEGA)
        assert all(results.values()), results


class TestStability:
    def flaky_world(self, detector_factory, seed=4, n=4):
        """p0 has intermittently terrible output links after an initial
        good period: the classic stability stressor."""
        world = World(n=n, seed=seed, default_link=ReliableLink(FixedDelay(1.0)))
        dets = world.attach_all(detector_factory)
        at, set_link = world.scheduler.schedule_at, world.network.set_link
        # Recurring degradation windows for p0's output links.
        for start in range(100, 2000, 200):
            for dst in range(1, n):
                flaky = ReliableLink(UniformDelay(30.0, 60.0))
                at(float(start), set_link, 0, dst, flaky)
                at(float(start + 100), set_link, 0, dst,
                   world.network.link(0, dst))
        world.run(until=2500.0)
        return dets

    def test_stable_omega_settles_despite_flaky_low_id(self):
        dets = self.flaky_world(
            lambda pid: StableLeaderOmega(initial_timeout=8.0,
                                          timeout_increment=0.0)
        )
        # Non-flaky processes end up agreeing on a leader...
        leaders = {d.trusted() for d in dets[1:]}
        assert len(leaders) == 1
        # ...and churn stopped: no leader changes in the last windows.
        # (Counters only grow, so once the flaky p0 is demoted it stays out.)
        changes_late = [d.leader_changes for d in dets[1:]]
        dets2 = self.flaky_world(
            lambda pid: StableLeaderOmega(initial_timeout=8.0,
                                          timeout_increment=0.0)
        )
        assert [d.leader_changes for d in dets2[1:]] == changes_late  # deterministic

    def test_plain_leader_based_churns_more(self):
        """The ablation's core claim: with reinstatement-on-heartbeat, the
        flaky process keeps displacing the working leader."""
        stable = self.flaky_world(
            lambda pid: StableLeaderOmega(initial_timeout=8.0,
                                          timeout_increment=0.0)
        )
        plain = self.flaky_world(
            lambda pid: LeaderBasedOmega(initial_timeout=8.0,
                                         timeout_increment=0.0)
        )
        # Count leadership changes from the trace for the plain detector.
        def churn(dets):
            total = 0
            for det in dets[1:]:
                history = [
                    ev.get("trusted")
                    for ev in det.world.trace.select(
                        kind="fd", pid=det.pid,
                        where=lambda e: e.get("channel") == "fd")
                ]
                total += sum(
                    1 for a, b in zip(history, history[1:]) if a != b
                )
            return total

        assert churn(plain) > 3 * max(1, churn(stable))
