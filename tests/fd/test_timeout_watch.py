"""The per-peer timeout watch every timeout-based detector inherits
(:class:`repro.fd.base.TimeoutDetector`)."""

import pytest

from repro.errors import ConfigurationError
from repro.fd import (
    EVENTUALLY_CONSISTENT,
    HeartbeatEventuallyPerfect,
    LeaderBasedOmega,
    OracleFailureDetector,
    RingDetector,
    StableLeaderOmega,
    TimeoutDetector,
)
from repro.sim import FixedDelay, ReliableLink, World
from repro.transform import CToPTransformation

ADAPTATIONS = "fd_timeout_adaptations_total"


class Watch(TimeoutDetector):
    """The bare watch: no messages, no timers."""


def started_watch(n=3, channel="watch"):
    world = World(n=n, seed=0)
    det = world.attach(0, Watch(initial_timeout=12.0, channel=channel))
    world.start()
    return world, det


class TestWatch:
    def test_every_peer_is_seeded_at_start_and_self_is_not_watched(self):
        _, det = started_watch()
        assert det._last_heard == {1: 0.0, 2: 0.0}
        assert det.timeout_of(1) == det.timeout_of(2) == 12.0

    def test_expiry_is_strict_at_the_deadline_instant(self):
        world, det = started_watch()
        world.run(until=12.0)
        assert not det._expired(1)
        world.run(until=12.5)
        assert det._expired(1)

    def test_restart_counts_silence_from_now(self):
        world, det = started_watch()
        world.run(until=10.0)
        det._restart(1)
        world.run(until=20.0)
        assert not det._expired(1)
        assert det._expired(2)

    def test_overdue_excludes_the_known_peers(self):
        world, det = started_watch(n=4)
        world.run(until=10.0)
        det._restart(3)
        world.run(until=20.0)
        assert det._overdue(set()) == {1, 2}
        assert det._overdue({2}) == {1}
        assert det._overdue({1, 2}) == set()

    def test_widen_grows_the_timeout_and_counts_once_per_widening(self):
        world, det = started_watch(channel="watch")
        det._widen(1)
        det._widen(1)
        assert det.timeout_of(1) == 22.0
        assert det.timeout_of(2) == 12.0
        assert world.metrics.value(ADAPTATIONS, channel="watch") == 2
        assert world.metrics.value(ADAPTATIONS, channel="fd") == 0


def test_stable_omega_accusation_widens_but_is_not_counted():
    world = World(n=3, seed=0, default_link=ReliableLink(FixedDelay(1.0)))
    dets = world.attach_all(lambda pid: StableLeaderOmega())
    world.schedule_crash(0, 20.0)
    world.run(until=100.0)
    assert dets[1].trusted() == dets[2].trusted() == 1
    assert dets[1].timeout_of(0) == dets[2].timeout_of(0) == 17.0
    assert world.metrics.value(ADAPTATIONS, channel="fd") == 0


def fig2(**kwargs):
    return CToPTransformation(
        OracleFailureDetector(EVENTUALLY_CONSISTENT), **kwargs)


BAD_KNOBS = ({"period": 0}, {"initial_timeout": -1.0}, {"timeout_increment": -1.0})


@pytest.mark.parametrize("make, bad", [
    *((cls, bad) for cls in (HeartbeatEventuallyPerfect, LeaderBasedOmega,
                             RingDetector, StableLeaderOmega)
      for bad in BAD_KNOBS),
    (fig2, {"send_period": 0}),
], ids=lambda v: getattr(v, "__name__", None) or next(iter(v)))
def test_bad_timeout_parameters_are_rejected(make, bad):
    with pytest.raises(ConfigurationError):
        make(**bad)


@pytest.mark.parametrize("cls", [LeaderBasedOmega, StableLeaderOmega])
def test_a_late_started_omega_measures_silence_from_its_start(cls):
    """Detectors attached at t = 100 watch their leader from t = 100, not
    from 0: nobody rules out the live leader at its first check."""
    world = World(n=3, seed=0, default_link=ReliableLink(FixedDelay(3.0)))
    world.run(until=100.0)
    dets = [world.attach(pid, cls()) for pid in world.pids]
    world.run(until=104.0)
    assert [det.trusted() for det in dets] == [0, 0, 0]
    assert [det.timeout_of(0) for det in dets[1:]] == [12.0, 12.0]
    assert world.metrics.value(ADAPTATIONS, channel="fd") == 0
    # One change per process: from no leader to 0, at attach time.
    assert world.metrics.value("fd_leader_changes_total", channel="fd") == 3
