"""Tests for the ◇C → ◇P transformation of Fig. 2 (Theorem 1).

The transformation's requirements are wired exactly as the paper states
them: the (eventual) leader's *input* links are partially synchronous and
its *output* links are fair-lossy; nothing is assumed about other links.
"""

import pytest

from repro.analysis import (
    check_fd_class_on_world,
    detection_latency,
)
from repro.errors import ConfigurationError
from repro.fd import (
    EVENTUALLY_CONSISTENT,
    EVENTUALLY_PERFECT,
    OMEGA,
    OracleConfig,
    OracleFailureDetector,
    attach_ec_stack,
)
from repro.sim import (
    FairLossyLink,
    FixedDelay,
    ReliableLink,
    World,
)
from repro.transform import CToPTransformation
from repro.workloads import partially_synchronous_link


def build(
    n=5,
    seed=0,
    leader=0,
    stabilize=0.0,
    lossy_outputs=None,
    gst=0.0,
    crash=None,
    source_class=EVENTUALLY_CONSISTENT,
):
    """World with a ◇C oracle + the Fig. 2 transformation on every process.

    The designated leader's input links are partially synchronous and its
    output links fair-lossy when *lossy_outputs* is set.
    """
    world = World(n=n, seed=seed, default_link=ReliableLink(FixedDelay(1.0)))
    if gst:
        world.network.set_links_to(
            leader, lambda: partially_synchronous_link(gst=gst)
        )
    if lossy_outputs is not None:
        world.network.set_links_from(
            leader,
            lambda: FairLossyLink(
                inner=ReliableLink(FixedDelay(1.0)), loss_prob=lossy_outputs
            ),
        )
    config = OracleConfig(
        stabilize_time=stabilize,
        pre_behavior="erratic" if stabilize else "ideal",
        leader=leader,
    )
    transforms = []
    for pid in world.pids:
        source = world.attach(
            pid, OracleFailureDetector(source_class, config, channel="fd.c")
        )
        transforms.append(
            world.attach(
                pid,
                CToPTransformation(
                    source,
                    send_period=4.0,
                    alive_period=4.0,
                    initial_timeout=10.0,
                    channel="fdp",
                ),
            )
        )
    if crash is not None:
        world.schedule_crash(*crash)
    return world, transforms


class TestParameters:
    def test_validation(self):
        world = World(n=2, seed=0)
        src = world.attach(0, OracleFailureDetector(EVENTUALLY_CONSISTENT,
                                                    channel="fd.c"))
        with pytest.raises(ConfigurationError):
            CToPTransformation(src, send_period=0)
        with pytest.raises(ConfigurationError):
            CToPTransformation(src, timeout_increment=-1)


class TestTheorem1:
    def test_crashed_process_suspected_by_everyone(self):
        world, dets = build(seed=1, crash=(3, 50.0))
        world.run(until=500.0)
        for det in dets:
            if det.pid != 3:
                assert det.suspected() == {3}

    def test_no_false_suspicion_in_steady_state(self):
        world, dets = build(seed=1)
        world.run(until=500.0)
        assert all(det.suspected() == frozenset() for det in dets)

    def test_leader_never_suspects_itself(self):
        world, dets = build(seed=1, crash=(3, 50.0))
        world.run(until=500.0)
        assert 0 not in dets[0].suspected()

    def test_satisfies_dp_with_psync_inputs_and_lossy_outputs(self):
        world, dets = build(
            seed=2,
            gst=80.0,
            lossy_outputs=0.4,
            stabilize=60.0,
            crash=(4, 120.0),
        )
        world.run(until=3000.0)
        results = check_fd_class_on_world(world, EVENTUALLY_PERFECT,
                                          channel="fdp")
        assert all(results.values()), results

    def test_adaptive_timeout_stops_false_suspicions(self):
        """The Theorem 1 contradiction argument: after finitely many
        mistakes, Δp(q) exceeds 2Φ+Δ and q is never suspected again."""
        world, dets = build(seed=3, gst=100.0, stabilize=0.0)
        world.run(until=2500.0)
        leader_det = dets[0]
        # The leader's timeouts grew beyond the initial 10.0 for at least
        # one process (chaotic pre-GST inputs forced mistakes)...
        assert any(leader_det.delta_of(q) > 10.0 for q in range(1, 5))
        # ...and at the end nobody is falsely suspected.
        assert leader_det.suspected() == frozenset()

    def test_works_with_pure_omega_source(self):
        """The paper: "this algorithm could also be used to transform an Ω
        failure detector into a ◇P failure detector"."""
        world, dets = build(seed=4, source_class=OMEGA, crash=(2, 60.0))
        world.run(until=800.0)
        results = check_fd_class_on_world(world, EVENTUALLY_PERFECT,
                                          channel="fdp")
        assert all(results.values()), results

    @pytest.mark.parametrize("seed", [135, 268])
    def test_new_leader_drops_the_list_adopted_under_the_old_one(self, seed):
        """Regression: on a real ◇C source (ring + Ω) whose leadership
        moves after the first leader crashes before GST, a process taking
        over must publish its own list; it used to keep the list it had
        adopted from its predecessor forever when its own never changed
        again, which broke ◇P on exactly these two seeds of 0–299."""
        world = World(
            n=16, seed=seed,
            default_link=partially_synchronous_link(gst=50, pre_max=30.0),
        )
        sources = attach_ec_stack(
            world, suspects="ring", period=5.0, initial_timeout=12.0
        )
        for pid in world.pids:
            world.attach(pid, CToPTransformation(
                sources[pid], send_period=5.0, alive_period=5.0,
                initial_timeout=12.0, channel="fdp",
            ))
        world.schedule_crash(0, 25.0)
        world.run(until=600.0)
        results = check_fd_class_on_world(world, EVENTUALLY_PERFECT,
                                          channel="fdp")
        assert all(results.values()), results

    def test_followers_adopt_leader_list_only_from_trusted(self):
        world, dets = build(seed=5, crash=(3, 50.0))
        world.run(until=500.0)
        # Follower 1 never heard I-AM-ALIVEs itself; its list must have come
        # from the leader (Task 5).
        assert dets[1].suspected() == {3}


class TestCost:
    def test_steady_state_cost_2n_minus_2(self):
        n = 6
        world, dets = build(n=n, seed=0)
        world.run(until=800.0)
        sends = world.trace.select(
            kind="send", after=400.0, before=800.0,
            where=lambda e: e.get("channel") == "fdp",
        )
        per_period = len(sends) / (400.0 / 4.0)
        # Task 1 (leader -> others): n-1; Task 2 (others -> leader): n-1.
        assert per_period == pytest.approx(2 * (n - 1), rel=0.1)

    def test_cheaper_than_all_to_all_heartbeat(self):
        """E3's headline: 2(n-1) vs n(n-1) messages per period."""
        from repro.fd import HeartbeatEventuallyPerfect

        n = 6
        world, dets = build(n=n, seed=0)
        world.run(until=800.0)
        transform_sends = len(world.trace.select(
            kind="send", after=400.0,
            where=lambda e: e.get("channel") == "fdp"))

        w2 = World(n=n, seed=0, default_link=ReliableLink(FixedDelay(1.0)))
        w2.attach_all(lambda pid: HeartbeatEventuallyPerfect(period=4.0))
        w2.run(until=800.0)
        heartbeat_sends = len(w2.trace.select(
            kind="send", after=400.0,
            where=lambda e: e.get("channel") == "fd"))
        assert heartbeat_sends > 2.5 * transform_sends

    def test_detection_latency_below_ring(self):
        """E8: one-hop list dissemination beats the ring's O(n) hops."""
        from repro.fd import RingDetector

        n = 8
        world, dets = build(n=n, seed=1, crash=(4, 60.0))
        world.run(until=1500.0)
        lat_transform = detection_latency(
            world.trace, 4, 60.0, world.correct_pids, channel="fdp"
        )

        w2 = World(n=n, seed=1, default_link=ReliableLink(FixedDelay(1.0)))
        w2.attach_all(lambda pid: RingDetector(period=4.0, initial_timeout=10.0))
        w2.schedule_crash(4, 60.0)
        w2.run(until=1500.0)
        lat_ring = detection_latency(
            w2.trace, 4, 60.0, w2.correct_pids, channel="fd"
        )
        assert lat_transform is not None and lat_ring is not None
        assert lat_transform < lat_ring
