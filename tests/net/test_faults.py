"""``FaultPlan.plan`` verdicts, as units.  What the send path does with a
verdict (count, record, delay) is ``tests/test_message_path.py``."""

import pytest

from repro.errors import ConfigurationError
from repro.net import FaultPlan
from repro.sim.delays import FixedDelay


# -------------------------------------------------------------- plan verdicts
def test_idle_plan_passes_everything_through():
    plan = FaultPlan(3)
    assert plan.plan(0, 1) == 0.0 and not plan.active


def test_partition_cuts_cross_group_pairs_both_ways():
    plan = FaultPlan(4)
    plan.partition([0, 1])  # implicit second group {2, 3}
    assert plan.partitioned
    assert plan.plan(0, 1) == 0.0 and plan.plan(2, 3) == 0.0
    assert plan.plan(0, 2) is None and plan.plan(2, 0) is None
    assert plan.plan(1, 3) is None
    plan.heal()
    assert not plan.partitioned
    assert plan.plan(0, 2) == 0.0


def test_isolate_is_a_singleton_partition():
    plan = FaultPlan(3)
    plan.isolate(2)
    assert plan.plan(2, 0) is None and plan.plan(0, 2) is None
    assert plan.plan(0, 1) == 0.0


def test_degrade_and_restore_are_per_directed_pair():
    plan = FaultPlan(3, seed=1)
    plan.degrade(0, 1, loss_prob=0.999999, delay=FixedDelay(2.5))
    # Reverse direction untouched.
    assert plan.plan(1, 0) == 0.0
    verdicts = [plan.plan(0, 1) for _ in range(50)]
    assert all(v is None for v in verdicts)  # loss ~1 drops everything
    plan.restore(0, 1)
    assert plan.plan(0, 1) == 0.0


def test_delay_model_verdicts_count_delays():
    plan = FaultPlan(2, delay=FixedDelay(1.5))
    assert plan.plan(0, 1) == 1.5


def test_plan_validates_inputs():
    with pytest.raises(ConfigurationError, match=r"outside \[0, 1\]"):
        FaultPlan(3, loss_prob=1.5)
    plan = FaultPlan(3)
    with pytest.raises(ConfigurationError):
        plan.partition([0, 7])
    with pytest.raises(ConfigurationError):
        plan.partition([0, 1], [1, 2])
    with pytest.raises(ConfigurationError, match=r"outside \[0, 1\]"):
        plan.degrade(0, 1, loss_prob=-0.1)
    with pytest.raises(ConfigurationError, match=r"outside \[0, 1\]"):
        plan.storm(1.2)


def test_loss_prob_one_is_legal_everywhere():
    # The boundary is inclusive on BOTH ends for every entry point — the
    # constructor used to reject what degrade() accepted.
    plan = FaultPlan(2, loss_prob=1.0)
    assert all(plan.plan(0, 1) is None for _ in range(10))
    plan = FaultPlan(2)
    plan.degrade(0, 1, loss_prob=1.0)
    assert plan.plan(0, 1) is None
    plan.restore(0, 1)
    plan.storm(1.0)
    assert plan.plan(0, 1) is None and plan.plan(1, 0) is None


def test_stall_silences_both_directions():
    plan = FaultPlan(3)
    plan.stall(1)
    assert plan.stalled == frozenset({1})
    assert plan.plan(1, 0) is None and plan.plan(0, 1) is None
    assert plan.plan(0, 2) == 0.0  # bystanders talk normally
    plan.resume(1)
    assert plan.stalled == frozenset()
    assert plan.plan(1, 0) == 0.0


def test_storm_floors_every_pair_until_calm():
    plan = FaultPlan(3, seed=2)
    plan.storm(1.0)
    assert plan.storming
    assert plan.plan(0, 1) is None and plan.plan(2, 0) is None
    plan.calm()
    assert not plan.storming
    assert plan.plan(0, 1) == 0.0


def test_active_flag_tracks_every_fault_family():
    # The send path's fast path: an idle plan must read as inactive, and
    # every verb pair must restore that state when undone.
    plan = FaultPlan(3)
    assert not plan.active
    for arm, undo in (
        (lambda: plan.partition([0]), plan.heal),
        (lambda: plan.stall(1), lambda: plan.resume(1)),
        (lambda: plan.storm(0.5), plan.calm),
        (lambda: plan.degrade(0, 1, loss_prob=0.5),
         lambda: plan.restore(0, 1)),
    ):
        arm()
        assert plan.active
        undo()
        assert not plan.active
