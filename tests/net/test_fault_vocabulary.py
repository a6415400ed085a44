"""The fault vocabulary: one op table, one validator, one apply function.

``check_fault`` is the only place a fault's arg shapes and ranges are
checked — the cluster verbs, scenario documents, the control endpoint and
the CLI all call it — so the table is tested here, directly, once.
"""

import pytest

from repro.errors import ConfigurationError
from repro.net.clock import SkewedClock, VirtualClock
from repro.sim.faults import (
    FAULT_OPS, PID_ARGS, FaultPlan, check_fault, resolve_groups,
)

#: One legal arg value per arg name, for a cluster of n=3.
LEGAL = {
    "pid": 1, "src": 0, "dst": 2, "groups": [[0], [1, 2]],
    "loss": 0.5, "delay": 0.02, "offset": -0.25,
}
EPS = 1e-9


def legal_args(op, optional=True):
    required, extra = FAULT_OPS[op]
    names = required + (extra if optional else ())
    return {name: LEGAL[name] for name in names}


def ops_taking(name):
    return [op for op, spec in FAULT_OPS.items() if name in spec[0] + spec[1]]


# ---------------------------------------------------------------- the table
def test_the_table_is_the_eleven_fault_families():
    assert list(FAULT_OPS) == [
        "crash", "stall", "resume", "partition", "heal", "isolate",
        "degrade", "restore", "storm", "calm", "skew",
    ]
    # Every arg the table names has a legal example above, i.e. the test
    # knows the whole vocabulary (a new row must extend LEGAL).
    named = {name for spec in FAULT_OPS.values() for name in spec[0] + spec[1]}
    assert named == set(LEGAL)


@pytest.mark.parametrize("op", FAULT_OPS)
def test_required_and_optional_args(op):
    required, optional = FAULT_OPS[op]
    check_fault(op, legal_args(op), n=3)  # everything
    check_fault(op, legal_args(op, optional=False), n=3)  # required only
    for name in optional:  # an optional arg may be spelled as None
        check_fault(op, dict(legal_args(op), **{name: None}), n=3)
    for name in required:
        args = legal_args(op)
        del args[name]
        with pytest.raises(ConfigurationError, match="missing arg"):
            check_fault(op, args, n=3)
        with pytest.raises(ConfigurationError):  # required is never None
            check_fault(op, dict(legal_args(op), **{name: None}), n=3)
    with pytest.raises(ConfigurationError, match="unknown arg"):
        check_fault(op, dict(legal_args(op), bogus=1), n=3)


@pytest.mark.parametrize("op", ["reboot", "ping", "", None, 7, ["heal"]])
def test_unknown_op(op):
    with pytest.raises(ConfigurationError, match="unknown fault op"):
        check_fault(op, {})


# ------------------------------------------------------------------- ranges
@pytest.mark.parametrize("op", ops_taking("loss"))
def test_loss_is_the_closed_unit_interval(op):
    for loss in (0.0, 1.0, 0, 1):  # both boundaries legal (1.0 = blackhole)
        check_fault(op, dict(legal_args(op), loss=loss), n=3)
    for loss in (-EPS, 1.0 + EPS, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            check_fault(op, dict(legal_args(op), loss=loss), n=3)
    with pytest.raises(ConfigurationError, match=r"outside \[0, 1\]"):
        check_fault(op, dict(legal_args(op), loss=1.5), n=3)


def test_delay_is_non_negative():
    check_fault("degrade", dict(legal_args("degrade"), delay=0.0), n=3)
    with pytest.raises(ConfigurationError, match="negative delay"):
        check_fault("degrade", dict(legal_args("degrade"), delay=-EPS), n=3)


@pytest.mark.parametrize("name", ["loss", "delay", "offset"])
def test_numbers_must_be_numbers(name):
    op = ops_taking(name)[0]
    for junk in ("0.5", True, [0.5], {}):
        with pytest.raises(ConfigurationError):
            check_fault(op, dict(legal_args(op), **{name: junk}), n=3)


@pytest.mark.parametrize("name", PID_ARGS)
def test_pid_args_are_ranged_against_n(name):
    for op in ops_taking(name):
        base = legal_args(op)
        if name != "pid":  # the other end sits at 1, so src != dst throughout
            base.update(src=1, dst=1)
        for pid in (0, 2):
            check_fault(op, dict(base, **{name: pid}), n=3)
        for pid in (3, -1):  # pid n itself is the first illegal one
            with pytest.raises(ConfigurationError, match="out of range"):
                check_fault(op, dict(base, **{name: pid}), n=3)
        for junk in ("1", 1.0, True, None):
            with pytest.raises(ConfigurationError):
                check_fault(op, dict(base, **{name: junk}), n=3)
        # Without n only the shape can be judged (a ScenarioEvent alone).
        check_fault(op, dict(base, **{name: 99}))


def test_a_directed_pair_needs_two_ends():
    # A self-send never crosses the network: nothing to degrade or restore.
    for op in ops_taking("src"):
        for n in (3, None):
            with pytest.raises(ConfigurationError, match="both 1"):
                check_fault(op, dict(legal_args(op), src=1, dst=1), n)


# --------------------------------------------------------- partition groups
def test_partition_groups_shape_range_and_disjointness():
    check_fault("partition", {"groups": [[0], [1, 2]]}, n=3)
    check_fault("partition", {"groups": [[2]]}, n=3)  # implicit rest group
    check_fault("partition", {"groups": []}, n=3)
    with pytest.raises(ConfigurationError, match="list of pid lists"):
        check_fault("partition", {"groups": [0, 1]}, n=3)
    with pytest.raises(ConfigurationError, match="list of pid lists"):
        check_fault("partition", {"groups": [["a"]]}, n=3)
    with pytest.raises(ConfigurationError, match="out of range"):
        check_fault("partition", {"groups": [[0], [3]]}, n=3)
    with pytest.raises(ConfigurationError, match="in two groups"):
        check_fault("partition", {"groups": [[0, 1], [1, 2]]}, n=3)
    with pytest.raises(ConfigurationError, match="in two groups"):
        check_fault("partition", {"groups": [[0, 1], [1]]})  # even without n


def test_resolve_groups_names_the_implicit_rest_group():
    assert resolve_groups([[2, 0]], 4) == [[0, 2], [1, 3]]
    assert resolve_groups([[0, 1], [2]], 3) == [[0, 1], [2]]
    assert resolve_groups([{1}], None) == [[1]]  # no n, no rest group


def test_a_one_group_partition_cuts_nothing_and_leaves_the_plan_idle():
    for groups in ([], [[0, 1, 2]], [[], [2, 0, 1]]):
        plan = FaultPlan(3)
        check_fault("partition", {"groups": groups}, n=3)
        plan.apply("partition", {"groups": groups})
        assert not plan.active and not plan.partitioned, groups
    plan.partition([0])
    plan.partition([0, 1, 2])  # a new partition replaces the old cut
    assert not plan.active and plan.plan(0, 1) == 0.0


# ------------------------------------------------------------ FaultPlan.apply
def test_apply_returns_the_event_that_narrates_each_fault():
    plan = FaultPlan(3)
    clock = plan.clocks[1] = SkewedClock(VirtualClock())
    assert plan.apply("partition", {"groups": [[2]]}) == (
        "scenario.partition", None, {"groups": [[2], [0, 1]]})
    assert plan.partitioned
    assert plan.apply("heal", {}) == ("scenario.heal", None, {})
    assert plan.apply("isolate", {"pid": 0}) == (
        "scenario.partition", None, {"groups": [[0], [1, 2]]})
    plan.apply("heal", {})
    assert plan.apply("stall", {"pid": 1}) == (
        "scenario.stall", 1, {"target": 1, "signal": "silence"})
    assert plan.stalled == {1}
    assert plan.apply("resume", {"pid": 1}) == (
        "scenario.resume", 1, {"target": 1, "signal": "silence"})
    assert plan.apply("degrade", {"src": 0, "dst": 1, "loss": 1.0}) == (
        "scenario.degrade", None,
        {"src": 0, "dst": 1, "loss": 1.0, "delay": None})
    assert plan.plan(0, 1) is None
    assert plan.apply("restore", {"src": 0, "dst": 1}) == (
        "scenario.restore", None, {"src": 0, "dst": 1})
    assert plan.apply("storm", {"loss": 1.0}) == (
        "scenario.storm", None, {"loss": 1.0})
    assert plan.storming
    assert plan.apply("calm", {}) == ("scenario.calm", None, {})
    assert plan.apply("skew", {"pid": 1, "offset": 0.5}) == (
        "scenario.skew", 1, {"target": 1, "offset": 0.5})
    assert clock.offset == 0.5
    assert not plan.active  # every fault above was undone


def test_apply_refuses_what_a_plan_cannot_do():
    plan = FaultPlan(3)
    with pytest.raises(ConfigurationError):  # tearing a node down is the
        plan.apply("crash", {"pid": 0})      # substrate's, not the plan's
    with pytest.raises(ConfigurationError):  # no clock registered for pid 2
        plan.apply("skew", {"pid": 2, "offset": 0.5})
    assert not plan.active
