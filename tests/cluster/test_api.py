"""The unified ClusterAPI: protocol conformance, shared verdicts, and the
virtual-clock LocalCluster driven through the same harness a
ProcessCluster uses."""

import asyncio
import inspect

import pytest

from repro.cluster import (
    FAULT_VERBS,
    ClusterAPI,
    FaultVerbs,
    LocalCluster,
    NodeConfig,
    ProcessCluster,
    rsm_verdicts,
    standard_verdicts,
    verdicts_ok,
)
from repro.errors import ConfigurationError
from repro.sim.faults import FAULT_OPS
from repro.obs.sinks import MemorySink
from repro.proc import AddressBook

SIM_SCALE = dict(period=5.0, initial_timeout=12.0, timeout_increment=5.0)


async def run_scenario(cluster, crash_pid, crash_at):
    """The one harness both cluster types satisfy (ISSUE acceptance)."""
    cluster.crash(crash_pid, at=crash_at)
    await cluster.start()
    quiescent = await cluster.wait_quiescent()
    await cluster.stop()
    return quiescent, cluster.traces(), cluster.verdicts()


def make_virtual_cluster(**overrides):
    settings = dict(n=3, clock="virtual", duration=400.0)
    settings.update(overrides)
    cluster = LocalCluster(**settings)
    cluster.deploy_standard_stack(propose_after=100.0, **SIM_SCALE)
    return cluster


# ----------------------------------------------------------- the protocol
def test_both_implementations_satisfy_cluster_api():
    local = LocalCluster(n=2, clock="virtual")
    proc = ProcessCluster(n=2)
    assert isinstance(local, ClusterAPI)
    assert isinstance(proc, ClusterAPI)


def test_cluster_api_rejects_partial_implementations():
    class NotACluster:
        n = 3

        async def start(self):  # missing the rest of the surface
            pass

    assert not isinstance(NotACluster(), ClusterAPI)


#: One legal value per arg name of the vocabulary.
SAMPLE = {
    "pid": 1, "src": 0, "dst": 1, "groups": [[0]], "loss": 0.5,
    "delay": 0.01, "offset": 0.25,
}


class RecordingCluster(FaultVerbs):
    """FaultVerbs over a substrate that just logs what it is asked to do."""

    n = 2

    def __init__(self):
        super().__init__()
        self.delivered = []
        self.timers = []

    def _deliver(self, op, args):
        self.delivered.append((op, args))

    def _call_at(self, at, callback, *args):
        self.timers.append((at, callback, args))


@pytest.mark.parametrize("verb", FAULT_VERBS)
def test_each_verb_is_sugar_over_fault(verb):
    """The scenario layer drives any substrate blindly through
    ``fault(op, args, at)``; the named verbs take exactly the op's table
    args (in table order) plus a trailing ``at=None``, and forward them."""
    required, optional = FAULT_OPS[verb]
    params = inspect.signature(getattr(FaultVerbs, verb)).parameters
    assert list(params) == ["self", *required, *optional, "at"]
    assert params["at"].default is None
    assert all(params[name].default is None for name in optional)
    # Written once: neither substrate carries its own copy of a verb.
    assert verb not in vars(LocalCluster) and verb not in vars(ProcessCluster)

    calls = []
    cluster = RecordingCluster()
    cluster.fault = lambda op, args, at=None: calls.append((op, args, at))
    args = {name: SAMPLE[name] for name in required + optional}
    getattr(cluster, verb)(*args.values(), at=1.5)
    getattr(cluster, verb)(**{name: SAMPLE[name] for name in required})
    unset = {name: None for name in optional}
    assert calls == [
        (verb, args, 1.5),
        (verb, {**{name: SAMPLE[name] for name in required}, **unset}, None),
    ]


def test_fault_validates_eagerly_queues_before_start_and_arms_after():
    cluster = RecordingCluster()
    with pytest.raises(ConfigurationError, match="out of range"):
        cluster.fault("stall", {"pid": 2}, at=1.0)  # n=2: fails at the call
    with pytest.raises(ConfigurationError, match="unknown fault op"):
        cluster.fault("reboot", {})
    cluster.fault("storm", {"loss": 1.0}, at=2.0)
    cluster.crash(0)
    assert cluster.delivered == [] and cluster.timers == []  # only queued
    cluster._mark_started()
    cluster._arm_pending_faults()
    # Flushed in call order: timed faults onto the clock, at=None ones now.
    assert cluster.timers == [
        (2.0, cluster._deliver, ("storm", {"loss": 1.0}))
    ]
    assert cluster.delivered == [("crash", {"pid": 0})]
    cluster.heal()  # started + at=None: delivered before the call returns
    assert cluster.delivered[-1] == ("heal", {})
    cluster.heal(at=3.0)
    assert cluster.timers[-1] == (3.0, cluster._deliver, ("heal", {}))
    with pytest.raises(ConfigurationError, match="already started"):
        cluster._mark_started()


# ------------------------------------------------- one validity everywhere
def build_local(**settings):
    # The in-process substrate fixes these two at construction.
    fixed = {
        name: settings.pop(name)
        for name in ("seed", "ship_to") if name in settings
    }
    cluster = LocalCluster(n=3, **fixed)
    cluster.deploy_standard_stack(**settings)
    return cluster


SUBSTRATES = {
    "local": build_local,
    "proc": lambda **settings: ProcessCluster(n=3, **settings),
    "book": lambda **settings: AddressBook(n=3, **settings),
}
BAD_SETTINGS = [
    dict(period=0), dict(period=-1), dict(metrics_interval=0),
    dict(initial_timeout=-3), dict(max_batch=0), dict(pipeline_depth=0),
    dict(stack="star"), dict(ship_to="nonsense"),
    # A setting that no longer exists (JSON is the one wire format) is an
    # unknown key, refused like a bad value rather than silently ignored.
    dict(codec="pickle"),
]


@pytest.mark.parametrize("substrate", SUBSTRATES)
@pytest.mark.parametrize("bad", BAD_SETTINGS, ids=repr)
def test_every_substrate_rejects_a_bad_setting_up_front(substrate, bad):
    """Construction alone — before any socket is bound or process spawned
    — raises, with the one validator's message on every substrate."""
    with pytest.raises(ConfigurationError) as reference:
        NodeConfig.from_dict(bad)
    with pytest.raises(ConfigurationError) as raised:
        SUBSTRATES[substrate](**bad)
    assert str(raised.value) == str(reference.value)


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_every_substrate_exposes_the_same_config(substrate):
    settings = dict(stack="rsm", period=0.2, seed=5, max_batch=8)
    assert SUBSTRATES[substrate](**settings).config == NodeConfig(**settings)


def test_deploy_rejects_unknown_and_contradicting_keywords():
    cluster = LocalCluster(n=2, clock="virtual", seed=3)
    with pytest.raises(ConfigurationError, match="unknown node settings"):
        cluster.deploy_standard_stack(perod=5.0)
    with pytest.raises(ConfigurationError, match="constructed with"):
        cluster.deploy_standard_stack(seed=4)
    cluster.deploy_standard_stack(seed=3, **SIM_SCALE)  # restating is fine
    assert cluster.config.seed == 3 and cluster.config.period == 5.0


# ------------------------------------------ LocalCluster under the harness
def test_virtual_local_cluster_through_unified_harness():
    cluster = make_virtual_cluster()
    quiescent, trace, verdicts = asyncio.run(
        run_scenario(cluster, crash_pid=0, crash_at=60.0)
    )
    assert quiescent
    assert isinstance(trace, MemorySink)
    assert cluster.correct_pids == frozenset({1, 2})
    assert trace.count("crash") == 1
    assert verdicts_ok(verdicts), verdicts
    # The verdict keys are the shared postmortem's flat namespace.
    assert {"fd.completeness", "fd.omega", "consensus.termination"} <= set(
        verdicts
    )


def test_crash_now_before_start_kills_at_time_zero():
    cluster = make_virtual_cluster()
    cluster.crash(0)  # at=None before start: dead from the very beginning
    asyncio.run(run_scenario(cluster, crash_pid=1, crash_at=60.0))
    assert cluster.correct_pids == frozenset({2})


def test_crash_validates_pid():
    cluster = make_virtual_cluster()
    with pytest.raises(ConfigurationError):
        cluster.crash(99)


def test_wait_quiescent_without_duration_needs_timeout():
    cluster = LocalCluster(n=2)  # wall clock, no duration

    async def drive():
        await cluster.start()
        try:
            with pytest.raises(ConfigurationError):
                await cluster.wait_quiescent()
        finally:
            await cluster.stop()

    asyncio.run(drive())


def test_wait_quiescent_all_crashed():
    cluster = LocalCluster(n=2, clock="virtual")
    cluster.crash(0, at=10.0)
    cluster.crash(1, at=20.0)

    async def drive():
        await cluster.start()
        return await cluster.wait_quiescent()

    assert asyncio.run(drive()) is True
    assert cluster.correct_pids == frozenset()


# ------------------------------------------------------- shared postmortem
def test_standard_verdicts_accepts_any_trace_source(tmp_path):
    cluster = make_virtual_cluster(trace_out=str(tmp_path / "trace.jsonl"))
    asyncio.run(run_scenario(cluster, crash_pid=0, crash_at=60.0))
    live = standard_verdicts(cluster.trace, cluster.correct_pids)
    shipped = standard_verdicts(
        str(tmp_path / "trace.jsonl"), cluster.correct_pids
    )
    assert {k: bool(v) for k, v in live.items()} == {
        k: bool(v) for k, v in shipped.items()
    }
    assert verdicts_ok(live)


def test_verdicts_ok_fails_on_any_violation():
    assert verdicts_ok({"a": True, "b": 1})
    assert not verdicts_ok({"a": True, "b": False})
    assert verdicts_ok({})


# -------------------------------------------------- rsm log-level verdicts
def applied(*events):
    """A synthetic trace of ``apply`` events: (time, pid, slot, command)."""
    sink = MemorySink()
    for time, pid, slot, command in events:
        sink.record(time, "apply", pid, slot=slot, command=command)
    return sink


def rsm_only(trace, correct):
    verdicts = rsm_verdicts(trace, frozenset(correct))
    return {k: v for k, v in verdicts.items() if k.startswith("rsm.")}


def test_rsm_verdicts_clean_sparse_log():
    # NOOP slots record no apply, so slot sets are sparse (0, 2) — that
    # must not read as a prefix violation.
    trace = applied(
        (1.0, 0, 0, "a"), (2.0, 0, 2, "b"),
        (1.1, 1, 0, "a"), (2.1, 1, 2, "b"),
    )
    assert rsm_only(trace, {0, 1}) == {
        "rsm.agreement": True, "rsm.prefix": True, "rsm.progress": True,
    }


def test_rsm_agreement_catches_diverging_slots():
    trace = applied((1.0, 0, 0, "a"), (1.1, 1, 0, "b"))
    assert rsm_only(trace, {0, 1})["rsm.agreement"] is False


def test_rsm_prefix_allows_lag_but_not_gaps():
    # p1 stopping early (frontier 0) is fine...
    lagging = applied(
        (1.0, 0, 0, "a"), (2.0, 0, 2, "b"), (1.1, 1, 0, "a"),
    )
    assert rsm_only(lagging, {0, 1})["rsm.prefix"] is True
    # ...but p1 applying slot 2 while missing slot 0 is a hole below its
    # own frontier.
    holed = applied(
        (1.0, 0, 0, "a"), (2.0, 0, 2, "b"), (2.1, 1, 2, "b"),
    )
    assert rsm_only(holed, {0, 1})["rsm.prefix"] is False


def test_rsm_progress_needs_every_correct_replica():
    one_sided = applied((1.0, 0, 0, "a"))
    assert rsm_only(one_sided, {0, 1})["rsm.progress"] is False
    # An entirely empty log is vacuous progress (nothing was decided).
    assert rsm_only(applied(), {0, 1})["rsm.progress"] is True
