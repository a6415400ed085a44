"""Scenarios on the deterministic substrate: replay, re-stabilization,
wrongful suspicion — the virtual-clock half of the ISSUE's test matrix
(the SIGSTOP/process half lives in tests/integration/test_scenario_proc.py).
"""

import asyncio

import pytest

from repro.analysis.qos import qos_report
from repro.cluster import LocalCluster
from repro.errors import ConfigurationError
from repro.scenario import (
    Scenario,
    apply_scenario,
    generate_scenario,
    run_scenario,
)

PERIOD = 0.05
TIMEOUT = 2.4 * PERIOD  # the paper-scaled initial detection timeout


def run_once(scenario, seed=1):
    """One virtual-clock run; returns (result, trace events, verdicts)."""
    cluster = LocalCluster(
        n=scenario.n, transport="loopback", clock="virtual", seed=seed,
        duration=scenario.duration,
    )
    cluster.deploy_standard_stack(
        stack="ring", period=scenario.period,
        propose_after=scenario.propose_after,
    )
    result = asyncio.run(run_scenario(cluster, scenario))
    return result, cluster.trace


def handmade(events, duration=6.0, propose_after=4.0):
    return Scenario(
        n=3, period=PERIOD, duration=duration, propose_after=propose_after,
        events=events,
    )


# ----------------------------------------------------------- determinism
def test_same_scenario_and_seed_replay_byte_identically():
    scenario = generate_scenario(n=3, seed=13, crashes=1)
    result_a, trace_a = run_once(scenario)
    result_b, trace_b = run_once(scenario)
    assert trace_a.events == trace_b.events
    assert {k: bool(v) for k, v in result_a["verdicts"].items()} == {
        k: bool(v) for k, v in result_b["verdicts"].items()
    }
    assert result_a["ok"] and result_a["quiescent"]


def test_generated_scenarios_end_verdicts_ok():
    # The generator's shape guarantee: consensus runs in the well-behaved
    # suffix, so every generated scenario passes its own postmortem.
    for seed in (1, 2):
        result, _ = run_once(generate_scenario(n=3, seed=seed))
        assert result["ok"], (seed, result["verdicts"])


# ------------------------------------------- partition, heal, re-stabilize
def test_partition_then_heal_restabilizes_the_leader():
    scenario = handmade([
        {"t": 0.5, "op": "partition", "groups": [[2]]},
        {"t": 0.5 + 4 * TIMEOUT, "op": "heal"},
    ])
    result, trace = run_once(scenario)
    assert result["ok"], result["verdicts"]
    report = qos_report(trace, period=PERIOD, n=3)
    # The cut lasted several timeouts: the majority side wrongly suspected
    # the isolated (but correct) node, and the isolated side its leader...
    assert len(report.mistakes) >= 1
    suspects = {m.suspect for m in report.mistakes}
    assert 2 in suspects
    # ...and after the heal Property 1 re-stabilized: the suspicion of the
    # eventual leader was corrected (the detector is leader-based — only
    # the leader heartbeats, so only that mistake *can* be corrected) and
    # one leader held for good, no earlier than the cut.
    corrected = {m.suspect for m in report.mistakes if m.end is not None}
    assert report.stable_leader in corrected or not any(
        m.suspect == report.stable_leader for m in report.mistakes
    )
    assert report.leader_stabilized_at is not None
    assert report.leader_stabilized_at > 0.5  # after the fault started


def test_stall_longer_than_the_timeout_is_a_counted_mistake():
    victim = 1
    scenario = handmade([
        {"t": 0.5, "op": "stall", "pid": victim},
        {"t": 0.5 + 4 * TIMEOUT, "op": "resume", "pid": victim},
    ])
    result, trace = run_once(scenario)
    assert result["ok"], result["verdicts"]
    report = qos_report(trace, period=PERIOD, n=3)
    # A stalled node is silent but correct — the detectors must suspect it
    # (that is the timeout doing its job) and `repro trace qos` must count
    # the suspicion as a wrongful one.
    wrongful = [m for m in report.mistakes if m.suspect == victim]
    assert len(wrongful) >= 1
    # The run still stabilizes on a leader and passes its postmortem.
    assert report.leader_stabilized_at is not None


# -------------------------------------------------------- armed vs. fitted
def test_apply_scenario_rejects_mismatched_n():
    scenario = generate_scenario(n=5, seed=1)
    cluster = LocalCluster(n=3, clock="virtual", duration=scenario.duration)
    with pytest.raises(ConfigurationError, match="built for n=5"):
        apply_scenario(cluster, scenario)


def test_apply_scenario_rejects_a_run_too_short_for_the_schedule():
    scenario = handmade([{"t": 3.0, "op": "heal"}])
    cluster = LocalCluster(n=3, clock="virtual", duration=1.0)
    with pytest.raises(ConfigurationError, match="only lasts"):
        apply_scenario(cluster, scenario)


def test_scenario_run_event_is_traced():
    scenario = generate_scenario(n=3, seed=9, name="traced")
    _, trace = run_once(scenario)
    runs = [ev for ev in trace.events if ev.kind == "scenario.run"]
    assert len(runs) == 1
    assert runs[0].get("name") == "traced"
    assert runs[0].get("seed") == 9


def test_wall_clock_scenario_ships_a_jsonl_trace_with_its_fault_drops(tmp_path):
    # `scenario.run` is noted before start(); a wall run fixes its JSONL
    # epoch in start(), so the note must wait for it (it used to write the
    # header early and start() then refused to rebase).
    scenario = Scenario(n=3, period=PERIOD, duration=0.3, events=[
        {"t": 0.05, "op": "isolate", "pid": 2}, {"t": 0.2, "op": "heal"},
    ])
    out = tmp_path / "wall.jsonl"
    cluster = LocalCluster(n=3, duration=scenario.duration, trace_out=out)
    cluster.deploy_standard_stack(stack="ring", period=PERIOD)
    asyncio.run(run_scenario(cluster, scenario))
    text = out.read_text()
    assert text.count('"k":"scenario.run"') == 1
    drops = cluster.trace.select(kind="drop")
    assert drops and all(ev.get("reason") == "fault" for ev in drops)
    assert text.count('"k":"drop"') == len(drops)


# ----------------------------------------------------- one event per fault
def test_every_fault_family_is_narrated_with_one_literal_event_shape():
    """The (kind, pid, data) of each fault's trace event is defined once,
    by ``FaultPlan.apply``: process-targeted events (stall / resume / skew
    / crash) carry ``pid=target``, network-wide ones ``pid=None`` — on
    every substrate, so merged traces read the same wherever they ran."""
    scenario = handmade([
        {"t": 0.25, "op": "partition", "groups": [[2]]},
        {"t": 0.50, "op": "heal"},
        {"t": 0.75, "op": "stall", "pid": 1},
        {"t": 1.00, "op": "resume", "pid": 1},
        {"t": 1.25, "op": "degrade", "src": 0, "dst": 1, "loss": 0.5},
        {"t": 1.50, "op": "restore", "src": 0, "dst": 1},
        {"t": 1.75, "op": "storm", "loss": 1.0},
        {"t": 2.00, "op": "calm"},
        {"t": 2.25, "op": "skew", "pid": 0, "offset": 0.01},
        {"t": 2.50, "op": "isolate", "pid": 0},
        {"t": 2.75, "op": "heal"},
        {"t": 3.00, "op": "crash", "pid": 2},
    ])
    result, trace = run_once(scenario)
    assert result["ok"], result["verdicts"]
    narrated = [
        (ev.time, ev.kind, ev.pid, ev.data) for ev in trace.events
        if ev.kind.startswith("scenario.") or ev.kind == "crash"
    ]
    silence = "silence"
    assert narrated == [
        (0.0, "scenario.run", None, {"name": "scenario", "events": 12}),
        (0.25, "scenario.partition", None, {"groups": [[2], [0, 1]]}),
        (0.50, "scenario.heal", None, {}),
        (0.75, "scenario.stall", 1, {"target": 1, "signal": silence}),
        (1.00, "scenario.resume", 1, {"target": 1, "signal": silence}),
        (1.25, "scenario.degrade", None,
         {"src": 0, "dst": 1, "loss": 0.5, "delay": None}),
        (1.50, "scenario.restore", None, {"src": 0, "dst": 1}),
        (1.75, "scenario.storm", None, {"loss": 1.0}),
        (2.00, "scenario.calm", None, {}),
        (2.25, "scenario.skew", 0, {"target": 0, "offset": 0.01}),
        (2.50, "scenario.partition", None, {"groups": [[0], [1, 2]]}),
        (2.75, "scenario.heal", None, {}),
        (3.00, "crash", 2, {}),
    ]
