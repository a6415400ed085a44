"""One run: build, drive, judge and render a :class:`Scenario` on any runtime.

Every property the paper proves is a *suffix* property, so how a run is
sized (when it proposes, how long it lasts) and how it is judged are part
of the experiment, not of the command that spelled it.  This module owns
both, once, for every cluster-running command, example and test:

* :func:`cluster_for` — the only place a resolved scenario
  (:meth:`Scenario.resolved`) is unpacked into a constructed cluster, on
  the deterministic virtual clock, the in-process wall clock, or one OS
  process per node;
* :func:`apply_scenario` — one ``cluster.fault(op, args, at=time)`` call
  per event and nothing more.  Called before ``start()``, the faults
  queue; the cluster flushes them onto its clock at start;
* :func:`run_scenario` — the only start → wait → stop lifecycle, with
  ``stop()`` in a ``finally`` so no exception leaks *n* node processes;
* :func:`judge_run` / :func:`run_ok` — the only meaning of
  ``result: OK``: quiescent ∧ every verdict holds ∧ the 2(n−1) bound is
  not violated;
* :func:`render_run` — the only report printer, built from the trace
  every substrate returns via ``traces()``.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Any, Awaitable, Callable, Dict, List, Optional, Union

from ..analysis.consensus_properties import extract_outcome
from ..analysis.qos import QoSReport, qos_report
from ..analysis.timeline import leader_timeline
from ..cluster.api import ClusterAPI, verdicts_ok
from ..cluster.config import NodeConfig
from ..cluster.local import LocalCluster
from ..errors import ConfigurationError
from ..types import Time
from .events import Scenario

__all__ = [
    "RUNTIMES",
    "apply_scenario",
    "cluster_for",
    "judge_run",
    "render_run",
    "run_ok",
    "run_scenario",
]

#: Where a scenario can run: the deterministic virtual clock in-process,
#: the wall clock in-process, or one OS process per node.
RUNTIMES = ("virtual", "local", "proc")


def cluster_for(
    scenario: Scenario,
    runtime: str,
    transport: Optional[str] = None,
    trace_out: Optional[Union[str, Path]] = None,
    serve: bool = False,
    **settings: Any,
) -> ClusterAPI:
    """Construct (not start) the cluster *scenario* asks for on *runtime*.

    The scenario is the run spec: ``n``, ``period``, ``duration`` and
    ``propose_after`` come from ``scenario.resolved()`` and from nowhere
    else.  *settings* are the remaining
    :class:`~repro.cluster.config.NodeConfig` fields (``stack``, ``seed``,
    ``ship_to``, ...); *transport* defaults to loopback in-process and udp
    across processes; *trace_out* is where traces ship (the workdir of a
    process cluster); *serve* opens the KV client ports of an ``rsm``
    process cluster.
    """
    if runtime not in RUNTIMES:
        raise ConfigurationError(
            f"unknown runtime {runtime!r}; pick one of {RUNTIMES}"
        )
    scenario = scenario.resolved()
    if settings.setdefault("period", scenario.period) != scenario.period:
        raise ConfigurationError(
            f"period={settings['period']!r} contradicts the scenario's "
            f"{scenario.period!r}"
        )
    config = NodeConfig.from_dict(settings)
    if runtime == "proc":
        from ..proc import ProcessCluster

        return ProcessCluster(
            n=scenario.n, transport=transport or "udp",
            duration=scenario.duration, propose_after=scenario.propose_after,
            workdir=trace_out, serve=serve, **config.to_dict(),
        )
    if serve:
        raise ConfigurationError("serve=True needs runtime='proc'")
    cluster = LocalCluster(
        n=scenario.n, transport=transport or "loopback",
        clock="virtual" if runtime == "virtual" else "wall",
        trace_out=trace_out, duration=scenario.duration,
        seed=config.seed, ship_to=config.ship_to,
    )
    cluster.deploy_standard_stack(
        propose_after=scenario.propose_after, **config.to_dict())
    return cluster


def apply_scenario(cluster: ClusterAPI, scenario: Scenario) -> None:
    """Arm every event of *scenario* on *cluster* (one fault each).

    Checks that the scenario fits the cluster first: matching ``n`` (when
    the scenario declares one) and a run long enough to play the whole
    schedule out (when both declare durations).  Also records the
    ``scenario.run`` provenance event via the cluster's
    ``note_scenario`` hook when it has one.
    """
    if scenario.n is not None and scenario.n != cluster.n:
        raise ConfigurationError(
            f"scenario {scenario.name!r} was built for n={scenario.n}, "
            f"cluster has n={cluster.n}"
        )
    cluster_duration = getattr(cluster, "duration", None)
    if cluster_duration is not None and scenario.fault_end > cluster_duration:
        raise ConfigurationError(
            f"scenario {scenario.name!r} schedules events up to "
            f"t={scenario.fault_end} but the cluster run only lasts "
            f"{cluster_duration}s"
        )
    note = getattr(cluster, "note_scenario", None)
    if note is not None:
        note(scenario.name, len(scenario.events), seed=scenario.seed)
    for event in scenario.events:
        cluster.fault(event.op, event.args, at=event.time)


async def run_scenario(
    cluster: ClusterAPI,
    scenario: Scenario,
    quiesce_timeout: Optional[Time] = None,
    during: Optional[Callable[[ClusterAPI], Awaitable[Any]]] = None,
) -> Dict[str, Any]:
    """Arm *scenario*, run *cluster* to quiescence, return the postmortem.

    The one lifecycle: ``start()``, then ``await during(cluster)`` when
    given (what a command does *while* the schedule plays — offer load,
    refresh a status table; its return value is ``result["during"]``),
    then ``wait_quiescent``, with ``stop()`` in a ``finally``.  Returns
    :func:`judge_run`'s mapping.
    """
    scenario = scenario.resolved(default_n=cluster.n)
    apply_scenario(cluster, scenario)
    outcome = None
    try:
        await cluster.start()
        if during is not None:
            outcome = await during(cluster)
        quiescent = await cluster.wait_quiescent(quiesce_timeout)
    finally:
        await cluster.stop()
    result = judge_run(cluster, scenario, quiescent)
    result["during"] = outcome
    return result


def run_ok(quiescent: bool, verdicts: Dict[str, Any], qos: QoSReport) -> bool:
    """The one meaning of ``result: OK``: the run played out, every
    verdict holds, and the transformation's 2(n−1) message-cost bound is
    not violated (``bound_ok is None`` — no stable suffix to measure, or
    no period — is not a violation)."""
    return (
        bool(quiescent) and verdicts_ok(verdicts)
        and qos.bound_ok is not False
    )


def judge_run(
    cluster: ClusterAPI, scenario: Scenario, quiescent: bool = True
) -> Dict[str, Any]:
    """Judge a finished run of *scenario* (resolved) on *cluster*.

    Returns ``{"scenario", "where", "quiescent", "verdicts", "qos",
    "trace", "ok"}``: the ◇C class checks plus Uniform Consensus (or the
    log-level checks on an ``rsm`` stack), the Chen-style QoS report with
    the 2(n−1) bound, and :func:`run_ok` over them.
    """
    trace = cluster.traces()
    verdicts = cluster.verdicts()
    qos = qos_report(trace, period=scenario.period, n=scenario.n)
    return {
        "scenario": scenario,
        "where": repr(cluster),
        "quiescent": quiescent,
        "verdicts": verdicts,
        "qos": qos,
        "trace": trace,
        "ok": run_ok(quiescent, verdicts, qos),
    }


def _outcomes(result: Dict[str, Any]) -> List[str]:
    """Per-node outcome lines, from the ``apply`` / ``decide`` / ``crash``
    events of the run's trace."""
    trace, crashes = result["trace"], result["qos"].crashes
    applied = Counter(e.pid for e in trace.events if e.kind == "apply")
    consensus = extract_outcome(trace, "ec")
    lines = []
    for pid in range(result["scenario"].n):
        states = []
        if applied[pid]:
            states.append(f"applied {applied[pid]} commands")
        elif pid in consensus.decisions:
            states.append(f"decided {consensus.decisions[pid]!r} "
                          f"(round {consensus.decision_rounds[pid]})")
        if pid in crashes:
            states.append(f"crashed at t={crashes[pid]:.3f}")
        lines.append(f"  p{pid}: {', '.join(states) or 'undecided'}")
    return lines


def render_run(result: Dict[str, Any]) -> str:
    """The one report of a run, from a :func:`judge_run` mapping: header
    (the resolved run parameters and where it ran), any ``result["notes"]``
    lines the command added, the armed faults, the leader timeline,
    per-node outcomes, the verdict table, the QoS report (T_D, mistakes,
    per-channel message cost against the 2(n−1) bound) and the result
    line."""
    scenario, qos = result["scenario"], result["qos"]
    lines = [
        f"scenario {scenario.name!r}: {len(scenario)} events, "
        f"n={scenario.n} period={scenario.period} "
        f"propose_after={scenario.propose_after} "
        f"duration={scenario.duration}",
        f"ran on {result['where']}",
        *result.get("notes", ()),
        "faults:" if scenario.events else "faults: none",
    ]
    for event in scenario.events:
        args = " ".join(f"{k}={v}" for k, v in event.args.items())
        lines.append(f"  t={event.time:<9g} {event.op} {args}".rstrip())
    lines += [
        "",
        leader_timeline(
            result["trace"], channel="fd", width=64, end=qos.end_time),
        "",
        *_outcomes(result),
        "verdicts:",
    ]
    for name, verdict in result["verdicts"].items():
        lines.append(f"  {name:32s} {'ok' if verdict else 'VIOLATED'}")
    why = "" if result["quiescent"] else " (nodes still running at timeout)"
    lines += [
        "", qos.format(), "",
        "result: OK" if result["ok"] else f"result: FAILED{why}",
    ]
    return "\n".join(lines)
