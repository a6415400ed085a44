"""Drive a :class:`~repro.scenario.events.Scenario` against any cluster.

The runner is deliberately thin: a scenario is already a compiled
schedule over the shared fault vocabulary, so :func:`apply_scenario` is
one ``cluster.fault(op, args, at=time)`` call per event and nothing more.
Called before ``start()``, the faults queue; the cluster flushes them
onto its clock at start — which is exactly how scripted crashes have
always worked, now for every fault family.  The same function therefore arms a deterministic virtual-clock
:class:`~repro.cluster.LocalCluster` and a live multi-process
:class:`~repro.proc.ProcessCluster`, through the same calls.

:func:`run_scenario` adds the standard lifecycle around it (start, wait
out the duration, stop, collect verdicts) for harnesses that want the
one-call version.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..cluster.api import ClusterAPI, verdicts_ok
from ..errors import ConfigurationError
from ..types import Time
from .events import Scenario

__all__ = ["apply_scenario", "run_scenario"]


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
) -> Dict[str, Any]:
    """Arm *scenario*, run *cluster* to quiescence, return the postmortem.

    Returns ``{"quiescent": bool, "verdicts": {...}, "ok": bool}`` —
    ``ok`` is :func:`~repro.cluster.api.verdicts_ok` over the verdicts,
    the single pass/fail bit every scenario run ends in.
    """
    apply_scenario(cluster, scenario)
    await cluster.start()
    quiescent = await cluster.wait_quiescent(quiesce_timeout)
    await cluster.stop()
    verdicts = cluster.verdicts()
    return {
        "quiescent": quiescent,
        "verdicts": verdicts,
        "ok": verdicts_ok(verdicts),
    }
