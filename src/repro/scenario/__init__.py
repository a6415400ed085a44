"""Declarative fault scenarios over the unified ClusterAPI fault surface.

The nemesis layer: where :mod:`repro.cluster` gives every runtime the
same imperative fault verbs (``crash`` / ``stall`` / ``partition`` /
``degrade`` / ``storm`` / ``skew`` / ...), this package makes whole
adversaries *data*:

* :mod:`~repro.scenario.events` — the DSL: :class:`ScenarioEvent` timed
  fault triples and the :class:`Scenario` document (JSON round-trip,
  eager validation, canonical serialization);
* :mod:`~repro.scenario.generator` — :func:`generate_scenario`, the
  seeded Jepsen-style nemesis: same seed ⇒ byte-identical schedule,
  shaped so the run ends in a well-behaved suffix (faults bounded,
  crashes a minority, proposals after the last fault);
* :mod:`~repro.scenario.runner` — the whole run, once:
  :func:`cluster_for` builds the cluster a resolved scenario asks for on
  any runtime, :func:`run_scenario` is the one start → wait → stop
  lifecycle (one ClusterAPI verb call per event, identical on a
  deterministic in-process cluster and a live multi-process one),
  :func:`judge_run` the one meaning of ``result: OK`` and
  :func:`render_run` the one report.

CLI: ``repro scenario gen`` / ``repro scenario run``, plus ``--scenario``
on ``cluster``, ``proc run``, and ``load``.  See ``docs/scenarios.md``.
"""

from __future__ import annotations

from .events import OP_SPECS, Scenario, ScenarioEvent
from .generator import generate_scenario
from .runner import (
    RUNTIMES,
    apply_scenario,
    cluster_for,
    judge_run,
    render_run,
    run_ok,
    run_scenario,
)

__all__ = [
    "OP_SPECS",
    "Scenario",
    "ScenarioEvent",
    "generate_scenario",
    "RUNTIMES",
    "apply_scenario",
    "cluster_for",
    "judge_run",
    "render_run",
    "run_ok",
    "run_scenario",
]
