#!/usr/bin/env python3
"""Declarative fault scenarios: one schedule, two substrates.

A :class:`repro.scenario.Scenario` is a compiled adversary — timed fault
events over the unified :class:`repro.cluster.ClusterAPI` verb surface.
This example builds one *by hand* (crash, stall/resume, partition/heal as
plain ``{"op": ...}`` event dicts), runs it on a deterministic
virtual-clock cluster twice to show the byte-identical replay, then
generates a *seeded random* nemesis schedule with
:func:`repro.scenario.generate_scenario` and runs that too.  Every run
ends in the machine-checked verdicts — the eventual-consistency
contract: wrongful suspicions during the fault windows, agreement and
progress after them.

The same documents drive a real multi-process cluster (SIGSTOP stalls,
kill -9 crashes, per-node fault-control messages) through the identical
verb calls:  ``python -m repro scenario run --file nemesis.json
--runtime proc``.

Run:  python examples/scenario_nemesis.py
"""

import asyncio

from repro.scenario import (
    Scenario,
    cluster_for,
    generate_scenario,
    render_run,
    run_scenario,
)

# A hand-written scenario document: the dict form mirrors the JSON file
# `repro scenario gen` emits (times in cluster seconds; this one is
# scaled for PERIOD below, one detection timeout = 2.4 * PERIOD).
PERIOD = 0.05
HANDMADE = {
    "name": "handmade-nemesis",
    "n": 3,
    "period": PERIOD,
    "duration": 6.0,
    "propose_after": 4.0,
    "events": [
        {"t": 0.50, "op": "partition", "groups": [[2]]},
        {"t": 1.00, "op": "heal"},
        {"t": 1.60, "op": "stall", "pid": 1},
        {"t": 2.20, "op": "resume", "pid": 1},
        {"t": 2.80, "op": "degrade", "src": 0, "dst": 1, "loss": 0.6},
        {"t": 3.20, "op": "restore", "src": 0, "dst": 1},
        {"t": 3.60, "op": "crash", "pid": 2},
    ],
}


def run_once(scenario: Scenario, seed: int = 1):
    """One deterministic virtual-clock run; returns its result mapping."""
    cluster = cluster_for(scenario, "virtual", stack="ring", seed=seed)
    return asyncio.run(run_scenario(cluster, scenario))


def main() -> None:
    scenario = Scenario.from_dict(HANDMADE)
    result_a = run_once(scenario)
    result_b = run_once(scenario)
    print(render_run(result_a))
    trace_a, trace_b = result_a["trace"].events, result_b["trace"].events
    print(f"\nbyte-identical replay: {trace_a == trace_b} "
          f"({len(trace_a)} events), ok={result_b['ok']}")

    generated = generate_scenario(
        n=3, seed=7, period=PERIOD, partitions=1, stalls=1, storms=1,
        degrades=1, crashes=1,
    )
    print(f"\ngenerated scenario {generated.name!r}: {len(generated)} "
          f"events (same seed => byte-identical JSON)")
    print(render_run(run_once(generated)))


if __name__ == "__main__":
    main()
