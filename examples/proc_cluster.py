#!/usr/bin/env python3
"""Process cluster: one OS process per node, crashes by ``kill -9``.

``examples/live_cluster.py`` hosts five nodes in one Python process;
here each node is a real subprocess (``python -m repro node``) bound to
its own UDP socket, discovering its peers from a static JSON address
book.  The crash model is the real thing — the launcher SIGKILLs the
initial leader mid-run, so the victim gets no chance to say goodbye:
its heartbeats just stop, exactly the crash-stop silence the paper's
detectors are built to notice.

There is no shared trace object across processes, so analysis is
entirely *postmortem*: every node ships ``node-<pid>.jsonl``, the
offline merger rebases their clocks onto one time base, the launcher
injects a synthetic ``crash`` event at the recorded kill time, and the
merged stream feeds the exact same property checkers as a simulator or
in-process run.

Run:  python examples/proc_cluster.py
"""

import asyncio

from repro.scenario import Scenario, cluster_for, render_run, run_scenario

# The whole run is one document: there is no live control channel into a
# foreign process, only the address book and time.
SCENARIO = Scenario(
    name="kill-the-ring-leader",
    n=3,
    period=0.05,       # wall-clock seconds between heartbeats
    duration=6.0,      # every surviving node exits 0 after it
    propose_after=3.5,  # survivors propose after the crash
    events=[{"t": 2.5, "op": "crash", "pid": 0}],  # SIGKILL the leader
)


def main() -> None:
    # 1. Build the cluster the document asks for, one OS process per node
    #    (wall-clock by nature: real processes, real signals).
    cluster = cluster_for(
        SCENARIO, "proc", transport="udp", stack="ring", seed=7)
    print(f"spawning {SCENARIO.n} node processes under {cluster.workdir}; "
          f"kill -9 of p0 scheduled at t=2.5s; waiting...")

    # 2. Spawn the nodes, let the schedule play out, merge the shipped
    #    traces, check the properties.
    result = asyncio.run(run_scenario(cluster, SCENARIO))

    # 3. Exit statuses tell the crash-model story: -9 is SIGKILL.
    result["notes"] = [
        f"  p{pid}: exit {status}" + (" (killed)" if status == -9 else "")
        for pid, status in sorted(cluster.exit_statuses.items())
    ]
    print(render_run(result))

    # The example checks itself: a silent pass would be worthless.
    assert result["ok"], result["verdicts"]
    omega = result["verdicts"]["fd.omega"]
    assert omega.witness != 0, "dead p0 cannot be the stable leader"
    print(f"\nnew stable leader after the kill: p{omega.witness}")


if __name__ == "__main__":
    main()
