#!/usr/bin/env python3
"""Quickstart: solve Uniform Consensus with an Eventually Consistent (◇C)
failure detector.

Builds a 5-process partially synchronous system, deploys the full
message-passing ◇C stack of the paper (leader-based Ω + ring ◇S suspect
lists, combined), runs the ◇C-consensus algorithm of Figs. 3–4 on top, and
prints what happened — including a mid-run crash of the elected leader —
and ASCII timelines of leadership and rounds.

Run:  python examples/quickstart.py
"""

from repro import (
    ECConsensus,
    ReliableBroadcast,
    World,
    attach_ec_stack,
    extract_outcome,
    require_consensus,
)
from repro.analysis import leader_timeline, round_timeline
from repro.workloads import partially_synchronous_link

N = 5
GST = 40.0


def main() -> None:
    # 1. A world: n processes, links chaotic before GST and timely after.
    world = World(n=N, seed=7, default_link=partially_synchronous_link(gst=GST))

    # 2. The ◇C failure-detector stack on every process (Section 3: ◇C at no
    #    extra cost on top of a leader-oriented ◇S implementation).
    detectors = attach_ec_stack(world, suspects="ring", initial_timeout=10.0)

    # 3. The ◇C-consensus algorithm of Section 5 on every process.
    protocols = []
    for pid in world.pids:
        rb = world.attach(pid, ReliableBroadcast(channel="consensus.rb"))
        protocols.append(
            world.attach(pid, ECConsensus(detectors[pid], rb))
        )

    world.start()
    for pid in world.pids:
        protocols[pid].propose(f"value-from-p{pid}")

    # 4. Adversity: the initially elected leader (process 0) crashes.
    world.schedule_crash(0, 120.0)

    world.run(until=2500.0)

    # 5. Report.
    print(f"n = {N}, GST = {GST}, crashed = {sorted(world.crashed_pids)}")
    for protocol in protocols:
        status = (
            f"decided {protocol.decision!r} in round {protocol.decision_round} "
            f"at t={protocol.decision_time:.1f}"
            if protocol.decided
            else "crashed before deciding"
        )
        print(f"  p{protocol.pid}: {status}")
    leaders = {d.pid: d.trusted() for d in detectors if not d.crashed}
    print(f"final leaders: {leaders}")

    # 6. Who led, and which round each process was in, over the first 400
    #    time units: the crash of p0 at 120 hands leadership to p1.
    print()
    print(leader_timeline(world.trace, channel="fd", width=64, end=400.0))
    print()
    print(round_timeline(world.trace, "ec", width=64, end=400.0))

    # 7. Machine-checked correctness: all four Uniform Consensus properties.
    outcome = extract_outcome(world.trace, "ec")
    results = require_consensus(outcome, world.correct_pids)
    print(f"consensus properties: {results}")


if __name__ == "__main__":
    main()
