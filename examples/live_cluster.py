#!/usr/bin/env python3
"""Live cluster: the same ◇C + consensus stack, but on real sockets.

Everything the other examples run inside the discrete-event simulator runs
here on real asyncio event loops: five nodes on localhost UDP, heartbeats
every 50 wall-clock milliseconds, the unchanged component classes from
``repro.fd`` / ``repro.transform`` / ``repro.consensus``.  We let the
nodes elect a leader, kill the leader's node outright (its socket goes
silent mid-run), and watch the survivors re-elect and still reach a
uniform decision — then check the run with the *same* trace analysis the
simulator uses.

Run:  python examples/live_cluster.py
"""

import asyncio

from repro.analysis import (
    check_consensus,
    extract_outcome,
    leader_timeline,
    round_timeline,
)
from repro.net import LocalCluster, attach_standard_stack

N = 5
PERIOD = 0.05  # wall-clock seconds between heartbeats


async def main() -> None:
    # 1. Five NodeHosts in this process, each with its own UDP socket.
    cluster = LocalCluster(n=N, transport="udp", seed=7)
    stacks = attach_standard_stack(cluster, period=PERIOD)
    detectors, protocols = stacks["fd"], stacks["consensus"]

    # 2. Boot and give the ◇C stack a moment to elect and announce a leader.
    await cluster.start()
    await cluster.run(8 * PERIOD)
    leader = detectors[1].trusted()
    print(f"elected leader: p{leader} "
          f"(all agree: {len({d.trusted() for d in detectors}) == 1})")

    # 3. Kill the leader's node: process crashed, socket closed, silence.
    kill_time = cluster.now
    cluster.kill(leader)
    print(f"killed p{leader} at t={kill_time:.2f}s; survivors propose...")
    for p in protocols:
        if not p.crashed:
            p.propose(f"value-from-p{p.pid}")

    # 4. Wait (in wall time!) for every survivor to decide.
    decided = await cluster.run_until(
        lambda: all(p.decided for p in protocols if not p.crashed),
        timeout=30.0,
    )
    await cluster.run(2 * PERIOD)  # let trailing frames land in the trace
    await cluster.stop()

    # 5. The same analysis the simulator gets — one shared trace.
    print()
    print(leader_timeline(cluster.trace, channel="fd", width=64,
                          end=cluster.now))
    print()
    print(round_timeline(cluster.trace, "ec", width=64, end=cluster.now))
    print()
    for p in protocols:
        state = (f"decided {p.decision!r}" if p.decided
                 else ("killed" if p.crashed else "undecided"))
        print(f"  p{p.pid}: {state}")
    outcome = extract_outcome(cluster.trace, "ec")
    results = check_consensus(outcome, cluster.correct_pids)
    print("properties:", results)

    # The example checks itself: a silent pass would be worthless.
    assert decided, "survivors failed to decide in time"
    assert all(results.values()), results
    values = {p.decision for p in protocols if p.decided}
    assert len(values) == 1, f"split decision: {values}"
    print(f"\nuniform decision over real sockets: {values.pop()!r}")


if __name__ == "__main__":
    asyncio.run(main())
