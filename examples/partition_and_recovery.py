#!/usr/bin/env python3
"""Network partition, minority stall, majority progress, and recovery.

Seven replicas run a replicated counter (repeated ◇C consensus).  A
partition splits off a 3-process minority: the majority side keeps
committing increments; the minority — unable to gather majorities — stalls
(consensus stays *safe*, it just can't terminate).  When the partition
heals, the minority catches up and all logs converge.  The FD timeline
shows suspicion sweeping across the cut and washing out after healing.

Run:  python examples/partition_and_recovery.py
"""

from repro import ReplicatedStateMachine, World
from repro.analysis import suspicion_timeline
from repro.fd import HeartbeatEventuallyPerfect
from repro.transform import PToC
from repro.sim import FixedDelay, ReliableLink

N = 7
PARTITION = (60.0, 260.0)
MINORITY = [4, 5, 6]


def main() -> None:
    world = World(n=N, seed=31, default_link=ReliableLink(FixedDelay(1.0)))
    replicas = []
    for pid in world.pids:
        hb = world.attach(pid, HeartbeatEventuallyPerfect(
            initial_timeout=10.0, channel="fd.p"))
        fd = world.attach(pid, PToC(hb))  # ◇C via the Section 3 reduction
        # rebroadcast_period turns on the recovery machinery (client-style
        # command retries + retransmitting RB) that partitions require:
        # the base model assumes reliable links, and a partition is not.
        replicas.append(world.attach(
            pid, ReplicatedStateMachine(
                fd, rebroadcast_period=15.0,
                consensus_kwargs={"stubborn_period": 15.0})))
    world.start()

    counters = {pid: 0 for pid in world.pids}

    def apply_command(pid, cmd):
        if cmd["op"] == "inc":  # the only command this demo's clients issue
            counters[pid] += cmd["by"]

    for pid, rsm in enumerate(replicas):
        rsm.on_apply(lambda slot, cmd, pid=pid: apply_command(pid, cmd))

    # Clients submit increments throughout, on both sides of the cut.
    for i, t in enumerate(range(10, 400, 40)):
        replica = replicas[i % N]
        world.scheduler.schedule_at(
            float(t), lambda r=replica: r.submit({"op": "inc", "by": 1}))

    world.fault("partition", {"groups": [MINORITY]}, at=PARTITION[0])
    world.fault("heal", {}, at=PARTITION[1])
    world.run(until=PARTITION[0] + 50.0)
    majority_mid = len(replicas[0].log)
    minority_mid = len(replicas[4].log)
    world.run(until=2500.0)

    print(suspicion_timeline(world.trace, target=4, channel="fd.p",
                             width=64, end=500.0))
    print()
    print(f"partition {PARTITION[0]:.0f}..{PARTITION[1]:.0f}, minority = {MINORITY}")
    print(f"mid-partition log lengths: majority side {majority_mid}, "
          f"minority side {minority_mid}")
    print(f"final counters: { {pid: counters[pid] for pid in world.pids} }")
    logs = {tuple(map(str, r.log)) for r in replicas}
    assert len(logs) == 1, "logs diverged!"
    assert majority_mid > minority_mid, "majority should outpace the minority"
    assert counters[0] == 10 == counters[4]
    print("logs converged after healing; no divergence at any point ✔")


if __name__ == "__main__":
    main()
