"""Regenerate the example per-node traces in this directory.

Runs the deterministic loopback scenario (n = 3, fixed 1.0 delays, leader
p0 killed at t = 2.0, all proposals in flight, metrics snapshots every
10.0) with per-node JSONL shipping, then fabricates disagreeing
wall-clock epochs in the headers —
node 0 "booted" 0.2 s after node 2, node 1 0.55 s after — so that

    python -m repro trace merge examples/traces/node-*.jsonl

has real clock offsets to recover.  The run itself is virtual-clock and
seeded, so regeneration is byte-for-byte reproducible.

Usage:  PYTHONPATH=src python examples/traces/regenerate.py
"""

import json
from pathlib import Path

from repro.cluster import LocalCluster, attach_standard_stack
from repro.sim import FixedDelay

HERE = Path(__file__).parent
#: Fabricated wall clocks at trace time zero (node 2 anchors the merge).
EPOCHS = {0: 1000.0, 1: 1000.35, 2: 999.8}


def main():
    cluster = LocalCluster(
        n=3, transport="loopback", clock="virtual", seed=0, trace_out=HERE,
    )
    cluster.plan.storm(0.0, delay=FixedDelay(1.0))
    stacks = attach_standard_stack(
        cluster, period=5.0, initial_timeout=12.0, timeout_increment=5.0,
        metrics_interval=10.0,
    )
    cluster.start_virtual()
    for p in stacks["consensus"]:
        p.propose(f"v{p.pid}")
    cluster.schedule_kill(0, 2.0)
    cluster.run_virtual(until=80.0)
    cluster.close_traces()

    for pid, epoch in EPOCHS.items():
        path = HERE / f"node-{pid}.jsonl"
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["epoch_wall"] = epoch
        lines[0] = json.dumps(header, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        print(f"{path.name}: {len(lines) - 1} events, epoch_wall={epoch}")


if __name__ == "__main__":
    main()
