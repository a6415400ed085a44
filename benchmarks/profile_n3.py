"""Where does a command's CPU go?  cProfile + tracemalloc over N3's shape.

The ledger (``benchmarks/ledger``) says *how fast*; this says *which
function*.  It profiles one ``rsm_burst``-shaped run — n = 3, loopback,
virtual clock, 4 bursts of 256 dict commands submitted at the leader and
drained on every replica, fixed seed — and, with ``--live``, one BENCH_N3
``loopback/n3/c10`` cell (real TCP clients, wall clock).  For each it
prints the top 25 functions by cumulative and by self time; a second,
unprofiled burst run under tracemalloc gives the top 10 allocation sites.

cProfile charges every Python call and no native work, so the proportions
lean towards call-heavy code: use the table to pick candidates, then
measure the candidate with ``benchmarks/ledger/run.py``.  Call counts are
exact and comparable across commits; seconds are this host's.

Usage (``PYTHONPATH=src``, as for the ``bench_*`` files)::

    python benchmarks/profile_n3.py [--live] [--out FILE] [--quick]

Writes ``benchmarks/results/profile_n3.txt`` unless ``--out`` names another
file; ``--quick`` (the CI smoke) runs one 64-command burst and a 1 s cell
and only prints.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import random
import tracemalloc
from pathlib import Path
from typing import Callable, List

from bench_n3_throughput import measure

from repro.cluster import LocalCluster

RESULTS = Path(__file__).resolve().parent / "results" / "profile_n3.txt"
SEED = 7
PERIOD = 0.05
SETTLE_VT = 1.0
BURST_EVERY = 0.02
TOP_CALLS = 25
TOP_ALLOCATIONS = 10


def burst_run(bursts: int, burst: int) -> None:
    """Submit *bursts* × *burst* commands at the leader; drain everywhere."""
    rng = random.Random(SEED)
    cluster = LocalCluster(
        n=3, transport="loopback", clock="virtual", seed=SEED, trace_kinds=(),
    )
    stacks = cluster.deploy_standard_stack(stack="rsm", period=PERIOD)
    cluster.start_virtual()
    cluster.run_virtual(until=SETTLE_VT)
    rsms = stacks["rsm"]
    leader = rsms[stacks["fd"][0].trusted()]
    commands = [
        {"client": "burst", "seq": seq, "op": "put",
         "key": f"k{rng.randrange(64)}", "value": rng.getrandbits(48)}
        for seq in range(bursts * burst)
    ]
    vt = cluster.now
    for index in range(bursts):
        for command in commands[index * burst:(index + 1) * burst]:
            leader.submit(command)
        vt += BURST_EVERY
        cluster.run_virtual(until=vt)
    while min(len(rsm.log) for rsm in rsms) < len(commands):
        if vt > SETTLE_VT + 60.0:
            raise SystemExit("profile_n3: the bursts never drained")
        vt += BURST_EVERY
        cluster.run_virtual(until=vt)
    if any(rsm.log != commands for rsm in rsms):
        raise SystemExit("profile_n3: a replica's log is not the input")


def call_tables(title: str, run: Callable[..., object], *args: object) -> str:
    profile = cProfile.Profile()
    profile.enable()
    try:
        run(*args)
    finally:
        profile.disable()
    out = io.StringIO()
    stats = pstats.Stats(profile, stream=out).strip_dirs()
    for order in ("cumulative", "tottime"):
        out.write(f"== {title}: top {TOP_CALLS} by {order} ==\n")
        stats.sort_stats(order).print_stats(TOP_CALLS)
    return out.getvalue()


def allocation_table(
    title: str, run: Callable[..., object], *args: object
) -> str:
    tracemalloc.start()
    try:
        run(*args)
        snapshot = tracemalloc.take_snapshot()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    root = Path(__file__).resolve().parent.parent
    lines = [
        f"== {title}: top {TOP_ALLOCATIONS} allocation sites still live at "
        f"the end (traced peak {peak / 2 ** 20:.1f} MiB) ==",
    ]
    for stat in snapshot.statistics("lineno")[:TOP_ALLOCATIONS]:
        frame = stat.traceback[0]
        try:
            where = Path(frame.filename).resolve().relative_to(root)
        except ValueError:
            where = Path(frame.filename).name
        lines.append(
            f"{stat.size / 1024:10.1f} KiB  {stat.count:8d} blocks  "
            f"{where}:{frame.lineno}"
        )
    return "\n".join(lines) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--live", action="store_true",
                        help="also profile one loopback/n3/c10 cell")
    parser.add_argument("--quick", action="store_true",
                        help="tiny run, print only (CI smoke)")
    parser.add_argument("--out", type=Path, default=RESULTS)
    args = parser.parse_args()
    bursts, burst, seconds = (1, 64, 1.0) if args.quick else (4, 256, 3.0)
    shape = f"rsm_burst shape, n=3, {bursts} x {burst} commands, seed {SEED}"
    sections: List[str] = [
        call_tables(shape, burst_run, bursts, burst),
        allocation_table(shape, burst_run, bursts, burst),
    ]
    if args.live:
        sections.append(call_tables(
            f"loopback/n3/c10, {seconds:g} s closed loop",
            measure, ("loopback", 3, 10, seconds, 30.0),
        ))
    report = "\n".join(sections)
    print(report)
    if not args.quick:
        args.out.write_text(report)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
