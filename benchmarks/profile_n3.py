"""Where does a command's CPU go?  cProfile + tracemalloc over N3's shape.

The ledger (``benchmarks/ledger``) says *how fast*; this says *which
function*.  It profiles one ``rsm_burst``-shaped run — n = 3, loopback,
virtual clock, 4 bursts of 256 dict commands submitted at the leader and
drained on every replica, fixed seed — and, with ``--live``, one BENCH_N3
``loopback/n3/c10`` cell (real TCP clients, wall clock).  For each it
prints the top 25 functions by cumulative and by self time; a second,
unprofiled burst run under tracemalloc gives the top 10 allocation sites.
With ``--sim`` it also profiles one ``paper_sim``-shaped episode (the
ledger's: n = 16 on the pure simulator, ring + Ω → ◇C, Fig. 2 ◇C → ◇P,
one consensus, two crashes) and prints its event mix by callback: each
function the scheduler's run loop called, how often, and whether it was a
periodic timer tick, a dead tick, a message delivery or a task wake.

cProfile charges every Python call and no native work, so the proportions
lean towards call-heavy code: use the table to pick candidates, then
measure the candidate with ``benchmarks/ledger/run.py``.  Call counts are
exact and comparable across commits; seconds are this host's.

Usage (``PYTHONPATH=src``, as for the ``bench_*`` files)::

    python benchmarks/profile_n3.py [--live] [--sim] [--out FILE] [--quick]

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
from typing import Callable, Dict, List, Set, Tuple

from bench_n3_throughput import measure

from repro.broadcast import ReliableBroadcast
from repro.cluster import LocalCluster
from repro.consensus import ECConsensus, propose_all
from repro.fd import attach_ec_stack
from repro.sim import World
from repro.transform import CToPTransformation
from repro.workloads import partially_synchronous_link

RESULTS = Path(__file__).resolve().parent / "results" / "profile_n3.txt"
SEED = 7
PERIOD = 0.05
SETTLE_VT = 1.0
BURST_EVERY = 0.02
TOP_CALLS = 25
TOP_ALLOCATIONS = 10
# paper_sim's shape (benchmarks/ledger/loads.py): periods, GST, crashes.
SIM_N, SIM_PERIOD, SIM_GST = 16, 5.0, 50.0
SIM_CRASHES = ((0, 25.0), (SIM_N // 2, 150.0))
SIM_PROPOSE, SIM_HORIZON = 300.0, 600.0


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


def sim_run(ticks: Set[Tuple[str, int, str]]) -> World:
    """One paper_sim-shaped episode; adds to *ticks* the (file, line, name)
    of every callback the episode runs with ``schedule_every``."""
    world = World(n=SIM_N, seed=SEED, trace_kinds=(),
                  default_link=partially_synchronous_link(
                      gst=SIM_GST, pre_max=30.0))
    every = world.scheduler.schedule_every

    def recording_every(period, callback, *args):
        code = callback.__code__
        ticks.add((code.co_filename, code.co_firstlineno, code.co_name))
        return every(period, callback, *args)

    world.scheduler.schedule_every = recording_every
    detectors = attach_ec_stack(
        world, suspects="ring", period=SIM_PERIOD, initial_timeout=12.0)
    protocols = []
    for pid in world.pids:
        world.attach(pid, CToPTransformation(
            detectors[pid], send_period=SIM_PERIOD, alive_period=SIM_PERIOD,
            initial_timeout=12.0, channel="fdp"))
        rb = world.attach(pid, ReliableBroadcast(channel="consensus.rb"))
        protocols.append(world.attach(pid, ECConsensus(detectors[pid], rb)))
    world.start()
    for pid, at in SIM_CRASHES:
        world.schedule_crash(pid, at)
    world.run(until=SIM_PROPOSE)
    propose_all([p for p in protocols if not p.crashed])
    world.run(until=SIM_HORIZON)
    return world


def profiled(run: Callable[..., object], *args: object) -> pstats.Stats:
    profile = cProfile.Profile()
    profile.enable()
    try:
        run(*args)
    finally:
        profile.disable()
    return pstats.Stats(profile)


def event_mix(title: str, stats: pstats.Stats, fired: int,
              ticks: Set[Tuple[str, int, str]]) -> str:
    """Every Python callee of ``Scheduler.run``, with its call count from
    there: one call per fired event.  Built-ins the loop calls itself
    (heap push/pop, ``next`` on the sequence counter) are not events."""
    loop = next(key for key in stats.stats
                if key[0].endswith("scheduler.py") and key[2] == "run")
    kinds = {"_noop": "dead tick", "_finish_delivery": "delivery",
             "_wake": "task wake", "_guarded": "set_timer", "crash": "crash"}
    rows = sorted(
        ((callers[loop][1], "timer tick" if key in ticks
          else kinds.get(key[2], "other"), key)
         for key, (*_, callers) in stats.stats.items()
         if loop in callers and key[0] != "~"),
        reverse=True,
    )
    if sum(row[0] for row in rows) != fired:
        raise SystemExit("profile_n3: event mix does not add up")
    totals: Dict[str, int] = {}
    lines = [f"== {title}: {fired} events by callback ==",
             f"{'events':>8}  {'share':>6}  {'kind':<10}  callback"]
    for count, kind, (path, line, name) in rows:
        totals[kind] = totals.get(kind, 0) + count
        lines.append(f"{count:8d}  {count / fired:6.1%}  {kind:<10}  "
                     f"{Path(path).name}:{line}({name})")
    lines.append("by kind: " + ", ".join(
        f"{kind} {count} ({count / fired:.1%})"
        for kind, count in sorted(totals.items(), key=lambda kv: -kv[1])))
    return "\n".join(lines) + "\n"


def call_tables(title: str, stats: pstats.Stats) -> str:
    out = io.StringIO()
    stats.stream = out
    stats.strip_dirs()
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
    parser.add_argument("--sim", action="store_true",
                        help="also profile one paper_sim-shaped episode "
                             "and print its event mix by callback")
    parser.add_argument("--quick", action="store_true",
                        help="tiny run, print only (CI smoke)")
    parser.add_argument("--out", type=Path, default=RESULTS)
    args = parser.parse_args()
    bursts, burst, seconds = (1, 64, 1.0) if args.quick else (4, 256, 3.0)
    shape = f"rsm_burst shape, n=3, {bursts} x {burst} commands, seed {SEED}"
    sections: List[str] = [
        call_tables(shape, profiled(burst_run, bursts, burst)),
        allocation_table(shape, burst_run, bursts, burst),
    ]
    if args.sim:
        ticks: Set[Tuple[str, int, str]] = set()
        worlds: List[World] = []
        stats = profiled(lambda: worlds.append(sim_run(ticks)))
        sim = (f"paper_sim shape, n={SIM_N}, {SIM_HORIZON:g} time units, "
               f"seed {SEED}")
        sections.append(event_mix(
            sim, stats, worlds[0].scheduler.events_fired, ticks))
        sections.append(call_tables(sim, stats))
    if args.live:
        sections.append(call_tables(
            f"loopback/n3/c10, {seconds:g} s closed loop",
            profiled(measure, ("loopback", 3, 10, seconds, 30.0)),
        ))
    report = "\n".join(sections)
    print(report)
    if not args.quick:
        args.out.write_text(report)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
