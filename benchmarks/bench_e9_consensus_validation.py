"""E9 — Theorem 2: Uniform Consensus correctness under f < n/2 crashes.

A statistical battery over random system sizes, crash patterns, detector
stabilization times and networks, verifying all four properties
(termination, uniform agreement, validity, uniform integrity) for every
protocol on every run.  Expected: 100% across the table — Theorem 2 for
the ◇C algorithm, the original papers' theorems for the baselines.
"""

import random

import pytest

from repro.analysis import extract_outcome, check_consensus
from repro.sim.failures import CrashEvent, CrashSchedule
from repro.workloads import consensus_run, wan_link

from _harness import publish_table

SEEDS = range(10)
ALGOS = ("ec", "ct", "mr", "paxos")


def random_case(algo, seed):
    rng = random.Random(seed * 7919 + ALGOS.index(algo))
    n = rng.choice([3, 5, 7])
    crash_count = rng.randint(0, (n - 1) // 2)
    victims = rng.sample(range(n), crash_count)
    crashes = CrashSchedule(
        CrashEvent(pid, rng.uniform(0.0, 150.0)) for pid in victims
    )
    stabilize = rng.choice([0.0, 100.0])
    return consensus_run(
        algo, n=n, seed=seed,
        stabilize_time=stabilize,
        pre_behavior="erratic" if stabilize else "ideal",
        crashes=crashes, link=wan_link(),
    ), n, crash_count


def test_e9_consensus_validation(benchmark):
    rows = []
    for algo in ALGOS:
        ok = {p: 0 for p in
              ("termination", "uniform-agreement", "validity",
               "uniform-integrity")}
        runs = 0
        for seed in SEEDS:
            run, n, crashes = random_case(algo, seed)
            run.run(until=6000.0)
            outcome = extract_outcome(run.world.trace, algo)
            results = check_consensus(outcome, run.world.correct_pids)
            runs += 1
            for prop, holds in results.items():
                ok[prop] += int(holds)
        rows.append((
            algo,
            *[f"{ok[p]}/{runs}" for p in
              ("termination", "uniform-agreement", "validity",
               "uniform-integrity")],
        ))
        for prop, count in ok.items():
            assert count == runs, (algo, prop, count, runs)
    publish_table(
        "e9_consensus_validation",
        "E9 — Uniform Consensus properties over random adverse runs "
        f"({len(list(SEEDS))} runs/protocol; random n, crashes f<n/2, "
        "stabilization, WAN delays)",
        ["protocol", "termination", "uniform agreement", "validity",
         "uniform integrity"],
        rows,
        note="Paper (Thm. 2 for <>C; [6], [20], [13] for the baselines): "
        "all four properties must hold on every run — expect 100%.",
    )

    def one():
        run, _, _ = random_case("ec", 3)
        run.run(until=6000.0)
        return run

    benchmark.pedantic(one, rounds=3, iterations=1)
