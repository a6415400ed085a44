"""Randomized end-to-end battery: every algorithm under random adversity.

Each case draws a random system size, crash pattern, stabilization time and
network from the seed, runs consensus, and verifies all four Uniform
Consensus properties.  This is the workhorse correctness test — bugs in
round handling, quorum waits, or late-coordinator bookkeeping show up here
as agreement or termination violations.
"""

import random

import pytest

from repro.analysis import extract_outcome, require_consensus
from repro.sim.failures import CrashSchedule, CrashEvent
from repro.workloads import consensus_run, wan_link

pytestmark = pytest.mark.slow  # randomized battery; skipped by -m "not slow"


def random_case(algo, seed):
    rng = random.Random(seed * 1000 + ALGOS.index(algo))
    n = rng.choice([3, 4, 5, 6, 7])
    max_crashes = (n - 1) // 2
    crash_count = rng.randint(0, max_crashes)
    victims = rng.sample(range(n), crash_count)
    crashes = CrashSchedule(
        CrashEvent(pid, rng.uniform(0.0, 200.0)) for pid in victims
    )
    stabilize = rng.choice([0.0, 60.0, 150.0])
    return consensus_run(
        algo,
        n=n,
        seed=seed,
        stabilize_time=stabilize,
        pre_behavior="erratic" if stabilize else "ideal",
        crashes=crashes,
        link=wan_link(),
    )


ALGOS = ["ec", "ct", "mr", "paxos"]


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("seed", range(6))
def test_random_adversity(algo, seed):
    run = random_case(algo, seed).run(until=6000.0)
    outcome = extract_outcome(run.world.trace, algo)
    require_consensus(outcome, run.world.correct_pids)
    assert run.decided, (
        f"{algo} seed={seed}: correct processes failed to decide"
    )


@pytest.mark.parametrize("algo", ALGOS)
def test_thorough_battery(algo, thorough):
    """Extended sweep, enabled with ``pytest --thorough``."""
    if not thorough:
        pytest.skip("pass --thorough for the extended battery")
    for seed in range(6, 40):
        run = random_case(algo, seed).run(until=8000.0)
        outcome = extract_outcome(run.world.trace, algo)
        require_consensus(outcome, run.world.correct_pids)
        assert run.decided, f"{algo} seed={seed}"
