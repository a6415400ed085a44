"""A3 (ablation) — the adaptive timeout Δp(q) of the Fig. 2 transformation.

Theorem 1's key mechanism: every false suspicion widens Δp(q), so on a
partially synchronous link the number of false-suspicion episodes is
finite.  The ablation compares the shipped adaptive rule against a variant
with ``timeout_increment = 0`` on links that jitter around the initial
timeout: the adaptive leader stops slandering after a bounded number of
mistakes; the fixed-timeout leader keeps oscillating forever, and the
transformed detector loses eventual strong accuracy.
"""

import pytest

from repro.analysis import check_fd_class
from repro.fd import (
    EVENTUALLY_CONSISTENT,
    EVENTUALLY_PERFECT,
    OracleConfig,
    OracleFailureDetector,
)
from repro.sim import ReliableLink, UniformDelay, World
from repro.transform import CToPTransformation

from _harness import publish_table

N = 5
LEADER = 0
END = 8000.0
SPLIT = 4000.0  # mistakes must stop well before the end
# Links jitter up to well past the initial timeout: mistakes are guaranteed.
JITTER_LINK = lambda: ReliableLink(UniformDelay(0.5, 14.0))
INITIAL_TIMEOUT = 8.0


def run_case(increment, seed=3):
    world = World(n=N, seed=seed, default_link=JITTER_LINK())
    transforms = []
    for pid in world.pids:
        src = world.attach(pid, OracleFailureDetector(
            EVENTUALLY_CONSISTENT,
            OracleConfig(pre_behavior="ideal", leader=LEADER),
            channel="fd.c"))
        transforms.append(world.attach(pid, CToPTransformation(
            src, send_period=5.0, alive_period=5.0,
            initial_timeout=INITIAL_TIMEOUT, timeout_increment=increment,
            channel="fdp")))
    world.run(until=END)
    leader = transforms[LEADER]
    # Count the leader's false-suspicion episodes per half of the run.
    episodes_early = episodes_late = 0
    previous = frozenset()
    for ev in world.trace.select(kind="fd", pid=LEADER,
                                 where=lambda e: e.get("channel") == "fdp"):
        new = ev.get("suspected") - previous
        if new:
            if ev.time < SPLIT:
                episodes_early += len(new)
            else:
                episodes_late += len(new)
        previous = ev.get("suspected")
    accuracy = check_fd_class(
        world.trace, EVENTUALLY_PERFECT, world.correct_pids, channel="fdp",
        end_time=END,
    )["accuracy"]
    max_delta = max(leader.delta_of(q) for q in range(N) if q != LEADER)
    return episodes_early, episodes_late, max_delta, accuracy.ok


def test_a3_adaptive_timeouts(benchmark):
    rows = []
    adaptive = run_case(increment=5.0)
    fixed = run_case(increment=0.0)
    for name, (early, late, delta, ok) in (
        ("adaptive (+5.0 per mistake)", adaptive),
        ("fixed (no adaptation)", fixed),
    ):
        rows.append((name, early, late, f"{delta:.0f}",
                     "yes" if ok else "NO"))
    publish_table(
        "a3_adaptive_timeouts",
        "A3 — adaptive vs fixed timeouts in the Fig. 2 transformation "
        f"(delay jitter up to 14 vs initial timeout {INITIAL_TIMEOUT})",
        ["timeout rule", "false suspicions (t < 4000)",
         "false suspicions (t >= 4000)", "final max Δp(q)",
         "eventual strong accuracy"],
        rows,
        note="Paper (Thm. 1 proof): each mistake widens Δp(q); once past "
        "2Φ+Δ the process is never falsely suspected again.  Without "
        "adaptation the oscillation never stops and ◇P accuracy is lost.",
    )

    # Adaptive: mistakes happen early, stop late, accuracy holds.
    assert adaptive[0] >= 1
    assert adaptive[1] == 0
    assert adaptive[3]
    # Fixed: mistakes keep happening; accuracy lost.
    assert fixed[1] >= 1
    assert not fixed[3]

    benchmark.pedantic(lambda: run_case(5.0, seed=4), rounds=2, iterations=1)
