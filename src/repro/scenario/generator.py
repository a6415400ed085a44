"""Seeded randomized scenario generation — the Jepsen-style nemesis.

:func:`generate_scenario` compiles a random but *reproducible* fault
schedule: a :class:`random.Random` seeded stream drives every choice, so
the same ``(n, seed, counts)`` produce a byte-identical
:meth:`~repro.scenario.events.Scenario.to_json` document, on any machine.
That is the property the paper's experiments need — a scenario is a
citable artifact (``seed=7``), not a one-off.

The schedule's *shape* encodes the eventual-consistency contract:

* fault windows are **sequential and bounded** — every partition heals,
  every stall resumes, every storm calms.  Windows are long enough
  (several detection timeouts) to force wrongful suspicions, and the gaps
  between them long enough for the detectors to re-stabilize;
* **crashes come last** and stay a minority (``crashes <= (n-1)//2``), so
  the run still has a correct majority and the verdicts can demand
  agreement and progress;
* the proposal round fires **after the last fault**, so consensus runs in
  the eventually-well-behaved suffix the paper's ◇-detectors guarantee —
  every generated scenario should end ``verdicts_ok`` true.

Times are expressed in multiples of the failure-detection ``period`` and
rounded to microseconds, keeping schedules readable and serialization
canonical.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from ..errors import ConfigurationError
from ..types import Time
from .events import Scenario, ScenarioEvent, _r

__all__ = ["generate_scenario"]


def generate_scenario(
    n: int,
    seed: int,
    period: Time = 0.05,
    duration: Optional[Time] = None,
    partitions: int = 2,
    stalls: int = 1,
    storms: int = 1,
    degrades: int = 1,
    skews: int = 0,
    crashes: int = 0,
    name: Optional[str] = None,
) -> Scenario:
    """Compile a seeded random fault schedule for an *n*-node cluster.

    The counts pick how many windows of each fault family the schedule
    contains (see module docstring for the shape guarantees).  *duration*
    defaults to "the schedule plus a stabilization-and-consensus tail";
    passing one that cuts the schedule short is a configuration error.
    """
    if n < 2:
        raise ConfigurationError(
            f"a fault scenario needs n >= 2, got {n} (there is no network "
            "to break with a single node)"
        )
    for label, count in (
        ("partitions", partitions), ("stalls", stalls), ("storms", storms),
        ("degrades", degrades), ("skews", skews), ("crashes", crashes),
    ):
        if count < 0:
            raise ConfigurationError(f"{label} must be >= 0, got {count}")
    if crashes > (n - 1) // 2:
        raise ConfigurationError(
            f"crashes={crashes} would kill a majority of n={n}; the "
            f"verdicts need a correct majority (max {(n - 1) // 2})"
        )
    rng = random.Random(seed)
    windows: List[str] = (
        ["partition"] * partitions
        + ["stall"] * stalls
        + ["storm"] * storms
        + ["degrade"] * degrades
        + ["skew"] * skews
    )
    rng.shuffle(windows)
    events: List[ScenarioEvent] = []

    def emit(time: Time, op: str, **args: Any) -> None:
        events.append(ScenarioEvent(time=_r(time), op=op, args=args))

    # Let the detectors stabilize once before the first fault.
    t = 6.0 * period
    for kind in windows:
        length = rng.uniform(4.0, 8.0) * period  # > the 2.4-period timeout
        if kind == "partition":
            pids = list(range(n))
            rng.shuffle(pids)
            cut = rng.randrange(1, n)
            group = sorted(pids[:cut])
            emit(t, "partition", groups=[group])
            emit(t + length, "heal")
        elif kind == "stall":
            victim = rng.randrange(n)
            emit(t, "stall", pid=victim)
            emit(t + length, "resume", pid=victim)
        elif kind == "storm":
            emit(t, "storm", loss=round(rng.uniform(0.4, 0.9), 3))
            emit(t + length, "calm")
        elif kind == "degrade":
            src = rng.randrange(n)
            dst = (src + rng.randrange(1, n)) % n
            args: Dict[str, Any] = {
                "src": src, "dst": dst,
                "loss": round(rng.uniform(0.3, 0.9), 3),
            }
            if rng.random() < 0.5:
                args["delay"] = _r(rng.uniform(0.5, 2.0) * period)
            emit(t, "degrade", **args)
            emit(t + length, "restore", src=src, dst=dst)
        else:  # skew — a one-shot clock step, no closing event
            sign = 1.0 if rng.random() < 0.5 else -1.0
            emit(
                t, "skew",
                pid=rng.randrange(n),
                offset=_r(sign * rng.uniform(2.0, 6.0) * period),
            )
        # Re-stabilization gap before the next window.
        t += length + rng.uniform(6.0, 10.0) * period
    for victim in rng.sample(range(n), crashes):
        emit(t, "crash", pid=victim)
        t += 2.0 * period
    return Scenario(
        name=name if name is not None else f"nemesis-n{n}-seed{seed}",
        n=n,
        seed=seed,
        period=period,
        duration=duration,
        propose_after=_r(t + 4.0 * period),
        events=events,
    ).resolved()
