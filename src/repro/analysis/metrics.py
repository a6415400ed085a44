"""Quantitative run metrics, measured from traces.

These are the measurement functions behind the benchmark harnesses:
messages per round, phases per round, rounds to (and after) stabilization,
and crash-detection latency.  Everything is computed from trace events the
protocols emit — nothing is hard-coded from the paper's analysis.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set

from ..obs.reader import TraceSource, as_trace
from ..types import ProcessId, Time
from .qos import fold_detector

__all__ = [
    "messages_per_round",
    "mean_messages_per_round",
    "phases_per_round",
    "max_phases_per_round",
    "round_at",
    "rounds_after",
    "detection_latency",
    "channel_message_count",
]


# --------------------------------------------------------------------------
# Message counting
# --------------------------------------------------------------------------

def channel_message_count(
    trace: TraceSource,
    channel: str,
    include_loopback: bool = False,
    after: Optional[Time] = None,
    before: Optional[Time] = None,
) -> int:
    """Number of ``send`` events on *channel* (network messages only, unless
    *include_loopback*)."""
    count = 0
    for ev in as_trace(trace).events:
        if ev.kind != "send" or ev.get("channel") != channel:
            continue
        if not include_loopback and ev.get("loopback"):
            continue
        if after is not None and ev.time < after:
            continue
        if before is not None and ev.time > before:
            continue
        count += 1
    return count


def messages_per_round(
    trace: TraceSource, channel: str = "consensus"
) -> Dict[int, int]:
    """Network messages sent on *channel*, grouped by protocol round.

    Only messages tagged with a round number count (protocol messages);
    Reliable Broadcast traffic lives on its own channel and is excluded, as
    in the paper's Section 5.4 accounting.
    """
    per_round: Dict[int, int] = {}
    for ev in as_trace(trace).events:
        if (
            ev.kind == "send"
            and ev.get("channel") == channel
            and not ev.get("loopback")
            and ev.get("round") is not None
        ):
            r = ev.get("round")
            per_round[r] = per_round.get(r, 0) + 1
    return per_round


def mean_messages_per_round(trace: TraceSource, channel: str = "consensus") -> float:
    """Average of :func:`messages_per_round` over completed rounds."""
    per_round = messages_per_round(trace, channel)
    if not per_round:
        return 0.0
    return sum(per_round.values()) / len(per_round)


# --------------------------------------------------------------------------
# Phases and rounds
# --------------------------------------------------------------------------

def phases_per_round(trace: TraceSource, algo: str) -> Dict[int, Set[int]]:
    """Distinct phase labels entered in each round of *algo* (union over
    all processes — coordinator-only phases count once)."""
    per_round: Dict[int, Set[int]] = {}
    for ev in as_trace(trace).events:
        if ev.kind == "phase" and ev.get("algo") == algo:
            per_round.setdefault(ev.get("round"), set()).add(ev.get("phase"))
    return per_round


def max_phases_per_round(trace: TraceSource, algo: str) -> int:
    """The protocol's phase count: the maximum number of distinct phases any
    round went through."""
    per_round = phases_per_round(trace, algo)
    return max((len(v) for v in per_round.values()), default=0)


def round_at(trace: TraceSource, pid: ProcessId, time: Time, algo: str) -> int:
    """The round process *pid* was in at *time* (0 if it had not started)."""
    current = 0
    for ev in as_trace(trace).events:
        if ev.time > time:
            break
        if ev.kind == "round" and ev.pid == pid and ev.get("algo") == algo:
            current = ev.get("round")
    return current


def rounds_after(
    trace: TraceSource, time: Time, algo: str
) -> Dict[ProcessId, Optional[int]]:
    """For every deciding process: how many rounds it needed *after* *time*.

    Defined as ``decision_round − round_at(time) + 1`` — i.e. 1 means the
    process decided in the round it was executing when *time* passed (the
    paper's "consensus is solved in only one round" in stability).
    ``None`` for processes that never decided.
    """
    out: Dict[ProcessId, Optional[int]] = {}
    trace = as_trace(trace)
    for ev in trace.events:
        if ev.kind == "decide" and ev.get("algo") == algo:
            decision_round = ev.get("round")
            if decision_round is None:
                out[ev.pid] = None
            else:
                start_round = max(1, round_at(trace, ev.pid, time, algo))
                out[ev.pid] = decision_round - start_round + 1
    return out


def rounds_after_system(trace: TraceSource, time: Time, algo: str) -> Optional[int]:
    """Rounds needed after *time*, measured from the *system frontier*.

    ``decision_round − frontier``, the frontier being the highest round any
    process entered strictly before *time* — i.e. how many fresh rounds
    (rounds started at or after *time*) were needed.  Rounds that were
    already in flight when the detector stabilized inevitably drain first;
    the paper's "one round after stabilization" claim is about fresh
    rounds, and this is the E6 measure (1 = decided in the first fresh
    round).  ``None`` if nobody decided.
    """
    decision_round: Optional[int] = None
    frontier = 0
    for ev in as_trace(trace).events:
        if ev.kind == "round" and ev.time < time and ev.get("algo") == algo:
            frontier = max(frontier, ev.get("round"))
        elif ev.kind == "decide" and ev.get("algo") == algo:
            r = ev.get("round")
            if r is not None:
                decision_round = r if decision_round is None else min(decision_round, r)
    if decision_round is None:
        return None
    return decision_round - frontier


# --------------------------------------------------------------------------
# Failure-detector metrics
# --------------------------------------------------------------------------

def detection_latency(
    trace: TraceSource,
    crashed_pid: ProcessId,
    crash_time: Time,
    correct: FrozenSet[ProcessId],
    channel: str = "fd",
) -> Optional[Time]:
    """Time from the crash until *every* correct process suspects the
    crashed process permanently (None if some never does): the QoS
    engine's T_D."""
    return fold_detector(trace, channel).detection(
        crashed_pid, crash_time, correct)
