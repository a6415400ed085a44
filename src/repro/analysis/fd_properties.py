"""Trace-based checkers for failure-detector properties.

"Eventually permanently P" cannot be decided on a finite run, so the
checkers compute the **earliest time from which P holds for the rest of the
run** (the measured stabilization time) and declare the property satisfied
when that time leaves a non-trivial stable suffix — by default the final
``margin`` fraction of the run must be clean.  Runs used by tests and
benchmarks are long enough that real stabilization (GST, oracle scripts,
adaptive timeouts) happens well before the margin.

All checkers quantify over *correct* processes only, exactly like the
definitions in Section 1.1 of the paper.

There is no second reader of detector output here: :func:`check_fd_class`
folds the trace's ``fd`` and ``crash`` events into the one
:class:`~repro.analysis.qos.IncrementalQoS` engine and reads every
property off its per-observer stretch starts — a property's stabilization
time is the latest, over the correct processes, of the start of their
current clean stretch.  It takes any :data:`~repro.obs.reader.TraceSource`
— a live in-memory trace, a ``.jsonl`` file path, or a merged postmortem
stream — so live and shipped traces are checked by the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple,
)

from ..errors import PropertyViolation
from ..fd.classes import FDClass
from ..obs.reader import TraceSource, as_trace
from ..types import ProcessId, Time
from .qos import fold_detector

__all__ = [
    "FDRecord",
    "PropertyCheck",
    "build_histories",
    "check_fd_class",
    "require_fd_class",
]

#: One sampled detector output: (time, suspected set, trusted process).
FDRecord = Tuple[Time, FrozenSet[ProcessId], Optional[ProcessId]]


@dataclass(frozen=True)
class PropertyCheck:
    """Result of checking one eventual property on one run."""

    name: str
    ok: bool
    stabilized_at: Optional[Time]
    end_time: Time
    witness: Optional[ProcessId] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def build_histories(
    trace: TraceSource, channel: str = "fd"
) -> Dict[ProcessId, List[FDRecord]]:
    """Per-process detector output histories for one detector *channel*."""
    histories: Dict[ProcessId, List[FDRecord]] = {}
    for ev in as_trace(trace).events:
        if ev.kind == "fd" and ev.get("channel") == channel:
            histories.setdefault(ev.pid, []).append(
                (ev.time, ev.get("suspected"), ev.get("trusted"))
            )
    return histories


def _settled(
    read: Callable[..., Optional[Time]], pids: Iterable[ProcessId], *args: Any
) -> Optional[Time]:
    """When ``read(pid, *args)`` — the start of a clean stretch — has held
    at every process of *pids*: the latest start (0.0 for none); ``None``
    if one process is not clean now."""
    worst = 0.0
    for pid in pids:
        since = read(pid, *args)
        if since is None:
            return None
        if since > worst:
            worst = since
    return worst


def _earliest(
    candidates: Iterable[Tuple[Optional[Time], ProcessId]]
) -> Tuple[Optional[Time], Optional[ProcessId]]:
    """The earliest settled ``(time, witness)``; ties go to the first."""
    best: Tuple[Optional[Time], Optional[ProcessId]] = (None, None)
    for since, witness in candidates:
        if since is not None and (best[0] is None or since < best[0]):
            best = (since, witness)
    return best


def check_fd_class(
    trace: TraceSource,
    fd_class: FDClass,
    correct: FrozenSet[ProcessId],
    channel: str = "fd",
    margin: float = 0.1,
    end_time: Optional[Time] = None,
) -> Dict[str, PropertyCheck]:
    """Check every property required by *fd_class* on one run's trace.

    Returns a mapping ``property name -> PropertyCheck``; the run satisfies
    the class iff every entry is ok.  A property holds when it stabilized
    by ``end × (1 − margin)``; *end* is the trace's last timestamp unless
    *end_time* is given.  Per property, a process is clean since:

    * strong completeness — it suspects every crashed process (and the
      last crash happened); weak — the same at one witness;
    * eventual strong accuracy — it suspects no correct process; weak —
      it does not suspect one witness;
    * Ω — it trusts the one correct leader every correct process trusts;
    * trusted ∉ suspected — its trusted process is not in its suspects.
    """
    trace = as_trace(trace)
    engine = fold_detector(trace, channel)
    end = end_time if end_time is not None else trace.end_time
    crashes = engine.crashes
    results: Dict[str, PropertyCheck] = {}

    def check(
        name: str, since: Optional[Time], witness: Optional[ProcessId] = None
    ) -> PropertyCheck:
        ok = since is not None and since <= end * (1.0 - margin)
        return PropertyCheck(name, ok, since, end, witness)

    def completed(pids: Iterable[ProcessId]) -> Optional[Time]:
        since = _settled(engine.suspecting_all_since, pids, crashes)
        return None if since is None else max(since, *crashes.values())

    if fd_class.completeness in ("strong", "weak"):
        name = f"{fd_class.completeness}-completeness"
        if not crashes:
            results["completeness"] = PropertyCheck(
                name, True, 0.0, end, detail="vacuous: no crashes")
        elif fd_class.completeness == "strong":
            results["completeness"] = check(name, completed(correct))
        else:
            results["completeness"] = check(name, *_earliest(
                (completed((pid,)), pid) for pid in correct))

    if fd_class.accuracy in ("eventual-strong", "strong"):
        results["accuracy"] = check("eventual-strong-accuracy", _settled(
            engine.suspecting_none_since, correct, correct))
    elif fd_class.accuracy == "eventual-weak":
        results["accuracy"] = check("eventual-weak-accuracy", *_earliest(
            (_settled(engine.suspecting_none_since, correct, (q,)), q)
            for q in correct
        ))

    if fd_class.leader:
        results["omega"] = check("omega", *engine.stable_leader(correct))

    if fd_class.trusted_not_suspected:
        results["trusted-not-suspected"] = check(
            "trusted-not-suspected",
            _settled(engine.consistent_since, correct),
        )
    return results


def check_fd_class_on_world(
    world,
    fd_class: FDClass,
    channel: str = "fd",
    margin: float = 0.1,
) -> Dict[str, PropertyCheck]:
    """:func:`check_fd_class` against a :class:`~repro.sim.world.World`.

    Uses the world's clock as the run end (a stabilized detector stops
    emitting trace events, so the trace's last timestamp can badly
    underestimate how long the stable suffix actually was) and the world's
    current correct set.
    """
    return check_fd_class(
        world.trace,
        fd_class,
        world.correct_pids,
        channel=channel,
        margin=margin,
        end_time=world.now,
    )


def require_fd_class(
    trace: TraceSource,
    fd_class: FDClass,
    correct: FrozenSet[ProcessId],
    channel: str = "fd",
    margin: float = 0.1,
) -> Dict[str, PropertyCheck]:
    """Like :func:`check_fd_class` but raises :class:`PropertyViolation` on
    the first failed property."""
    results = check_fd_class(trace, fd_class, correct, channel, margin)
    for name, result in results.items():
        if not result.ok:
            raise PropertyViolation(
                f"class {fd_class.symbol} violates {name}: {result}"
            )
    return results
