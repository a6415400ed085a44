"""Chen-style QoS analysis of failure-detector runs, from any trace.

The paper's efficiency story is quantitative: the Fig. 2 ◇C→◇P
transformation costs 2(n−1) periodic messages (Section 4), the leader-based
Ω costs n−1 (Section 6), the ring ◇P costs 2n with Θ(n) detection latency
(Section 5).  This module turns a recorded run — simulated
:class:`~repro.sim.world.World`, in-process :class:`~repro.cluster.local.
LocalCluster`, or merged multi-process :class:`~repro.proc.launcher.
ProcessCluster` trace, they all flow through :func:`repro.obs.as_trace` —
into the standard quality-of-service numbers of Chen, Toueg & Aguilera
("On the quality of service of failure detectors"):

* **detection time** ``T_D`` — crash until every correct process suspects
  the victim permanently;
* **mistakes** — wrongful suspicions of processes that were alive, with
  their correction times: count, rate ``λ_M`` (mistakes per time unit) and
  mean duration ``T_M``;
* **leader stabilization** — the earliest time from which every correct
  process's ``trusted`` output permanently names one correct leader (the
  measured "eventually agree on a correct leader" instant, cf. Section 6);
* **message cost** — per-channel network messages per period over the
  post-stabilization window, checked against the paper's 2(n−1) bound for
  the transformation channel (Section 4); a replicated log's per-slot
  channels count as one row per family (``rsm.c*``, ``rsm.c*.rb``).

There is one implementation: :class:`IncrementalQoS`, an event-at-a-time
state machine.  :class:`~repro.obs.live.LiveCollector` feeds it while a
run is still going (``repro watch``); :func:`qos_report` is the offline
front end and nothing but a fold of the same machine over a recorded
trace (``repro trace qos``, ``repro scenario run``,
``benchmarks/bench_n2_live_qos.py``) — so a scoring rule is written once
and a live report equals the postmortem one over the same events.  The
class verdicts of Definition 1
(:func:`~repro.analysis.fd_properties.check_fd_class`) and
:func:`~repro.analysis.metrics.detection_latency` are reads of the same
machine too, fed by :func:`fold_detector`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import (
    Any, Collection, Dict, FrozenSet, Iterable, List, Optional, Sequence,
    Set, Tuple,
)

from ..obs.events import TraceEvent
from ..obs.metrics import channel_family
from ..obs.reader import TraceSource, as_trace
from ..types import ProcessId, Time

__all__ = [
    "IncrementalQoS",
    "Mistake",
    "QoSReport",
    "fold_detector",
    "qos_report",
    "transformation_bound",
]

#: Fractional slack on the 2(n−1) message-cost bound: one extra in-flight
#: period's worth of messages may straddle the measurement window edges.
BOUND_TOLERANCE = 0.25


def transformation_bound(n: int) -> int:
    """The paper's periodic message cost of the ◇C→◇P transformation,
    2(n−1): each period the leader sends its suspect list to the other
    n−1 processes and each of them answers *alive* (Section 4)."""
    return 2 * (n - 1)


@dataclass(frozen=True)
class Mistake:
    """One wrongful suspicion: *observer* suspected *suspect* while it was
    alive.  ``end`` is the correction time (``None`` = never corrected
    within the run — an unresolved mistake)."""

    observer: ProcessId
    suspect: ProcessId
    start: Time
    end: Optional[Time]

    @property
    def duration(self) -> Optional[Time]:
        """``T_M`` of this mistake (``None`` while unresolved)."""
        return None if self.end is None else self.end - self.start


@dataclass
class QoSReport:
    """Everything :meth:`IncrementalQoS.report` measured about one run."""

    n: int
    channel: str
    end_time: Time
    correct: FrozenSet[ProcessId]
    crashes: Dict[ProcessId, Time]
    #: victim -> T_D (``None`` = some correct process never converged).
    detection: Dict[ProcessId, Optional[Time]]
    mistakes: List[Mistake]
    #: λ_M: mistakes per time unit over the whole run (``None`` if empty run).
    mistake_rate: Optional[float]
    #: mean T_M over corrected mistakes (``None`` if none were corrected).
    mean_mistake_duration: Optional[Time]
    #: earliest time from which all correct trusted outputs equal
    #: ``stable_leader`` for the rest of the run.
    leader_stabilized_at: Optional[Time]
    stable_leader: Optional[ProcessId]
    # ----- message cost (populated only when a period was supplied) -----
    period: Optional[Time] = None
    cost_window: Optional[Tuple[Time, Time]] = None
    #: channel -> network messages per period over ``cost_window``.
    message_cost: Dict[str, float] = field(default_factory=dict)
    bound_channel: Optional[str] = None
    bound_value: Optional[float] = None
    #: ``None`` = not measurable (no period / window too short / channel
    #: silent); otherwise whether the bound (with tolerance) held.
    bound_ok: Optional[bool] = None

    @property
    def unresolved_mistakes(self) -> int:
        return sum(1 for m in self.mistakes if m.end is None)

    @property
    def max_detection(self) -> Optional[Time]:
        """Worst T_D across victims (``None`` when unmeasurable)."""
        values = list(self.detection.values())
        if not values or any(v is None for v in values):
            return None
        return max(values)

    def format(self) -> str:
        """Human-readable multi-line rendering (what ``repro trace qos``
        prints)."""
        lines = [
            f"QoS report — fd channel {self.channel!r}, n={self.n}, "
            f"horizon t={self.end_time:.3f}"
        ]
        if self.crashes:
            crashed = ", ".join(
                f"p{pid} @ t={at:.3f}" for pid, at in sorted(self.crashes.items())
            )
            lines.append(f"  crashes              : {crashed}")
            for pid in sorted(self.detection):
                latency = self.detection[pid]
                shown = "never (some observer not converged)" \
                    if latency is None else f"{latency:.3f}"
                lines.append(f"  detection time T_D   : p{pid}: {shown}")
        else:
            lines.append("  crashes              : none")
        rate = (
            "n/a" if self.mistake_rate is None
            else f"{self.mistake_rate:.6f}/time-unit"
        )
        lines.append(
            f"  mistakes             : {len(self.mistakes)} "
            f"({self.unresolved_mistakes} unresolved), rate λ_M = {rate}"
        )
        if self.mean_mistake_duration is not None:
            lines.append(
                f"  mistake duration T_M : mean {self.mean_mistake_duration:.3f}"
            )
        for mistake in self.mistakes:
            until = "∞" if mistake.end is None else f"{mistake.end:.3f}"
            lines.append(
                f"    p{mistake.observer} wrongly suspected p{mistake.suspect} "
                f"during [{mistake.start:.3f}, {until})"
            )
        if self.leader_stabilized_at is not None:
            lines.append(
                f"  leader stabilization : t={self.leader_stabilized_at:.3f} "
                f"(leader p{self.stable_leader})"
            )
        else:
            lines.append(
                "  leader stabilization : not reached (no common correct "
                "leader suffix)"
            )
        if self.period is not None and self.cost_window is not None:
            w0, w1 = self.cost_window
            lines.append(
                f"  message cost         : window [{w0:.3f}, {w1:.3f}], "
                f"period {self.period}"
            )
            for channel in sorted(self.message_cost):
                cost = self.message_cost[channel]
                suffix = ""
                if channel == self.bound_channel and self.bound_value is not None:
                    verdict = (
                        "?" if self.bound_ok is None
                        else "OK" if self.bound_ok else "VIOLATED"
                    )
                    suffix = (
                        f"   [2(n-1) bound = {self.bound_value:.0f}: {verdict}]"
                    )
                lines.append(
                    f"    {channel:<12s}: {cost:6.2f} msgs/period{suffix}"
                )
        elif self.period is None:
            lines.append(
                "  message cost         : skipped (pass --period to enable)"
            )
        return "\n".join(lines)


class IncrementalQoS:
    """The QoS state machine: one event at a time in, a report at any instant.

    Feed events with :meth:`observe_event` — per-node order must be kept,
    cross-node interleaving is free (merged live streams arrive that way);
    call :meth:`report` at any instant for a full :class:`QoSReport` over
    everything seen so far, or :meth:`snapshot` for the cheap dict the
    watch UI renders.  State is O(n²): per-observer suspicion sets, open
    mistakes, leader runs, per-channel send times.

    Whole-run knowledge is applied at report time, not at ingestion: a
    suspicion interval is opened *tentatively* (the crash event that makes
    it correct may arrive later in the stream than the ``fd`` event that
    opened it) and screened against the crashes known when the report is
    taken — intervals whose suspect had already crashed are discarded,
    intervals whose suspect crashed mid-mistake end at the crash.

    The *stretch reads* (:meth:`suspecting_all_since`,
    :meth:`suspecting_none_since`, :meth:`consistent_since`,
    :meth:`stable_leader`) answer "since when has observer p's output
    satisfied this predicate at every record" — the building block of
    every "eventually permanently" property.  They assume each observer's
    records arrive in time order, as every trace source delivers them.
    """

    def __init__(self, channel: str = "fd") -> None:
        self.channel = channel
        self._end_time: Time = 0.0
        self._event_count = 0
        self._kind_counts: Dict[str, int] = {}
        self._pids: Set[ProcessId] = set()
        self._crashes: Dict[ProcessId, Time] = {}
        #: channel family -> times of non-loopback sends (sorted lazily at
        #: report).
        self._sends: Dict[Any, List[Time]] = {}
        # Per-observer detector state for `channel`:
        #: observer -> time of its first output record.
        self._first_output: Dict[ProcessId, Time] = {}
        self._previous: Dict[ProcessId, FrozenSet[ProcessId]] = {}
        #: observer -> {suspect: open time} — tentatively open mistakes.
        self._open_since: Dict[ProcessId, Dict[ProcessId, Time]] = {}
        #: observer -> [(suspect, start, retraction time)] — closed ones,
        #: in record order.
        self._closed: Dict[ProcessId, List[Tuple[ProcessId, Time, Time]]] = {}
        #: observer -> {suspect: start of its current suspicion stretch}.
        self._suspect_since: Dict[ProcessId, Dict[ProcessId, Time]] = {}
        #: observer -> start of its current trusted ∉ suspected stretch
        #: (``None`` while its latest output trusts a suspect).
        self._consistent_since: Dict[ProcessId, Optional[Time]] = {}
        #: observer -> last trusted output / start of that constant run.
        self._trusted: Dict[ProcessId, Optional[ProcessId]] = {}
        self._run_start: Dict[ProcessId, Time] = {}
        self._span_replies = 0

    # ------------------------------------------------------------ ingestion
    def observe_event(self, event: TraceEvent) -> None:
        """Fold one event into the running state."""
        t = event.time
        if t > self._end_time:
            self._end_time = t
        self._event_count += 1
        kind = event.kind
        self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1
        if event.pid is not None:
            self._pids.add(event.pid)
        get = event.data.get
        if kind in ("send", "deliver"):
            src = get("src")
            dst = get("dst")
            if src is not None:
                self._pids.add(src)
            if dst is not None:
                self._pids.add(dst)
            if kind == "send" and not get("loopback"):
                channel = channel_family(get("channel") or "")
                self._sends.setdefault(channel, []).append(t)
        elif kind == "crash":
            self._crashes[event.pid] = t
        elif kind == "fd" and get("channel") == self.channel:
            self._observe_fd(event.pid, t, get("suspected"), get("trusted"))
        elif kind == "span.reply":
            self._span_replies += 1

    def observe(
        self, time: Time, kind: str, pid: Optional[ProcessId], **data: Any
    ) -> None:
        """Convenience wrapper building the :class:`TraceEvent` inline."""
        self.observe_event(TraceEvent(time=time, kind=kind, pid=pid, data=data))

    def _observe_fd(
        self,
        observer: Optional[ProcessId],
        t: Time,
        suspected: Optional[Iterable[ProcessId]],
        trusted: Optional[ProcessId],
    ) -> None:
        # Leader-run tracking (suspected-less records still carry trusted).
        if observer not in self._trusted:
            self._first_output[observer] = t
            self._run_start[observer] = t
        elif self._trusted[observer] != trusted:
            self._run_start[observer] = t
        self._trusted[observer] = trusted
        if suspected is None:
            return
        suspected = frozenset(suspected)
        previous = self._previous.get(observer, frozenset())
        open_since = self._open_since.setdefault(observer, {})
        stretch = self._suspect_since.setdefault(observer, {})
        for q in suspected - previous:
            open_since[q] = t  # tentative; crash screening at report time
            stretch[q] = t
        for q in previous - suspected:
            start = open_since.pop(q, None)
            if start is not None:
                self._closed.setdefault(observer, []).append((q, start, t))
            stretch.pop(q, None)
        self._previous[observer] = suspected
        if trusted is not None and trusted in suspected:
            self._consistent_since[observer] = None
        elif self._consistent_since.get(observer) is None:
            self._consistent_since[observer] = t

    # ------------------------------------------------------------ reporting
    @property
    def end_time(self) -> Time:
        """Timestamp of the latest event seen."""
        return self._end_time

    @property
    def event_count(self) -> int:
        return self._event_count

    @property
    def crashes(self) -> Dict[ProcessId, Time]:
        """``pid -> crash time`` for every crash seen (do not mutate)."""
        return self._crashes

    # --------------------------------------------------------- stretch reads
    def suspecting_all_since(
        self, pid: ProcessId, victims: Iterable[ProcessId]
    ) -> Optional[Time]:
        """Start of *pid*'s current stretch suspecting every process of
        (non-empty) *victims*; ``None`` if its latest output misses one."""
        stretch = self._suspect_since.get(pid, {})
        starts = [stretch.get(victim) for victim in victims]
        return None if None in starts else max(starts)

    def suspecting_none_since(
        self, pid: ProcessId, innocents: Collection[ProcessId]
    ) -> Optional[Time]:
        """Start of *pid*'s current stretch suspecting no process of
        *innocents*: its latest retraction of one, else its first output;
        ``None`` if its latest output suspects one (or it has none)."""
        if pid not in self._first_output or not self._previous.get(
            pid, frozenset()
        ).isdisjoint(innocents):
            return None
        for suspect, _start, retracted in reversed(self._closed.get(pid, ())):
            if suspect in innocents:
                return retracted
        return self._first_output[pid]

    def consistent_since(self, pid: ProcessId) -> Optional[Time]:
        """Start of *pid*'s current trusted ∉ suspected stretch; ``None``
        if its latest output trusts a suspect (or it has none)."""
        return self._consistent_since.get(pid)

    def report(
        self,
        correct: Optional[FrozenSet[ProcessId]] = None,
        period: Optional[Time] = None,
        cost_channels: Optional[Sequence[str]] = None,
        bound_channel: str = "fdp",
        n: Optional[int] = None,
        bound_tolerance: float = BOUND_TOLERANCE,
    ) -> QoSReport:
        """A :class:`QoSReport` over everything seen so far (parameters as
        documented on :func:`qos_report`)."""
        end_time = self._end_time
        if n is None:
            n = max(self._pids) + 1 if self._pids else 0
        crashes = dict(sorted(self._crashes.items()))
        if correct is None:
            correct = frozenset(range(n)) - frozenset(crashes)
        correct = frozenset(correct)

        detection = {
            victim: self.detection(victim, at, correct)
            for victim, at in crashes.items()
        }
        mistakes = self._mistakes(correct, crashes)
        mistake_rate = len(mistakes) / end_time if end_time > 0 else None
        durations = [m.duration for m in mistakes if m.duration is not None]
        mean_duration = sum(durations) / len(durations) if durations else None
        stabilized_at, leader = self.stable_leader(correct)

        report = QoSReport(
            n=n, channel=self.channel, end_time=end_time, correct=correct,
            crashes=crashes, detection=detection,
            mistakes=mistakes, mistake_rate=mistake_rate,
            mean_mistake_duration=mean_duration,
            leader_stabilized_at=stabilized_at, stable_leader=leader,
        )
        if period is None or period <= 0:
            return report

        # ----- post-stabilization message cost -----
        report.period = period
        settle_points = [stabilized_at if stabilized_at is not None else 0.0]
        for victim, at in crashes.items():
            latency = detection.get(victim)
            if latency is not None:
                settle_points.append(at + latency)
        window_start = max(settle_points) + period
        if end_time - window_start < 2 * period:
            # Too little stable suffix to measure a rate meaningfully.
            return report
        report.cost_window = (window_start, end_time)
        counts = self._channel_counts(window_start, end_time)
        if cost_channels is None:
            cost_channels = sorted(
                ch for ch, count in counts.items() if ch and count > 0
            )
        spans = (end_time - window_start) / period
        report.message_cost = {
            ch: (counts.get(ch, 0) / spans if spans > 0 else 0.0)
            for ch in cost_channels
        }
        report.bound_channel = bound_channel
        report.bound_value = float(transformation_bound(n))
        if bound_channel in report.message_cost:
            cost = report.message_cost[bound_channel]
            if cost > 0:
                report.bound_ok = (
                    cost <= report.bound_value * (1.0 + bound_tolerance)
                )
        return report

    def detection(
        self,
        victim: ProcessId,
        crash_time: Time,
        correct: Iterable[ProcessId],
    ) -> Optional[Time]:
        """T_D: crash until the last correct observer's final (permanent)
        suspicion stretch of *victim* began; ``None`` if one never did."""
        worst = crash_time
        for pid in correct:
            since = self.suspecting_all_since(pid, (victim,))
            if since is None:
                return None
            if since > worst:
                worst = since
        return worst - crash_time

    def _mistakes(
        self,
        correct: FrozenSet[ProcessId],
        crashes: Dict[ProcessId, Time],
    ) -> List[Mistake]:
        """Wrongful-suspicion intervals at correct observers.

        A mistake opens when an observer adds a then-alive process to its
        suspected set and closes when the suspicion is retracted — or at
        the suspect's crash if that comes first (from then on the
        suspicion is correct)."""
        mistakes: List[Mistake] = []
        # Every observer with suspicion history has an _open_since entry.
        for observer in sorted(correct & self._open_since.keys()):
            still_open = self._open_since[observer]
            intervals: List[Tuple[ProcessId, Time, Optional[Time]]] = [
                *self._closed.get(observer, []),
                *((q, start, None) for q, start in still_open.items()),
            ]
            for q, start, end in intervals:
                crash_at = crashes.get(q)
                if crash_at is not None:
                    if crash_at <= start:
                        continue  # the suspicion was already correct at open
                    if end is None or crash_at < end:
                        end = crash_at
                mistakes.append(Mistake(observer, q, start, end))
        mistakes.sort(key=lambda m: (m.start, m.observer, m.suspect))
        return mistakes

    def stable_leader(
        self, correct: FrozenSet[ProcessId]
    ) -> Tuple[Optional[Time], Optional[ProcessId]]:
        """Earliest time from which all correct trusted outputs permanently
        agree on one correct leader, and that leader; ``(None, None)`` if
        they never do."""
        if not correct or not all(pid in self._trusted for pid in correct):
            return None, None
        finals = {self._trusted[pid] for pid in correct}
        if len(finals) != 1:
            return None, None
        leader = next(iter(finals))
        if leader is None or leader not in correct:
            return None, None
        # Every observer's final trusted equals `leader`, so its trailing
        # clean stretch is exactly its trailing constant-trusted run.
        return max(0.0, *(self._run_start[pid] for pid in correct)), leader

    def _channel_counts(self, after: Time, before: Time) -> Dict[Any, int]:
        counts: Dict[Any, int] = {}
        for ch, times in self._sends.items():
            times.sort()  # merged node streams may interleave out of order
            counts[ch] = bisect_right(times, before) - bisect_left(times, after)
        return counts

    # -------------------------------------------------------------- watch UI
    def snapshot(self) -> Dict[str, Any]:
        """Cheap running-state dict for the ``repro watch`` table."""
        return {
            "n": max(self._pids) + 1 if self._pids else 0,
            "end_time": self._end_time,
            "events": self._event_count,
            "crashes": dict(sorted(self._crashes.items())),
            "trusted": {
                pid: self._trusted[pid] for pid in sorted(self._trusted)
            },
            "suspected": {
                pid: sorted(self._previous[pid])
                for pid in sorted(self._previous)
            },
            "open_mistakes": sum(len(v) for v in self._open_since.values()),
            "closed_mistakes": sum(len(v) for v in self._closed.values()),
            "span_replies": self._span_replies,
            "sends": {
                ch: len(self._sends[ch])
                for ch in sorted(k for k in self._sends if k)
            },
            "kinds": dict(sorted(self._kind_counts.items())),
        }


def qos_report(
    trace: TraceSource,
    correct: Optional[FrozenSet[ProcessId]] = None,
    channel: str = "fd",
    period: Optional[Time] = None,
    cost_channels: Optional[Sequence[str]] = None,
    bound_channel: str = "fdp",
    n: Optional[int] = None,
    bound_tolerance: float = BOUND_TOLERANCE,
) -> QoSReport:
    """Measure the QoS of one recorded run: fold every event of *trace*
    into an :class:`IncrementalQoS` and take its report.

    Parameters:
        trace: anything :func:`repro.obs.as_trace` accepts — a live
            ``MemorySink``, an event list, a ``.jsonl`` path, or a merged
            postmortem stream.
        correct: the correct processes; inferred from the recorded
            ``crash`` events when omitted.
        channel: which detector's ``fd`` events to analyze.
        period: the stack's heartbeat period.  When given, per-channel
            message cost over the post-stabilization window is computed
            and the 2(n−1) bound checked on *bound_channel*.
        cost_channels: channels to cost (default: every channel with
            network sends in the window).
        n: system size; inferred from the highest pid seen when omitted.
    """
    engine = IncrementalQoS(channel=channel)
    for event in as_trace(trace).events:
        engine.observe_event(event)
    return engine.report(
        correct=correct, period=period, cost_channels=cost_channels,
        bound_channel=bound_channel, n=n, bound_tolerance=bound_tolerance,
    )


def fold_detector(trace: TraceSource, channel: str = "fd") -> IncrementalQoS:
    """An :class:`IncrementalQoS` fed *trace*'s ``fd`` and ``crash``
    events only — all its stretch reads, :meth:`~IncrementalQoS.detection`
    and :meth:`~IncrementalQoS.stable_leader` need."""
    engine = IncrementalQoS(channel=channel)
    for event in as_trace(trace).events:
        if event.kind == "fd" or event.kind == "crash":
            engine.observe_event(event)
    return engine
