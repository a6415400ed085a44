"""Offline merging of per-node JSONL traces into one time-ordered stream.

Live nodes in separate OS processes each write their own trace file with
their own clock (:class:`~repro.obs.sinks.JsonlSink` stamps trace time
zero's wall/monotonic readings into the header).  Postmortem analysis
needs *one* stream on *one* time base, so the merger:

1. **rebases by header epochs** — the earliest ``epoch_wall`` across the
   input files becomes the common epoch, and every file's events shift by
   ``epoch_wall − epoch₀``;
2. **estimates residual skew from handshake events** — wall clocks lie
   (NTP offsets, container drift), but causality does not: a ``deliver``
   can never precede the ``send`` it answers.  The merger FIFO-matches
   send→deliver pairs per ``(channel, src, dst, tag, round)`` stream
   across files and, for every receiving node whose deliveries would
   precede their sends, shifts that node forward by the largest observed
   violation.  A few passes settle mutual shifts; the applied corrections
   are reported per node as the max-skew estimate;
3. **merges** — events are stably ordered by (rebased time, file, record
   order), so concurrent events keep a deterministic order and each
   node's own sequence is never reordered.

The result is a plain :class:`~repro.obs.sinks.MemorySink`: everything in
:mod:`repro.analysis` — property checkers, QoS metrics, ASCII timelines —
runs on a merged postmortem trace exactly as on a live one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from ..errors import ConfigurationError
from .events import TraceEvent
from .reader import TraceFile, read_trace_file
from .sinks import MemorySink

__all__ = ["MergeReport", "merge_traces"]

#: Ignore sub-microsecond "skew": float noise, not clocks.
_SKEW_EPSILON = 1e-6
#: Mutual shifts settle fast; bound the fixpoint loop regardless.
_MAX_PASSES = 4


@dataclass
class MergeReport:
    """Outcome of one merge: the stream plus per-node rebasing diagnostics."""

    trace: MemorySink
    files: List[TraceFile] = field(default_factory=list)
    #: node label -> total time shift applied (epoch rebase + skew).
    offsets: Dict[str, float] = field(default_factory=dict)
    #: node label -> the causality-derived part of the shift (skew estimate).
    skew: Dict[str, float] = field(default_factory=dict)

    @property
    def max_skew(self) -> float:
        """Largest causality correction applied to any node."""
        return max(self.skew.values(), default=0.0)

    def summary(self) -> str:
        """One line per node: applied offset and skew estimate."""
        lines = []
        for label in sorted(self.offsets):
            lines.append(
                f"node {label}: offset {self.offsets[label]:+.6f}s "
                f"(skew estimate {self.skew[label]:+.6f}s)"
            )
        lines.append(
            f"merged {len(self.trace)} events from {len(self.files)} file(s)"
        )
        return "\n".join(lines)


def _node_label(trace_file: TraceFile, index: int) -> str:
    if trace_file.node is not None:
        return str(trace_file.node)
    if trace_file.path is not None:
        return trace_file.path.name
    return f"file{index}"


_HandshakeKey = Tuple[object, object, object, object, object]


def _causality_shifts(
    files: Sequence[TraceFile], offsets: Sequence[float]
) -> List[float]:
    """Per-file forward shift needed so no deliver precedes its send.

    Handshake streams are FIFO-matched per (channel, src, dst, tag, round);
    dropped messages make the match conservative (a deliver may pair with
    an *earlier* send), which can only under-estimate skew, never invent it.
    """
    sends: Dict[_HandshakeKey, List[float]] = {}
    delivers: Dict[_HandshakeKey, List[Tuple[float, int]]] = {}
    for index, trace_file in enumerate(files):
        offset = offsets[index]
        for ev in trace_file.events:
            kind = ev.kind
            if kind != "send" and kind != "deliver":
                continue
            get = ev.data.get
            if kind == "send" and get("loopback"):
                continue
            key = (get("channel"), get("src"), get("dst"), get("tag"),
                   get("round"))
            if kind == "send":
                sends.setdefault(key, []).append(ev.time + offset)
            else:
                delivers.setdefault(key, []).append((ev.time + offset, index))
    shifts = [0.0] * len(files)
    for key, deliver_list in delivers.items():
        send_times = sorted(sends.get(key, []))
        deliver_list.sort()
        for position, (deliver_time, index) in enumerate(deliver_list):
            if position >= len(send_times):
                break
            violation = send_times[position] - deliver_time
            if violation > shifts[index]:
                shifts[index] = violation
    return shifts


def merge_traces(
    sources: Iterable[Union[str, Path, TraceFile]],
    rebase: bool = True,
    estimate_skew: bool = True,
) -> MergeReport:
    """Merge per-node traces into one time-ordered stream (module docstring).

    *sources* are trace file paths or pre-read :class:`TraceFile` objects;
    at least one is required.  ``rebase=False`` keeps every file's own
    time base (only ordering is merged); ``estimate_skew=False`` skips the
    causality pass and trusts the headers.
    """
    files: List[TraceFile] = []
    for source in sources:
        if isinstance(source, TraceFile):
            files.append(source)
        else:
            files.append(read_trace_file(source))
    if not files:
        raise ConfigurationError("merge_traces needs at least one trace file")

    offsets = [0.0] * len(files)
    if rebase:
        epochs = [trace_file.epoch_wall for trace_file in files]
        base = min(epochs)
        offsets = [epoch - base for epoch in epochs]

    skew = [0.0] * len(files)
    if rebase and estimate_skew and len(files) > 1:
        for _ in range(_MAX_PASSES):
            shifts = _causality_shifts(files, offsets)
            if max(shifts) <= _SKEW_EPSILON:
                break
            for index, shift in enumerate(shifts):
                offsets[index] += shift
                skew[index] += shift

    decorated: List[Tuple[float, int, int, TraceEvent]] = []
    for index, trace_file in enumerate(files):
        offset = offsets[index]
        for seq, ev in enumerate(trace_file.events):
            if offset:
                ev = TraceEvent(ev.time + offset, ev.kind, ev.pid, ev.data)
            decorated.append((ev.time, index, seq, ev))
    decorated.sort()  # (time, file, seq) is unique: events never compared

    merged = MemorySink()
    merged.extend(item[3] for item in decorated)
    report = MergeReport(trace=merged, files=files)
    for index, trace_file in enumerate(files):
        label = _node_label(trace_file, index)
        report.offsets[label] = offsets[index]
        report.skew[label] = skew[index]
    return report
