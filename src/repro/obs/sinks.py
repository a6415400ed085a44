"""Trace sinks: where :class:`~repro.obs.events.TraceEvent` streams land.

A sink is anything implementing the tiny :class:`TraceSink` surface —
``record`` / ``record_event`` / ``wants`` / ``close``.  Both substrates
(the simulator's :class:`~repro.sim.world.World` and the live runtime's
:class:`~repro.net.host.NodeHost`) record through a sink and never care
which one:

* :class:`MemorySink` — the append-only in-memory log with the query
  helpers (:meth:`~MemorySink.select`, :meth:`~MemorySink.count`,
  :meth:`~MemorySink.last`) that :mod:`repro.analysis` consumes; the
  simulator's name for it, :data:`Trace`, is an alias (``repro.sim.Trace``).
* :class:`JsonlSink` — a line-buffered streaming writer: one JSON object
  per event, preceded by a header carrying the node id and wall/monotonic
  clock provenance, which the offline merger uses to rebase per-node
  clocks.  This is how live nodes in separate OS processes ship traces.
* :class:`TeeSink` — fan-out to several sinks, e.g. an analysis-facing
  :class:`MemorySink` plus a per-node :class:`JsonlSink`.

Recording can be restricted to a subset of kinds for very long runs; the
kind check is the first thing ``record`` does, so filtered-out kinds cost
one set lookup and nothing else.  Callers building expensive payloads
should guard with :meth:`~TraceSink.wants` and skip even the call.
"""

from __future__ import annotations

import json
import time as _time
from pathlib import Path
from typing import (
    Any, Callable, Dict, IO, Iterable, Iterator, List, Optional, Set, Union,
)

from ..errors import ConfigurationError
from ..types import ProcessId, Time
from .encode import _SCALARS, to_jsonable
from .events import TraceEvent

__all__ = ["TraceSink", "MemorySink", "Trace", "JsonlSink", "TeeSink"]

#: Trace-file format version written to (and accepted from) JSONL headers.
JSONL_VERSION = 1


def _compact_encoder() -> Callable[[Any], str]:
    """``json.dumps(obj, separators=(",", ":"))`` with its set-up done once.

    ``json.dumps`` with non-default separators builds a ``JSONEncoder`` per
    call, and ``JSONEncoder.encode`` builds a C encoder per call; this
    builds the C encoder once.  It keeps no circular-reference markers: a
    line is a fresh tree (payload containers are rebuilt by
    :func:`~repro.obs.encode.to_jsonable`), and an encode that raises part
    way would leave stale markers behind in a shared encoder.
    """
    encoder = json.JSONEncoder(separators=(",", ":"))
    make = json.encoder.c_make_encoder
    if make is None:  # an interpreter without the C accelerator
        return encoder.encode
    chunks = make(
        None, encoder.default, json.encoder.encode_basestring_ascii, None,
        encoder.key_separator, encoder.item_separator, False, False, True,
    )
    return lambda obj: "".join(chunks(obj, 0))


_encode = _compact_encoder()


class TraceSink:
    """Structural base class of every trace sink (see module docstring)."""

    def record(
        self, time: Time, kind: str, pid: Optional[ProcessId], /, **data: Any
    ) -> None:
        """Record one observation (subject to this sink's filters)."""
        raise NotImplementedError

    def record_event(self, event: TraceEvent) -> None:
        """Record a pre-built event (readers and mergers use this)."""
        self.record(event.time, event.kind, event.pid, **event.data)

    def wants(self, kind: str) -> bool:
        """``True`` if an event of *kind* would actually be kept.

        Callers building expensive payloads (e.g. copying a suspect set)
        can skip the work when the sink would discard the event anyway.
        """
        return True

    def close(self) -> None:
        """Flush and release resources.  Idempotent; memory sinks no-op."""


class MemorySink(TraceSink):
    """An append-only in-memory log of :class:`TraceEvent` records.

    Parameters:
        kinds: if given, only events whose kind is in this set are kept;
            everything else is silently discarded (cheap — one set lookup,
            checked before anything is allocated).
        enabled: master switch; a disabled sink records nothing.
    """

    def __init__(
        self,
        kinds: Optional[Iterable[str]] = None,
        enabled: bool = True,
    ) -> None:
        self._events: List[TraceEvent] = []
        self._kinds: Optional[Set[str]] = set(kinds) if kinds is not None else None
        self.enabled = enabled
        self._counters: Dict[str, int] = {}

    # ------------------------------------------------------------- recording
    def record(
        self, time: Time, kind: str, pid: Optional[ProcessId], /, **data: Any
    ) -> None:
        """Append one event (subject to the kind filter and master switch)."""
        kinds = self._kinds
        if kinds is not None and kind not in kinds:
            return  # fast path: filtered kinds never touch counters/events
        if not self.enabled:
            return
        self._events.append(TraceEvent(time=time, kind=kind, pid=pid, data=data))
        self._counters[kind] = self._counters.get(kind, 0) + 1

    def record_event(self, event: TraceEvent) -> None:
        """Append a pre-built event without re-packing its payload."""
        kinds = self._kinds
        if kinds is not None and event.kind not in kinds:
            return
        if not self.enabled:
            return
        self._events.append(event)
        self._counters[event.kind] = self._counters.get(event.kind, 0) + 1

    def extend(self, events: Iterable[TraceEvent]) -> None:
        """Append many pre-built events (filters apply to each)."""
        for event in events:
            self.record_event(event)

    def wants(self, kind: str) -> bool:
        return self.enabled and (self._kinds is None or kind in self._kinds)

    # --------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> List[TraceEvent]:
        """The raw event list (do not mutate)."""
        return self._events

    def count(self, kind: str) -> int:
        """Number of recorded events of *kind* (O(1))."""
        return self._counters.get(kind, 0)

    def select(
        self,
        kind: Optional[str] = None,
        pid: Optional[ProcessId] = None,
        where: Optional[Callable[[TraceEvent], bool]] = None,
        after: Optional[Time] = None,
        before: Optional[Time] = None,
    ) -> List[TraceEvent]:
        """Return events matching all the given filters, in time order."""
        out = []
        for ev in self._events:
            if kind is not None and ev.kind != kind:
                continue
            if pid is not None and ev.pid != pid:
                continue
            if after is not None and ev.time < after:
                continue
            if before is not None and ev.time > before:
                continue
            if where is not None and not where(ev):
                continue
            out.append(ev)
        return out

    def last(self, kind: str, pid: Optional[ProcessId] = None) -> Optional[TraceEvent]:
        """The most recent event of *kind* (for *pid*, if given), or ``None``."""
        for ev in reversed(self._events):
            if ev.kind == kind and (pid is None or ev.pid == pid):
                return ev
        return None

    @property
    def end_time(self) -> Time:
        """Timestamp of the last recorded event (0.0 if empty)."""
        return self._events[-1].time if self._events else 0.0


#: The simulator's name for the in-memory log (``repro.sim.Trace``).
Trace = MemorySink


class JsonlSink(TraceSink):
    """Streaming JSONL trace writer with per-node clock provenance.

    The first line of the file is a header object::

        {"trace": "repro.obs", "version": 1, "node": 2,
         "epoch_wall": 1722470000.123, "epoch_mono": 5123.456}

    ``epoch_wall`` / ``epoch_mono`` are the node's wall (Unix) and
    monotonic clocks **at trace time zero**; the offline merger rebases
    per-node event times onto a common epoch from these.  Each following
    line is one event: ``{"t": <time>, "k": <kind>, "p": <pid>,
    "d": {<key>: <tagged value>, ...}}`` with non-scalar payload values
    passed through :func:`~repro.obs.encode.to_jsonable`.  Every line is
    one call of a single module-level compact encoder, built once and
    reused across events; :meth:`record_event` writes from the event's
    payload without re-packing it.

    The file is opened line-buffered, so every event is flushed as soon as
    it is written — a ``kill -9``'d node loses at most the event being
    formatted, which is the whole point of postmortem trace shipping.

    Parameters:
        target: a path (opened line-buffered) or an open text file.
        node: this writer's node id, stamped into the header (``None`` for
            a combined multi-node stream, e.g. a whole in-process cluster).
        kinds: optional kind filter, same semantics as :class:`MemorySink`.
        epoch_wall / epoch_mono: override the captured clock provenance
            (tests use this to fabricate skewed nodes); default is the
            wall/monotonic clock at construction — call
            :meth:`rebase_epoch` when trace time zero is established later.
    """

    def __init__(
        self,
        target: Union[str, Path, IO[str]],
        node: Optional[int] = None,
        kinds: Optional[Iterable[str]] = None,
        epoch_wall: Optional[float] = None,
        epoch_mono: Optional[float] = None,
    ) -> None:
        if isinstance(target, (str, Path)):
            self._file: IO[str] = open(target, "w", buffering=1, encoding="utf-8")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        self.node = node
        self._kinds: Optional[Set[str]] = set(kinds) if kinds is not None else None
        self.epoch_wall = epoch_wall if epoch_wall is not None else _time.time()
        self.epoch_mono = epoch_mono if epoch_mono is not None else _time.monotonic()
        self._header_written = False
        self._closed = False
        self.events_written = 0

    # ------------------------------------------------------------ lifecycle
    def rebase_epoch(self) -> None:
        """Re-stamp the provenance clocks to *now* (= trace time zero).

        Must happen before the first event; afterwards the header is
        already on disk and the epoch is frozen.
        """
        if self._header_written:
            raise ConfigurationError(
                "cannot rebase a JSONL trace epoch after events were written"
            )
        self.epoch_wall = _time.time()
        self.epoch_mono = _time.monotonic()

    def _write_header(self) -> None:
        header = {
            "trace": "repro.obs",
            "version": JSONL_VERSION,
            "node": self.node,
            "epoch_wall": self.epoch_wall,
            "epoch_mono": self.epoch_mono,
        }
        self._file.write(_encode(header) + "\n")
        self._header_written = True

    # ------------------------------------------------------------ recording
    def record(
        self, time: Time, kind: str, pid: Optional[ProcessId], /, **data: Any
    ) -> None:
        kinds = self._kinds
        if kinds is None or kind in kinds:
            self._write(time, kind, pid, data)

    def record_event(self, event: TraceEvent) -> None:
        kinds = self._kinds
        if kinds is None or event.kind in kinds:
            self._write(event.time, event.kind, event.pid, event.data)

    def _write(
        self, time: Time, kind: str, pid: Optional[ProcessId],
        data: Dict[str, Any],
    ) -> None:
        if self._closed:
            return
        if not self._header_written:
            self._write_header()
        scalars = _SCALARS
        self._file.write(_encode({
            "t": time,
            "k": kind,
            "p": pid,
            "d": {
                key: value if type(value) in scalars else to_jsonable(value)
                for key, value in data.items()
            },
        }) + "\n")
        self.events_written += 1

    def wants(self, kind: str) -> bool:
        return not self._closed and (self._kinds is None or kind in self._kinds)

    def close(self) -> None:
        """Flush and close (header is written even for an empty trace)."""
        if self._closed:
            return
        if not self._header_written:
            self._write_header()
        self._closed = True
        self._file.flush()
        if self._owns_file:
            self._file.close()


class TeeSink(TraceSink):
    """Fan one event stream out to several sinks.

    Each child keeps its own filters; ``wants`` is the union, so a caller
    guard (``if trace.wants(kind): ...``) stays correct for any mix.
    """

    def __init__(self, *sinks: TraceSink) -> None:
        if not sinks:
            raise ConfigurationError("TeeSink needs at least one sink")
        self.sinks = tuple(sinks)

    def record(
        self, time: Time, kind: str, pid: Optional[ProcessId], /, **data: Any
    ) -> None:
        for sink in self.sinks:
            sink.record(time, kind, pid, **data)

    def record_event(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink.record_event(event)

    def wants(self, kind: str) -> bool:
        return any(sink.wants(kind) for sink in self.sinks)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
