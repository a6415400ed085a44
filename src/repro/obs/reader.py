"""Reading JSONL trace files back into event streams.

The inverse of :class:`~repro.obs.sinks.JsonlSink`: parse the provenance
header, decode each line back into a :class:`~repro.obs.events.TraceEvent`
(tagged payload values — frozensets, tuples, int-keyed dicts, ``NULL`` —
come back as the exact Python values that were recorded), and expose the
result either streamed (:func:`iter_trace_events`) or loaded
(:func:`read_trace_file`).

:func:`as_trace` is the universal coercion the analysis layer runs on its
input: a live :class:`~repro.obs.sinks.MemorySink`, a plain list of
events, a :class:`TraceFile`, or a path to a ``.jsonl`` file all become
the queryable in-memory form, so every checker and metric works on live
and postmortem traces alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..errors import ConfigurationError
from .encode import _SCALARS, EncodeError, from_jsonable
from .events import TraceEvent
from .sinks import JSONL_VERSION, MemorySink, TraceSink

__all__ = ["TraceFile", "read_trace_file", "iter_trace_events", "as_trace"]

_decoder = json.JSONDecoder()
_decode, _scan = _decoder.decode, _decoder.scan_once


def _load(line: str) -> Any:
    """``json.loads(line)`` for one trace line.

    A value that starts the line and ends at its newline is taken straight
    from the scanner; any other line goes through the full decode, which
    accepts or rejects it exactly as ``json.loads`` does.
    """
    try:
        obj, end = _scan(line, 0)
    except StopIteration:
        return _decode(line)
    if line[end:] in ("", "\n"):
        return obj
    return _decode(line)


@dataclass
class TraceFile:
    """One parsed JSONL trace: provenance header plus its events."""

    events: List[TraceEvent]
    node: Optional[int] = None
    epoch_wall: float = 0.0
    epoch_mono: float = 0.0
    version: int = JSONL_VERSION
    path: Optional[Path] = None
    header: Dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)


def _parse_header(line: str, where: str) -> Dict[str, Any]:
    try:
        header = json.loads(line)
    except ValueError as exc:
        raise ConfigurationError(f"{where}: header is not JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("trace") != "repro.obs":
        raise ConfigurationError(
            f"{where}: not a repro.obs trace file (first line must be the "
            "provenance header)"
        )
    version = header.get("version")
    if version != JSONL_VERSION:
        raise ConfigurationError(
            f"{where}: unsupported trace version {version!r} "
            f"(this reader speaks version {JSONL_VERSION})"
        )
    return header


def _parse_event(line: str, where: str, lineno: int) -> TraceEvent:
    """One line, one decode: a line is never parsed together with another."""
    try:
        obj = _load(line)
        scalars = _SCALARS
        data = {
            key: value if type(value) in scalars else from_jsonable(value)
            for key, value in obj.get("d", {}).items()
        }
        return TraceEvent(float(obj["t"]), str(obj["k"]), obj.get("p"), data)
    except (
        ValueError, KeyError, TypeError, AttributeError, EncodeError
    ) as exc:
        raise ConfigurationError(
            f"{where}:{lineno}: undecodable trace event: {exc}"
        ) from exc


def iter_trace_events(
    path: Union[str, Path],
) -> Iterator[Union[Dict[str, Any], TraceEvent]]:
    """Stream one trace file: yields the header dict first, then events.

    Line-by-line, so arbitrarily long traces can be scanned in constant
    memory (``repro trace stats`` uses this).
    """
    path = Path(path)
    where = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.strip():
            raise ConfigurationError(f"{where}: empty trace file (no header)")
        yield _parse_header(first, where)
        for lineno, line in enumerate(fh, start=2):
            if line.isspace():
                continue
            yield _parse_event(line, where, lineno)


def read_trace_file(path: Union[str, Path]) -> TraceFile:
    """Load one JSONL trace file entirely (header + decoded events)."""
    path = Path(path)
    stream = iter_trace_events(path)
    header = next(stream)
    events = list(stream)  # type: ignore[arg-type]
    return TraceFile(
        events=events,  # type: ignore[arg-type]
        node=header.get("node"),
        epoch_wall=float(header.get("epoch_wall", 0.0)),
        epoch_mono=float(header.get("epoch_mono", 0.0)),
        version=int(header.get("version", JSONL_VERSION)),
        path=path,
        header=header,
    )


#: Anything the analysis layer accepts as "a trace".
TraceSource = Union[
    MemorySink, TraceFile, str, Path, Iterable[TraceEvent],
]


def as_trace(source: TraceSource) -> MemorySink:
    """Coerce any trace source into the queryable in-memory form.

    * a :class:`MemorySink` (the live ``world.trace`` / ``cluster.trace``)
      is returned as-is — zero cost on the hot analysis paths;
    * a :class:`TraceFile` or a path to a ``.jsonl`` file is loaded;
    * any iterable of :class:`TraceEvent` is materialized.

    Write-only sinks (:class:`~repro.obs.sinks.JsonlSink`) are rejected
    with a pointer at the reader: analysis needs the events back.
    """
    if isinstance(source, MemorySink):
        return source
    if isinstance(source, TraceFile):
        sink = MemorySink()
        sink.extend(source.events)
        return sink
    if isinstance(source, (str, Path)):
        return as_trace(read_trace_file(source))
    if isinstance(source, TraceSink):
        raise ConfigurationError(
            f"cannot analyze a write-only {type(source).__name__}; read its "
            "output back with repro.obs.read_trace_file / merge_traces"
        )
    try:
        events: Tuple[TraceEvent, ...] = tuple(source)
    except TypeError:
        raise ConfigurationError(
            f"cannot interpret {type(source).__name__} as a trace source"
        ) from None
    sink = MemorySink()
    sink.extend(events)
    return sink
