"""repro.obs — the observability layer: trace events, sinks, and merging.

Every measured claim in this reproduction — the ◇C/◇P property checks, the
"phases per round" and message-cost tables, detection latencies — is
computed from a stream of :class:`TraceEvent` records.  This package owns
that stream end to end:

* :mod:`repro.obs.events` — the canonical :class:`TraceEvent` and the
  machine-readable **event-schema registry** (kind → required/optional
  payload keys).  The lint rule ``trace-schema`` and ``repro trace check``
  validate against it, and ``docs/traces.md`` is generated from it.
* :mod:`repro.obs.sinks` — the :class:`TraceSink` protocol with three
  implementations: :class:`MemorySink` (the in-memory, query-friendly log
  that :mod:`repro.analysis` consumes; :class:`repro.sim.Trace` is the
  same class), :class:`JsonlSink`
  (line-buffered streaming JSONL writer with per-node clock provenance),
  and :class:`TeeSink` (fan-out to several sinks).
* :mod:`repro.obs.reader` — the JSONL reader and :func:`as_trace`, the
  coercion every analysis function uses, so verdicts can be computed from
  a live trace, an event list, or a trace file interchangeably.
* :mod:`repro.obs.merge` — the offline merger: rebases per-node clocks
  against a common epoch (headers first, then a max-skew estimate from
  matched send→deliver handshakes) and emits one time-ordered stream.
* :mod:`repro.obs.encode` — the tagged JSON-safe value transform shared
  with the wire codec (tuples, int-keyed dicts, frozensets and the NULL
  sentinel all round-trip exactly).
* :mod:`repro.obs.live` — the live telemetry plane: a
  :class:`StreamingSink` shipping trace events to a TCP collector as the
  run happens, and the :class:`LiveCollector` ingesting several node
  streams onto one time base and folding them into the QoS engine
  (:class:`repro.analysis.qos.IncrementalQoS`, re-exported here).
* :mod:`repro.obs.spans` — per-command causal spans: groups the
  ``span.*`` stage events one client command leaves across the service
  path (queue → propose → decide → apply → reply) into per-stage
  latency distributions (``repro trace spans``).

The simulator (:mod:`repro.sim`) and the live runtime (:mod:`repro.net`)
both record through this layer; hosts in separate OS processes each write
their own JSONL file and :func:`merge_traces` reassembles the run
postmortem — the prerequisite for ``kill -9``-style multi-process clusters.
"""

from .encode import EncodeError, from_jsonable, to_jsonable
from .events import (
    EVENT_SCHEMAS,
    EventSchema,
    TraceEvent,
    known_kinds,
    register_event_kind,
    schema_for,
    schema_table,
    validate_event,
)
from .merge import MergeReport, merge_traces
from .reader import TraceFile, as_trace, iter_trace_events, read_trace_file
from .sinks import JsonlSink, MemorySink, TeeSink, Trace, TraceSink

# .metrics subclasses repro.sim.component.Component, and repro.sim imports
# repro.obs.sinks — import it last so both import orders resolve cleanly.
from .metrics import (
    METRIC_SCHEMAS,
    MetricSchema,
    MetricsRegistry,
    MetricsReporter,
    aggregate_trace_kinds,
    known_metrics,
    metric_schema_for,
    register_metric,
    render_prometheus,
)

# .live, .spans and the QoS engine are exposed lazily: repro.net.host
# imports repro.obs, .live needs repro.net.frame, and repro.analysis
# imports repro.obs.reader — an eager import here would close either
# cycle.  Resolve on first attribute access, when all packages exist.
_LIVE_NAMES = (
    "LiveCollector",
    "StreamingSink",
    "parse_ship_address",
)
_SPAN_NAMES = (
    "Span",
    "SpanCoverage",
    "SpanReport",
    "analyze_spans",
    "collect_spans",
    "span_coverage",
)


def __getattr__(name: str):
    if name == "IncrementalQoS":
        from ..analysis.qos import IncrementalQoS

        return IncrementalQoS
    if name in _LIVE_NAMES:
        from . import live

        return getattr(live, name)
    if name in _SPAN_NAMES:
        from . import spans

        return getattr(spans, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "EncodeError",
    "from_jsonable",
    "to_jsonable",
    "EVENT_SCHEMAS",
    "EventSchema",
    "TraceEvent",
    "known_kinds",
    "register_event_kind",
    "schema_for",
    "schema_table",
    "validate_event",
    "MergeReport",
    "merge_traces",
    "TraceFile",
    "as_trace",
    "iter_trace_events",
    "read_trace_file",
    "JsonlSink",
    "MemorySink",
    "TeeSink",
    "Trace",
    "TraceSink",
    "METRIC_SCHEMAS",
    "MetricSchema",
    "MetricsRegistry",
    "MetricsReporter",
    "aggregate_trace_kinds",
    "known_metrics",
    "metric_schema_for",
    "register_metric",
    "render_prometheus",
    "IncrementalQoS",
    *_LIVE_NAMES,
    *_SPAN_NAMES,
]
