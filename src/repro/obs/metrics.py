"""The metrics layer: a registry of counters/gauges/histograms per node.

Trace events answer *what happened*; metrics answer *how much*.  This
module gives every world — simulated :class:`~repro.sim.world.World` and
live :class:`~repro.net.host.RuntimeWorld` alike — one
:class:`MetricsRegistry` that protocol components and the substrate
increment at well-known record sites (messages sent/delivered by channel,
bytes on the wire, timeout adaptations, leader changes, suspicion flips,
consensus rounds and decisions).

The design mirrors the event-schema registry in :mod:`repro.obs.events`:

* every metric *name* must be registered up front via
  :func:`register_metric` (name, kind, exact label set, one-line doc) —
  the ``metrics-registry`` lint rule statically checks record sites
  against :data:`METRIC_SCHEMAS`, exactly as ``trace-schema`` checks
  ``trace.record(...)`` sites;
* recording against an unregistered name or with a wrong label set raises
  :class:`~repro.errors.ConfigurationError` at the call site, so a typo
  cannot silently create a parallel time series;
* :meth:`MetricsRegistry.snapshot` renders the whole registry as a
  JSON-safe payload, which :class:`MetricsReporter` periodically emits as
  an ``obs.metrics_snapshot`` trace event — snapshots ride the normal
  sink/merge machinery, so a merged multi-process trace carries each
  node's counter history on the common time base;
* :func:`render_prometheus` renders the registry in Prometheus text
  exposition format, which the ``repro node --stats-addr`` UDP endpoint
  serves live (see :mod:`repro.net.stats`).

:func:`aggregate_trace_kinds` is the shared per-kind count/byte
aggregation used by ``repro trace stats`` — it feeds an ordinary registry
(``trace_events_total`` / ``trace_bytes_total`` labeled by kind), so the
CLI and the live exposition share one aggregation path.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..errors import ConfigurationError

__all__ = [
    "MetricSchema",
    "METRIC_SCHEMAS",
    "register_metric",
    "metric_schema_for",
    "known_metrics",
    "MetricsRegistry",
    "MetricsReporter",
    "render_prometheus",
    "aggregate_trace_kinds",
    "TraceKindStats",
    "channel_family",
    "channel_slot",
]

_KINDS = ("counter", "gauge", "histogram")


@dataclass(frozen=True)
class MetricSchema:
    """Contract of one metric name: kind, exact label set, documentation."""

    name: str
    kind: str = "counter"
    #: The *exact* label keys every record site must supply.
    labels: Tuple[str, ...] = ()
    #: One-line description for the generated documentation / exposition.
    doc: str = ""


#: name -> schema, in registration order (the docs table preserves it).
METRIC_SCHEMAS: Dict[str, MetricSchema] = {}


def register_metric(
    name: str,
    kind: str = "counter",
    labels: Tuple[str, ...] = (),
    doc: str = "",
) -> MetricSchema:
    """Register (or look up an identical) schema for metric *name*.

    Re-registering with a different kind or label set is a configuration
    error — two record sites silently disagreeing on a metric's shape is
    the bug class the registry exists to prevent.
    """
    if kind not in _KINDS:
        raise ConfigurationError(
            f"metric kind must be one of {_KINDS}, got {kind!r}"
        )
    schema = MetricSchema(name, kind, tuple(labels), doc)
    existing = METRIC_SCHEMAS.get(name)
    if existing is not None:
        if (existing.kind, existing.labels) != (schema.kind, schema.labels):
            raise ConfigurationError(
                f"metric {name!r} already registered with a different "
                f"schema: {existing.kind}/{existing.labels} vs "
                f"{schema.kind}/{schema.labels}"
            )
        return existing
    METRIC_SCHEMAS[name] = schema
    return schema


def metric_schema_for(name: str) -> Optional[MetricSchema]:
    """The registered schema of *name*, or ``None`` if unknown."""
    return METRIC_SCHEMAS.get(name)


def known_metrics() -> Tuple[str, ...]:
    """Every registered metric name, sorted."""
    return tuple(sorted(METRIC_SCHEMAS))


_SLOT = re.compile(r"\.c(\d+)\b")


@lru_cache(maxsize=1024)
def channel_family(channel: str) -> str:
    """What per-channel counts go under: a per-slot channel reads as its
    family (``rsm.c17`` → ``rsm.c*``, ``rsm.c17.rb`` → ``rsm.c*.rb``), so
    label sets stay bounded however many slots a run opens; any other
    channel is its own family."""
    return _SLOT.sub(".c*", channel)


def channel_slot(channel: str) -> Tuple[str, int]:
    """A channel's family and slot number: ``rsm.c17.rb`` -> (``rsm.c*.rb``,
    17); a channel without a slot number -> (itself, -1)."""
    match = _SLOT.search(channel)
    return channel_family(channel), int(match.group(1)) if match else -1


#: Log-spaced (factor 2) histogram bucket upper bounds, 1e-6 .. ~8.8e6 —
#: wide enough for latencies in seconds and batch sizes alike at a fixed
#: ~50% resolution per bucket.  Values beyond the last bound land in one
#: overflow bucket; quantile estimates there are clamped to the observed
#: maximum.
_BUCKET_BOUNDS: Tuple[float, ...] = tuple(1e-6 * 2.0 ** i for i in range(44))


class _Histogram:
    """Streaming summary (count/sum/min/max) plus bounded log-spaced
    buckets — enough for QoS tables and p50/p95 estimates without storing
    samples."""

    __slots__ = ("count", "sum", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: sparse bucket-index -> count; index i counts values in
        #: (_BUCKET_BOUNDS[i-1], _BUCKET_BOUNDS[i]], index len(bounds) is
        #: the overflow bucket.
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = bisect_left(_BUCKET_BOUNDS, value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def quantile(self, q: float) -> Optional[float]:
        """Estimated q-quantile from the log-spaced buckets.

        Linear interpolation within the containing bucket, clamped to the
        observed [min, max]; ``None`` for an empty histogram.
        """
        if self.count == 0 or self.min is None or self.max is None:
            return None
        target = q * self.count
        cumulative = 0.0
        for index in sorted(self.buckets):
            in_bucket = self.buckets[index]
            if cumulative + in_bucket < target:
                cumulative += in_bucket
                continue
            if index >= len(_BUCKET_BOUNDS):
                return self.max
            upper = _BUCKET_BOUNDS[index]
            lower = _BUCKET_BOUNDS[index - 1] if index > 0 else 0.0
            fraction = (target - cumulative) / in_bucket
            estimate = lower + (upper - lower) * fraction
            return min(self.max, max(self.min, estimate))
        return self.max

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count, "sum": self.sum,
            "min": self.min, "max": self.max,
        }


LabelValues = Tuple[Any, ...]


class MetricsRegistry:
    """Per-node metric store, validated against :data:`METRIC_SCHEMAS`.

    One registry lives on every world (``world.metrics``); components
    reach it through :attr:`repro.sim.component.Component.metrics`.  All
    operations validate the metric name and the exact label-key set, then
    index by the label *values* in schema order.  Validation runs once per
    registry and call shape (name, scalar-or-histogram, label keys in the
    order passed).  A record site that runs once per message binds its
    series once with :meth:`bind` and then adds to it directly.
    """

    def __init__(self) -> None:
        self._scalars: Dict[str, Dict[LabelValues, float]] = {}
        self._histograms: Dict[str, Dict[LabelValues, _Histogram]] = {}
        #: (name, is-histogram, *label keys as passed) -> schema label
        #: order, for every call shape that has passed validation.
        self._checked: Dict[Tuple[Any, ...], Tuple[str, ...]] = {}

    # ------------------------------------------------------------- recording
    def _key(
        self, name: str, labels: Dict[str, Any], want_histogram: bool
    ) -> LabelValues:
        shape = (name, want_histogram, *labels)
        order = self._checked.get(shape)
        if order is None:
            schema = METRIC_SCHEMAS.get(name)
            if schema is None:
                raise ConfigurationError(
                    f"unregistered metric {name!r}; register_metric() it "
                    f"first (known: {', '.join(known_metrics())})"
                )
            if (schema.kind == "histogram") != want_histogram:
                verb = "observe" if schema.kind == "histogram" else "inc/set"
                raise ConfigurationError(
                    f"metric {name!r} is a {schema.kind}; use {verb}()"
                )
            if sorted(labels) != sorted(schema.labels):
                raise ConfigurationError(
                    f"metric {name!r} takes labels {schema.labels}, "
                    f"got {tuple(sorted(labels))}"
                )
            # Only a shape that passed is remembered, so a wrong call
            # site raises on every call, not just the first.
            order = self._checked[shape] = schema.labels
        return tuple([labels[key] for key in order])

    def bind(self, name: str, *labels: str) -> Dict[LabelValues, float]:
        """The series of counter (or gauge) *name* with label keys *labels*,
        validated once, for a record site to add to directly: it is keyed
        by the tuple of label values in schema order."""
        self._key(name, dict.fromkeys(labels), want_histogram=False)
        return self._scalars.setdefault(name, {})

    def inc(self, name: str, amount: Union[int, float] = 1, **labels: Any) -> None:
        """Add *amount* to counter (or gauge) *name* for this label set."""
        key = self._key(name, labels, want_histogram=False)
        series = self._scalars.setdefault(name, {})
        series[key] = series.get(key, 0) + amount

    def set(self, name: str, value: Union[int, float], **labels: Any) -> None:
        """Set gauge (or counter) *name* to *value* for this label set."""
        key = self._key(name, labels, want_histogram=False)
        self._scalars.setdefault(name, {})[key] = value

    def observe(self, name: str, value: Union[int, float], **labels: Any) -> None:
        """Record one sample into histogram *name* for this label set."""
        key = self._key(name, labels, want_histogram=True)
        series = self._histograms.setdefault(name, {})
        hist = series.get(key)
        if hist is None:
            hist = series[key] = _Histogram()
        hist.observe(float(value))

    # --------------------------------------------------------------- reading
    def value(self, name: str, **labels: Any) -> float:
        """Current value of a counter/gauge series (0 if never recorded)."""
        key = self._key(name, labels, want_histogram=False)
        return self._scalars.get(name, {}).get(key, 0)

    def histogram(self, name: str, **labels: Any) -> Dict[str, Any]:
        """Summary dict of a histogram series (zero summary if empty)."""
        key = self._key(name, labels, want_histogram=True)
        hist = self._histograms.get(name, {}).get(key)
        return hist.as_dict() if hist is not None else _Histogram().as_dict()

    def series(self, name: str) -> List[Tuple[Dict[str, Any], Any]]:
        """All ``(labels_dict, value)`` pairs of *name*, label-sorted.

        Histogram values are summary dicts (count/sum/min/max).
        """
        schema = METRIC_SCHEMAS.get(name)
        if schema is None:
            raise ConfigurationError(f"unregistered metric {name!r}")
        store: Dict[LabelValues, Any]
        if schema.kind == "histogram":
            store = {k: h.as_dict() for k, h in
                     self._histograms.get(name, {}).items()}
        else:
            store = dict(self._scalars.get(name, {}))
        return [
            (dict(zip(schema.labels, key)), store[key])
            for key in sorted(store, key=lambda k: tuple(map(str, k)))
        ]

    def names(self) -> List[str]:
        """Registered names with at least one recorded series, in
        registration order."""
        return [
            name for name in METRIC_SCHEMAS
            if self._scalars.get(name) or self._histograms.get(name)
        ]

    # -------------------------------------------------------------- snapshot
    def snapshot(self) -> Dict[str, List[Dict[str, Any]]]:
        """JSON-safe dump: ``{name: [{"labels": {...}, "value": v}, ...]}``.

        This is the payload of the ``obs.metrics_snapshot`` trace event;
        it round-trips through the JSONL sinks and the offline merger.
        """
        return {
            name: [
                {"labels": labels, "value": value}
                for labels, value in self.series(name)
            ]
            for name in self.names()
        }


# ---------------------------------------------------------------------------
# Prometheus text exposition (what `repro node --stats-addr` serves).
# ---------------------------------------------------------------------------

def _expo_labels(labels: Dict[str, Any]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{str(value)}"' for key, value in labels.items()
    )
    return "{" + body + "}"


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render *registry* in Prometheus text exposition format.

    Histograms are exposed as proper summaries: ``<name>{quantile="0.5"}``
    / ``{quantile="0.95"}`` estimates from the log-spaced buckets plus the
    ``<name>_count`` / ``<name>_sum`` / ``<name>_min`` / ``<name>_max``
    streaming aggregates.
    """
    lines: List[str] = []
    for name in registry.names():
        schema = METRIC_SCHEMAS[name]
        if schema.doc:
            lines.append(f"# HELP {name} {schema.doc}")
        if schema.kind == "histogram":
            lines.append(f"# TYPE {name} summary")
            histograms = registry._histograms.get(name, {})
            for labels, summary in registry.series(name):
                tail = _expo_labels(labels)
                key = tuple(labels[k] for k in schema.labels)
                hist = histograms.get(key)
                for q in (0.5, 0.95):
                    estimate = hist.quantile(q) if hist is not None else None
                    if estimate is None:
                        continue
                    qlabels = dict(labels)
                    qlabels["quantile"] = str(q)
                    lines.append(f"{name}{_expo_labels(qlabels)} {estimate}")
                for part in ("count", "sum", "min", "max"):
                    value = summary[part]
                    if value is None:
                        continue
                    lines.append(f"{name}_{part}{tail} {value}")
        else:
            lines.append(f"# TYPE {name} {schema.kind}")
            for labels, value in registry.series(name):
                lines.append(f"{name}{_expo_labels(labels)} {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The periodic snapshot reporter — an ordinary Component, so the same class
# runs on the simulated World and on a live NodeHost.  The import sits here,
# not at the top: repro.sim.world imports MetricsRegistry (defined above)
# while this module is mid-import in the obs-first import order.
# ---------------------------------------------------------------------------

from ..sim.component import Component  # noqa: E402


class MetricsReporter(Component):
    """Periodically emits ``obs.metrics_snapshot`` trace events.

    Before each snapshot it runs every sampler in
    ``world.metrics_samplers`` (live hosts register one that copies the
    transport's frame/byte counters into gauges); then it dumps
    ``world.metrics`` through the normal :meth:`Component.trace` path, so
    snapshots are timestamped, filtered, shipped, and merged exactly like
    any other event.
    """

    channel = "obs.metrics"

    def __init__(self, interval: float, channel: Optional[str] = None) -> None:
        super().__init__(channel)
        if interval <= 0:
            raise ConfigurationError(
                f"metrics interval must be positive, got {interval}"
            )
        self.interval = interval
        self._seq = 0

    def on_start(self) -> None:
        self.periodically(self.interval, self._emit)

    def _emit(self) -> None:
        registry = self.world.metrics
        for sampler in getattr(self.world, "metrics_samplers", ()):
            sampler(registry)
        registry.inc("metrics_snapshots_total")
        self.trace(
            "obs.metrics_snapshot",
            metrics=registry.snapshot(), seq=self._seq,
        )
        self._seq += 1


# ---------------------------------------------------------------------------
# Shared per-kind aggregation for `repro trace stats`.
# ---------------------------------------------------------------------------

@dataclass
class TraceKindStats:
    """Per-file aggregation: header + a registry of per-kind series."""

    path: str
    header: Dict[str, Any]
    registry: MetricsRegistry
    first: Optional[float] = None
    last: Optional[float] = None

    @property
    def total_events(self) -> int:
        return int(sum(v for _, v in self.registry.series("trace_events_total")))

    def kinds(self) -> List[Tuple[str, int, int]]:
        """Sorted ``(kind, events, bytes)`` rows."""
        counts = {
            labels["kind"]: int(value)
            for labels, value in self.registry.series("trace_events_total")
        }
        sizes = {
            labels["kind"]: int(value)
            for labels, value in self.registry.series("trace_bytes_total")
        }
        return [
            (kind, counts[kind], sizes.get(kind, 0))
            for kind in sorted(counts)
        ]


def aggregate_trace_kinds(path: Union[str, Path]) -> TraceKindStats:
    """Stream one JSONL trace file into per-kind count/byte series.

    Byte sizes are the on-disk JSONL line lengths (including the newline)
    — the quantity that matters for trace-shipping cost.  Undecodable
    lines raise, matching the strict reader; use ``repro trace check``
    for diagnosis.
    """
    registry = MetricsRegistry()
    stats = TraceKindStats(path=str(path), header={}, registry=registry)
    with open(path, "r", encoding="utf-8") as stream:
        for index, line in enumerate(stream):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}:{index + 1}: undecodable JSONL line: {exc}"
                ) from None
            if index == 0 and "trace" in obj:
                stats.header = obj
                continue
            kind = obj.get("k", "?")
            registry.inc("trace_events_total", kind=kind)
            registry.inc("trace_bytes_total", amount=len(line.encode("utf-8")),
                         kind=kind)
            time = obj.get("t")
            if time is not None:
                if stats.first is None:
                    stats.first = float(time)
                stats.last = float(time)
    return stats


# ---------------------------------------------------------------------------
# Built-in metric names — every record site in the substrate and the
# shipped protocol stacks.  Downstream protocols register their own.
# ---------------------------------------------------------------------------

register_metric(
    "messages_sent_total", "counter", ("channel",),
    doc="protocol messages handed to the network fabric (self-sends excluded)",
)
register_metric(
    "messages_delivered_total", "counter", ("channel",),
    doc="protocol messages delivered to a local component",
)
register_metric(
    "messages_dropped_total", "counter", ("reason",),
    doc="messages lost: link loss, crashed receiver, retired channel, "
        "undecodable or misrouted frame, or an injected fault",
)
register_metric(
    "bytes_sent_total", "counter", ("channel",),
    doc="encoded wire bytes handed to the transport, by protocol channel",
)
register_metric(
    "bytes_received_total", "counter", ("channel",),
    doc="decoded wire bytes delivered to components, by protocol channel",
)
register_metric(
    "transport_frames_sent", "gauge", (),
    doc="transport-level frames sent (sampled from the transport counters)",
)
register_metric(
    "transport_frames_received", "gauge", (),
    doc="transport-level frames received (sampled)",
)
register_metric(
    "transport_bytes_sent", "gauge", (),
    doc="transport-level bytes sent (sampled)",
)
register_metric(
    "transport_bytes_received", "gauge", (),
    doc="transport-level bytes received (sampled)",
)
register_metric(
    "transport_send_errors", "gauge", (),
    doc="transport-level send errors (sampled)",
)
register_metric(
    "transport_incidents_total", "counter", ("event",),
    doc="transport incident events (e.g. net.peer_unreachable)",
)
register_metric(
    "fd_suspicion_flips_total", "counter", ("channel",),
    doc="failure-detector output changes that altered the suspected set",
)
register_metric(
    "fd_leader_changes_total", "counter", ("channel",),
    doc="failure-detector output changes that altered the trusted leader",
)
register_metric(
    "fd_timeout_adaptations_total", "counter", ("channel",),
    doc="timeout widenings after a premature suspicion (the paper's "
        "fixed-increment adaptation)",
)
register_metric(
    "fd_suspected_size", "gauge", ("channel",),
    doc="current size of a detector's suspected set",
)
register_metric(
    "consensus_proposals_total", "counter", ("algo",),
    doc="proposals received by consensus instances",
)
register_metric(
    "consensus_rounds_total", "counter", ("algo",),
    doc="consensus round entries",
)
register_metric(
    "consensus_decisions_total", "counter", ("algo",),
    doc="consensus decisions",
)
register_metric(
    "metrics_snapshots_total", "counter", (),
    doc="obs.metrics_snapshot events emitted by the reporter",
)
register_metric(
    "svc_requests_total", "counter", ("op",),
    doc="client request frames accepted by the service frontend, by op",
)
register_metric(
    "svc_redirects_total", "counter", (),
    doc="client requests answered with a leader redirect",
)
register_metric(
    "svc_applies_total", "counter", ("op",),
    doc="commands the KV state machine executed from the replicated log",
)
register_metric(
    "svc_duplicates_total", "counter", (),
    doc="client retries deduplicated by the session table (exactly-once)",
)
register_metric(
    "svc_connections", "gauge", (),
    doc="currently open client connections on the service frontend",
)
register_metric(
    "svc_sessions", "gauge", (),
    doc="client sessions tracked in the replicated dedup table",
)
register_metric(
    "svc_request_latency_seconds", "histogram", ("op",),
    doc="end-to-end client request latency observed by the load generator",
)
register_metric(
    "rsm_batch_size", "histogram", (),
    doc="commands per proposed batch at the replicated state machine "
        "(recorded only when batching is enabled, max_batch > 1)",
)
register_metric(
    "svc_submit_queue_depth", "gauge", (),
    doc="commands pending in the state machine's batch accumulator, "
        "sampled by the frontend on every submit",
)
register_metric(
    "trace_events_total", "counter", ("kind",),
    doc="trace events aggregated per kind (repro trace stats)",
)
register_metric(
    "trace_bytes_total", "counter", ("kind",),
    doc="JSONL bytes aggregated per event kind (repro trace stats)",
)
register_metric(
    "obs_stream_events_shipped", "gauge", (),
    doc="trace events the streaming shipper delivered to the collector "
        "(sampled from the StreamingSink counters)",
)
register_metric(
    "obs_stream_events_dropped", "gauge", (),
    doc="trace events the streaming shipper dropped: buffer overflow or "
        "batches lost to a torn connection (sampled)",
)
register_metric(
    "obs_stream_batches_shipped", "gauge", (),
    doc="batch frames the streaming shipper wrote to the collector "
        "(sampled)",
)
register_metric(
    "obs_stream_reconnects", "gauge", (),
    doc="times the streaming shipper re-established its collector "
        "connection (sampled)",
)

Sampler = Callable[[MetricsRegistry], None]
