"""The canonical trace event and the machine-readable event-schema registry.

A :class:`TraceEvent` is one timestamped observation of the system — a
message send, a delivery, a crash, a failure-detector output change, a
protocol phase transition, a decision.  The property checkers in
:mod:`repro.analysis` and the benchmark harnesses work exclusively from
these events, so "phases per round" or "messages per round" are
*measured*, never hard-coded.

Each well-known event kind has an :class:`EventSchema` describing the
payload keys its emitters must (and may) supply.  The registry is the
single source of truth for three consumers:

* the ``trace-schema`` lint rule statically checks every
  ``trace.record(...)`` / ``self.trace(...)`` call site against it;
* ``repro trace check`` validates recorded JSONL streams against it;
* ``docs/traces.md`` renders its table (via :func:`schema_table`), so the
  documentation can never drift from the code.

Downstream protocols adding new event kinds register them with
:func:`register_event_kind` at import time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..types import ProcessId, Time

__all__ = [
    "TraceEvent",
    "EventSchema",
    "EVENT_SCHEMAS",
    "register_event_kind",
    "schema_for",
    "known_kinds",
    "validate_event",
    "schema_table",
]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """A single timestamped observation of the (simulated or live) system."""

    time: Time
    kind: str
    pid: Optional[ProcessId]
    data: Dict[str, Any]

    def get(self, key: str, default: Any = None) -> Any:
        """Shorthand for ``event.data.get(key, default)``."""
        return self.data.get(key, default)


@dataclass(frozen=True)
class EventSchema:
    """Payload contract of one event kind."""

    kind: str
    #: Keys every emitter must supply.
    required: Tuple[str, ...] = ()
    #: Keys an emitter may additionally supply.
    optional: Tuple[str, ...] = ()
    #: One-line description for the generated documentation.
    doc: str = ""

    def problems(self, data: Dict[str, Any]) -> List[str]:
        """Human-readable schema violations of *data* (empty = conforming).

        Only missing required keys are violations; unknown extra keys are
        tolerated (protocols may annotate events), matching the lint rule.
        """
        missing = [key for key in self.required if key not in data]
        if not missing:
            return []
        return [
            f"event kind {self.kind!r} missing required payload key(s): "
            + ", ".join(missing)
        ]


#: kind -> schema, in registration order (which the docs table preserves).
EVENT_SCHEMAS: Dict[str, EventSchema] = {}


def register_event_kind(
    kind: str,
    required: Tuple[str, ...] = (),
    optional: Tuple[str, ...] = (),
    doc: str = "",
) -> EventSchema:
    """Register (or look up an identical) schema for *kind*.

    Re-registering with a different contract is a configuration error —
    two protocols silently disagreeing on a payload shape is exactly the
    bug class the registry exists to prevent.
    """
    schema = EventSchema(kind, tuple(required), tuple(optional), doc)
    existing = EVENT_SCHEMAS.get(kind)
    if existing is not None:
        if (existing.required, existing.optional) != (
            schema.required, schema.optional
        ):
            raise ConfigurationError(
                f"event kind {kind!r} already registered with a different "
                f"schema: {existing.required}/{existing.optional} vs "
                f"{schema.required}/{schema.optional}"
            )
        return existing
    EVENT_SCHEMAS[kind] = schema
    return schema


def schema_for(kind: str) -> Optional[EventSchema]:
    """The registered schema of *kind*, or ``None`` if unknown."""
    return EVENT_SCHEMAS.get(kind)


def known_kinds() -> Tuple[str, ...]:
    """Every registered kind, sorted."""
    return tuple(sorted(EVENT_SCHEMAS))


def validate_event(event: TraceEvent) -> List[str]:
    """Schema violations of one event (empty list = conforming)."""
    schema = EVENT_SCHEMAS.get(event.kind)
    if schema is None:
        return [
            f"unknown trace event kind {event.kind!r} "
            f"(known: {', '.join(known_kinds())})"
        ]
    return schema.problems(event.data)


def schema_table(fmt: str = "markdown") -> str:
    """Render the registry as a table (``markdown`` or ``rst``).

    ``docs/traces.md`` embeds the markdown rendering verbatim; a tier-1
    test regenerates it and diffs, so the docs cannot drift.
    """
    rows = [
        (
            f"`{s.kind}`",
            ", ".join(f"`{k}`" for k in s.required) or "—",
            ", ".join(f"`{k}`" for k in s.optional) or "—",
            s.doc,
        )
        for s in EVENT_SCHEMAS.values()
    ]
    headers = ("kind", "required payload", "optional payload", "meaning")
    if fmt == "markdown":
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows))
            for i in range(len(headers))
        ]
        lines = [
            "| " + " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)) + " |",
            "|" + "|".join("-" * (w + 2) for w in widths) + "|",
        ]
        for row in rows:
            lines.append(
                "| " + " | ".join(c.ljust(widths[i]) for i, c in enumerate(row)) + " |"
            )
        return "\n".join(lines)
    if fmt == "rst":
        lines = []
        for s in EVENT_SCHEMAS.values():
            req = ", ".join(s.required) or "(none)"
            opt = (" (optional: " + ", ".join(s.optional) + ")") if s.optional else ""
            lines.append(f"``{s.kind}``: {req}{opt}")
        return "\n".join(lines)
    raise ConfigurationError(f"unknown schema table format {fmt!r}")


# ---------------------------------------------------------------------------
# Built-in kinds — every event the substrate and the shipped protocols emit.
# ---------------------------------------------------------------------------

register_event_kind(
    "send", required=("channel", "src", "dst"),
    optional=("tag", "round", "loopback"),
    doc="a message was handed to the network fabric",
)
register_event_kind(
    "deliver", required=("channel", "src", "dst"), optional=("tag", "round"),
    doc="a message reached its destination process",
)
register_event_kind(
    "drop", required=("reason",), optional=("channel", "src", "dst"),
    doc="a message was lost (link loss, crashed receiver, retired channel, "
        "undecodable or misrouted frame, or an injected fault)",
)
register_event_kind(
    "parked", required=("channel", "src"),
    doc="a message arrived on a channel with no component attached yet",
)
register_event_kind(
    "crash", doc="the process crashed (crash-stop; event pid is the victim)",
)
register_event_kind(
    "fd", required=("channel", "suspected", "trusted"),
    doc="a failure-detector module's output changed (or its initial output)",
)
register_event_kind(
    "leader", required=("leader",),
    doc="reserved: an explicit leader announcement (none of the shipped "
        "detectors emit it; Ω output is read from `fd` events)",
)
register_event_kind(
    "propose", required=("algo", "value"),
    doc="a consensus protocol instance received a proposal",
)
register_event_kind(
    "decide", required=("algo", "value", "round"),
    doc="a process decided (round is None for round-less algorithms)",
)
register_event_kind(
    "round", required=("algo", "round"),
    doc="a process entered a consensus round",
)
register_event_kind(
    "phase", required=("algo", "round", "phase"),
    doc="a process entered a phase within a consensus round",
)
register_event_kind(
    "apply", required=("slot", "command"), optional=("index",),
    doc="the replicated state machine applied a decided command (index is "
        "the command's position within its slot's batch, 0 when unbatched)",
)
register_event_kind(
    "rsm.batch_proposed", required=("slot", "size"),
    doc="a replica proposed a batch of pending commands into a slot "
        "(emitted only when batching is enabled, max_batch > 1)",
)
register_event_kind(
    "rsm.batch_applied", required=("slot", "size", "duplicates"),
    doc="a decided batch finished applying; duplicates counts commands "
        "skipped because an overlapping earlier batch already applied them",
)
register_event_kind(
    "todeliver", required=("origin",),
    doc="total-order broadcast delivered a message",
)
register_event_kind(
    "rdeliver", required=("origin",),
    doc="reliable broadcast delivered a message",
)
register_event_kind(
    "urbdeliver", required=("origin",),
    doc="uniform reliable broadcast delivered a message",
)
register_event_kind(
    "net.peer_unreachable", required=("peer",), optional=("attempts", "dropped"),
    doc="a transport exhausted its bounded reconnect attempts to a peer and "
        "dropped that peer's queued frames (retries resume on new traffic)",
)
register_event_kind(
    "obs.metrics_snapshot", required=("metrics",), optional=("seq",),
    doc="a periodic dump of the node's metrics registry "
        "(see repro.obs.metrics; payload is MetricsRegistry.snapshot())",
)
register_event_kind(
    "svc.request", required=("op", "client"),
    optional=("seq", "rid", "key", "span"),
    doc="the service frontend accepted one client request frame",
)
register_event_kind(
    "svc.redirect", required=("leader",), optional=("client", "op"),
    doc="a non-leader frontend redirected a client (leader is the pid the "
        "local Omega output trusts, or None while it has no leader)",
)
register_event_kind(
    "svc.apply", required=("slot", "op", "duplicate"),
    optional=("client", "seq", "ok"),
    doc="the KV state machine executed (or deduplicated) one decided "
        "command from the replicated log",
)
register_event_kind(
    "scenario.run", required=("name", "events"), optional=("seed",),
    doc="a scenario schedule was armed against the cluster (events is the "
        "schedule length; seed present for generated scenarios)",
)
register_event_kind(
    "scenario.partition", required=("groups",),
    doc="the scenario layer partitioned the network into the given groups "
        "(isolate records the victim as a singleton group)",
)
register_event_kind(
    "scenario.heal",
    doc="the scenario layer removed the active network partition",
)
register_event_kind(
    "scenario.stall", required=("target",), optional=("signal",),
    doc="the scenario layer froze a node (SIGSTOP on a process cluster, "
        "full send/receive silence on a local one)",
)
register_event_kind(
    "scenario.resume", required=("target",), optional=("signal",),
    doc="the scenario layer unfroze a previously stalled node",
)
register_event_kind(
    "scenario.degrade", required=("src", "dst"), optional=("loss", "delay"),
    doc="the scenario layer degraded one directed link (loss probability "
        "and/or fixed extra delay in seconds)",
)
register_event_kind(
    "scenario.restore", required=("src", "dst"),
    doc="the scenario layer restored a degraded directed link",
)
register_event_kind(
    "scenario.storm", required=("loss",),
    doc="the scenario layer started a cluster-wide message-loss storm",
)
register_event_kind(
    "scenario.calm",
    doc="the scenario layer ended the active message-loss storm",
)
register_event_kind(
    "scenario.skew", required=("target", "offset"),
    doc="the scenario layer stepped one node's clock by offset seconds",
)
register_event_kind(
    "span.queue", required=("span",), optional=("op",),
    doc="a client command entered the serving frontend's submit path "
        "(span is the request's correlation id: '<client>.<seq>')",
)
register_event_kind(
    "span.propose", required=("span", "slot"),
    doc="a staged client command was proposed into a consensus slot",
)
register_event_kind(
    "span.decide", required=("span", "slot"),
    doc="the consensus slot carrying this command decided (every replica "
        "emits one; the span analyzer reads the serving replica's)",
)
register_event_kind(
    "span.apply", required=("span", "slot"),
    doc="the replicated state machine applied this command from its slot",
)
register_event_kind(
    "span.reply", required=("span",), optional=("status",),
    doc="the serving frontend completed the client reply for this command",
)
register_event_kind(
    "live.connect", required=("node",),
    doc="the live collector accepted a node's trace stream (node is the "
        "shipper's node id from its hello header, None for combined "
        "in-process streams)",
)
register_event_kind(
    "live.disconnect", required=("node",), optional=("events",),
    doc="a node's trace stream to the live collector ended (events is how "
        "many events that stream shipped in total)",
)
