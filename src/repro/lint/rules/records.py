"""Record-site rules: trace emissions and metric updates must match the
:mod:`repro.obs` registries.

The event-schema registry (:data:`repro.obs.events.EVENT_SCHEMAS`) and the
metric-schema registry (:data:`repro.obs.metrics.METRIC_SCHEMAS`) are the
single sources of truth for what each trace event kind carries and what
each metric is called and labelled.  The analysis layer navigates payloads
by key (``ev.get("suspected")``), so an emitter recording a typo'd kind or
forgetting a required key produces a trace that *looks* fine but silently
falls out of every property check; :class:`~repro.obs.metrics.MetricsRegistry`
raises on an unknown name or a wrong label set, but a record site on a
rarely taken branch (a drop path, an error handler) only blows up when that
branch finally executes — in a failure-detector codebase, exactly the
moment you need the counter.  These rules move both failures to the lint
step, the same contract ``repro trace check`` enforces on recorded JSONL
streams at run time.

One checker serves both registries: a recognizer per site shape picks the
kind/name argument, the project model resolves it to a string (a literal,
a module-level constant, or a constant imported from another module), and
the supplied keywords are compared against the registered schema.  The
check is one-sided and best-effort: a kind or name that does not resolve
statically (the ``Component.trace`` helper and the sinks forward a
variable) is covered at run time; a ``**splat`` suppresses the keyword
comparison but not the unknown-name check.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from ...obs.events import EVENT_SCHEMAS
from ...obs.metrics import METRIC_SCHEMAS
from ..astutil import ImportMap, dotted_name
from ..findings import Finding
from ..registry import Rule, rule

__all__ = ["TraceSchemaRule", "MetricsRegistryRule"]


def _receiver_is(node: ast.AST, word: str, imports: ImportMap) -> bool:
    """Whether the receiver *node* of a record call is a *word* object: its
    final name mentions *word* (``self.trace``, ``world._trace``,
    ``host.metrics``), or its import alias resolves under ``repro.obs``
    (``from repro.obs import events as ev; ev.record(...)``)."""
    receiver = dotted_name(node)
    if receiver is None:
        return False
    if word in receiver.rsplit(".", 1)[-1]:
        return True
    canonical = imports.resolve(receiver)
    return canonical == "repro.obs" or canonical.startswith("repro.obs.")


def _positional(call: ast.Call, index: int) -> Optional[ast.expr]:
    """Positional argument *index* of *call*, unless a ``*splat`` at or
    before it makes the position unknowable."""
    if len(call.args) <= index or any(
        isinstance(a, ast.Starred) for a in call.args[: index + 1]
    ):
        return None
    return call.args[index]


class _RecordSiteRule(Rule):
    """Check every recognized record site against one schema registry.

    A subclass supplies the registry (``schemas``), the site recognizer
    (``site(call, imports)`` -> the kind/name argument or ``None``), and
    the two messages: ``unknown(name)`` and ``mismatch(name, schema,
    supplied keywords)`` -> ``None`` when the keywords fit the schema.
    """

    scope = ()  # the registry contract holds everywhere records are made

    @staticmethod
    def supplied(call: ast.Call) -> Optional[Set[str]]:
        """The payload keys or labels *call* supplies as keywords
        (``None`` under a ``**splat``)."""
        keys = {kw.arg for kw in call.keywords}
        return None if None in keys else keys

    def check_file(self, ctx, model) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name_node = self.site(node, ctx.imports)
            if name_node is None:
                continue
            name = model.resolve_string(ctx, name_node)
            if name is None:
                continue  # dynamic: checked at run time, not here
            schema = self.schemas.get(name)
            if schema is None:
                yield self.finding(ctx, name_node, self.unknown(name))
                continue
            supplied = self.supplied(node)
            if supplied is None:
                continue  # a splat: keys unknowable statically
            problem = self.mismatch(name, schema, supplied)
            if problem is not None:
                yield self.finding(ctx, node, problem)


@rule
class TraceSchemaRule(_RecordSiteRule):
    """Statically check trace emissions against the event-schema registry."""

    id = "trace-schema"
    summary = (
        "trace.record(...)/self.trace(...) calls must use registered event "
        "kinds and supply each kind's required payload keys"
    )
    schemas = EVENT_SCHEMAS

    def site(self, call, imports):
        """``<...trace>.record(time, kind, pid, **data)`` or the Component
        helper ``self.trace(kind, **data)``."""
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr == "record":
            if _receiver_is(func.value, "trace", imports):
                return _positional(call, 1)
        elif func.attr == "trace" and dotted_name(func.value) == "self":
            return _positional(call, 0)
        return None

    @staticmethod
    def unknown(kind: str) -> str:
        return (
            f"unknown trace event kind {kind!r}; register it with "
            "repro.obs.register_event_kind or fix the typo (known "
            "kinds: " + ", ".join(sorted(EVENT_SCHEMAS)) + ")"
        )

    @staticmethod
    def mismatch(kind: str, schema, supplied: Set[str]) -> Optional[str]:
        missing = [key for key in schema.required if key not in supplied]
        if not missing:
            return None
        return (
            f"trace event {kind!r} is missing required payload "
            "key(s): " + ", ".join(missing)
        )


#: Keyword arguments that configure a metric update itself, never labels.
_RESERVED = frozenset({"amount", "value"})


@rule
class MetricsRegistryRule(_RecordSiteRule):
    """Statically check metric updates against the metric-schema registry."""

    id = "metrics-registry"
    summary = (
        "metrics.inc/set/observe/bind(...) calls must use registered metric "
        "names and supply exactly each metric's declared labels"
    )
    schemas = METRIC_SCHEMAS

    def site(self, call, imports):
        """``<...metrics>.inc/set/observe(name, **labels)`` or
        ``<...metrics>.bind(name, *label_keys)``."""
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("inc", "set", "observe", "bind")
            and _receiver_is(func.value, "metrics", imports)
        ):
            return _positional(call, 0)
        return None

    @staticmethod
    def supplied(call: ast.Call) -> Optional[Set[str]]:
        """A ``bind`` names its label keys as literal arguments after the
        metric name (``None`` if one is not a literal)."""
        if call.func.attr != "bind":
            return _RecordSiteRule.supplied(call)
        keys = [k.value for k in call.args[1:] if isinstance(k, ast.Constant)]
        return set(keys) if len(keys) == len(call.args) - 1 else None

    @staticmethod
    def unknown(name: str) -> str:
        return (
            f"unknown metric {name!r}; register it with "
            "repro.obs.register_metric or fix the typo (known "
            "metrics: " + ", ".join(sorted(METRIC_SCHEMAS)) + ")"
        )

    @staticmethod
    def mismatch(name: str, schema, supplied: Set[str]) -> Optional[str]:
        got = sorted(supplied - _RESERVED)
        declared = sorted(schema.labels)
        if got == declared:
            return None

        def braces(labels):
            return "{" + ", ".join(labels) + "}" if labels else "none"

        return (
            f"metric {name!r} declares labels {braces(declared)} but this "
            f"update supplies {braces(got)}"
        )
