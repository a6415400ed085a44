"""``protocol-flow``: every kind sent has a handler, every arm a producer.

Three protocol "spaces" are tracked across the whole program:

* **component message kinds** — the first element of a tuple payload (or a
  whole-string payload) handed to ``send``/``send_self``/``broadcast``/
  ``rbroadcast``/``urbroadcast``, versus dispatch arms that compare a
  received kind (``payload[0]``, ``kind, x = payload``, a parameter named
  ``kind``) against a string;
* **service ops** — ``client.request("get", ...)`` / ``Request(op=...)`` /
  a ``{"op": "partition", ...}`` wire-command literal (the fault-control
  protocol and hand-written scenario documents both spell ops this way)
  versus handler arms comparing ``request.op``, ``event.op``,
  ``command["op"]``, a parameter named ``op``, or a name bound from
  ``command.get("op")``;
* **service reply statuses** — ``Reply(status=...)`` versus client-side
  status compares.  This space is *dead-arm only*: a produced status no
  client inspects is normal (clients handle "error" in an else-branch),
  but comparing against a status the service never produces is dead code.

String values resolve through module-level constants and cross-module
constant imports (``from .kinds import EST``), so the conventional
``_EST = "EST"`` style is followed to the literal.

Both directions are gated on the other side being *in view* (at least one
producer / one handler arm in the model, reference corpus included):
linting a lone client file must not claim every op is unhandled.
Missing handlers are errors; dead arms are warnings, reported only for
*strong* kind expressions (a bare ``payload == "X"`` compare is accepted
as a handler but never flagged as dead — too weak a signal).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..astutil import call_func_name
from ..findings import Finding
from ..model import own_nodes
from ..registry import Rule, rule
from .payload import _PAYLOAD_ARG, payload_expr

__all__ = ["ProtocolFlowRule"]

#: Parameter names conventionally holding an incoming message payload.
_PAYLOAD_PARAMS = frozenset({"payload", "message", "msg", "command"})

#: Dispatch-field name -> the space it selects on.  Deliberately does NOT
#: include "kind": ``x.kind`` in this codebase is overwhelmingly
#: ``TraceEvent.kind`` / ``MetricSchema.kind`` (trace analysis, not message
#: dispatch) — component kinds are matched through payload conventions
#: (``payload[0]``, tuple unpack, a parameter named ``kind``) instead.
_FIELD_SPACE = {"op": "op", "status": "status"}


class _Flow:
    """Produced and handled values of one protocol space."""

    def __init__(self) -> None:
        #: value -> [(FileContext, site node)], in collection order.
        self.produced: Dict[str, List[Tuple[object, ast.AST]]] = {}
        #: value -> [(FileContext, site node, strong)], in collection order.
        self.handled: Dict[str, List[Tuple[object, ast.AST, bool]]] = {}

    def produce(self, value: str, module, node: ast.AST) -> None:
        self.produced.setdefault(value, []).append((module, node))

    def handle(
        self, value: str, module, node: ast.AST, strong: bool
    ) -> None:
        self.handled.setdefault(value, []).append((module, node, strong))


def _unwrap_str(node: ast.AST) -> ast.AST:
    """Peel a ``str(...)`` coercion (``op = str(command.get("op"))``)."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "str"
        and len(node.args) == 1
        and not isinstance(node.args[0], ast.Starred)
    ):
        return node.args[0]
    return node


def _get_field(node: ast.AST) -> Optional[str]:
    """The literal field of ``x.get("op")`` or ``x["op"]``, or ``None``."""
    node = _unwrap_str(node)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ):
        return node.args[0].value
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, str)
    ):
        return node.slice.value
    return None


class _FunctionScan:
    """Per-function name bindings feeding the dispatch-arm classifier."""

    def __init__(self, func_node: ast.AST, nodes: List[ast.AST]) -> None:
        args = func_node.args
        params = [
            a.arg
            for a in args.posonlyargs + args.args + args.kwonlyargs
        ]
        self.payload_names: Set[str] = {
            p for p in params if p in _PAYLOAD_PARAMS
        }
        self.field_names: Dict[str, Set[str]] = {
            "kind": set(), "op": set(), "status": set(),
        }
        if "kind" in params:
            self.field_names["kind"].add("kind")
        for field, space in _FIELD_SPACE.items():
            # A parameter literally named after a dispatch field — the
            # ``def _dispatch(self, op, command)`` convention.
            if field in params:
                self.field_names[space].add(field)
        for node in nodes:
            if not isinstance(node, ast.Assign):
                continue
            value = _unwrap_str(node.value)
            space = self._value_space(value)
            if space is None:
                continue
            for target in node.targets:
                if space == "kind*unpack":
                    if isinstance(target, ast.Tuple) and target.elts:
                        first = target.elts[0]
                        if isinstance(first, ast.Name):
                            self.field_names["kind"].add(first.id)
                elif isinstance(target, ast.Name):
                    self.field_names[space].add(target.id)

    def _value_space(self, value: ast.AST) -> Optional[str]:
        """Which space an assigned value selects on, if any."""
        if self._is_payload_head(value):
            return "kind"
        if isinstance(value, ast.Name) and value.id in self.payload_names:
            return "kind*unpack"  # ``kind, x = payload``
        field = _get_field(value)
        if field is None and isinstance(value, ast.Attribute):
            field = value.attr
        if field in _FIELD_SPACE:
            return _FIELD_SPACE[field]
        return None

    def _is_payload_head(self, node: ast.AST) -> bool:
        """``payload[0]`` on a payload-named parameter."""
        if not isinstance(node, ast.Subscript):
            return False
        if not (
            isinstance(node.value, ast.Name)
            and node.value.id in self.payload_names
        ):
            return False
        index = node.slice
        return isinstance(index, ast.Constant) and index.value == 0

    def classify(self, node: ast.AST) -> Optional[Tuple[str, bool]]:
        """(space, strong) when *node* is a dispatch selector, else None."""
        node = _unwrap_str(node)
        if self._is_payload_head(node):
            return ("kind", True)
        if isinstance(node, ast.Name):
            for space, names in sorted(self.field_names.items()):
                if node.id in names:
                    return (space, True)
            if node.id in self.payload_names:
                return ("kind", False)  # whole-payload compare: weak
            return None
        if isinstance(node, ast.Attribute) and node.attr in _FIELD_SPACE:
            return (_FIELD_SPACE[node.attr], True)
        field = _get_field(node)
        if field in _FIELD_SPACE:
            return (_FIELD_SPACE[field], True)
        return None


@rule
class ProtocolFlowRule(Rule):
    """Match produced message kinds / ops / statuses against dispatch arms."""

    id = "protocol-flow"
    summary = (
        "every message kind and service op sent must have a dispatch arm, "
        "and every dispatch arm a producer (dead arms flagged)"
    )
    scope = ()  # the send/handle conventions are name-based, not package-based

    def check(self, model) -> Iterator[Finding]:
        # A send site and its dispatch arm never share a file, so this rule
        # judges the whole model at once instead of one file at a time.
        kinds, ops, statuses = self._collect(model)
        yield from self._missing_handlers(
            kinds, "message kind",
            "no dispatch arm anywhere compares a received kind against it; "
            "the message is sent and silently ignored",
        )
        yield from self._missing_handlers(
            ops, "service op",
            "no handler compares a request op against it; the command "
            "would be rejected or dropped by every replica",
        )
        yield from self._dead_arms(
            kinds, "message kind",
            "no component ever sends it — a dead dispatch arm (or a typo "
            "for a kind that is sent)",
        )
        yield from self._dead_arms(
            ops, "service op",
            "no client or test ever issues it — a dead handler arm (or a "
            "typo for an op that is issued)",
        )
        yield from self._dead_arms(
            statuses, "reply status",
            "the service never produces it — a dead client branch (or a "
            "typo for a status the service does produce)",
        )

    # ------------------------------------------------------------ collection
    def _collect(self, model) -> Tuple[_Flow, _Flow, _Flow]:
        kinds, ops, statuses = _Flow(), _Flow(), _Flow()
        for module in model.sorted_modules():
            self._collect_producers(model, module, kinds, ops, statuses)
            self._collect_handlers(model, module, kinds, ops, statuses)
        return kinds, ops, statuses

    def _collect_producers(
        self, model, module, kinds: _Flow, ops: _Flow, statuses: _Flow
    ) -> None:
        # The analyzer itself talks *about* op-keyed dicts (_FIELD_SPACE);
        # only protocol code builds them as commands.
        in_lint = module.module.startswith("repro.lint")
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Dict) and not in_lint:
                # A wire command being built: {"op": "partition", ...}.
                for key, value in zip(node.keys, node.values):
                    if isinstance(key, ast.Constant) and key.value == "op":
                        resolved = model.resolve_string(module, value)
                        if resolved is not None:
                            ops.produce(resolved, module, node)
                continue
            if not isinstance(node, ast.Call):
                continue
            name = call_func_name(node)
            if name in _PAYLOAD_ARG:
                payload = payload_expr(node, name)
                if payload is None:
                    continue
                expr = payload
                if isinstance(payload, ast.Tuple) and payload.elts:
                    expr = payload.elts[0]
                value = model.resolve_string(module, expr)
                if value is not None:
                    kinds.produce(value, module, node)
            elif name == "request" and isinstance(node.func, ast.Attribute):
                if node.args and not isinstance(node.args[0], ast.Starred):
                    value = model.resolve_string(module, node.args[0])
                    if value is not None:
                        ops.produce(value, module, node)
            elif name == "Request":
                for kw in node.keywords:
                    if kw.arg == "op":
                        value = model.resolve_string(module, kw.value)
                        if value is not None:
                            ops.produce(value, module, node)
            elif name == "Reply":
                for kw in node.keywords:
                    if kw.arg == "status":
                        value = model.resolve_string(module, kw.value)
                        if value is not None:
                            statuses.produce(value, module, node)

    def _collect_handlers(
        self, model, module, kinds: _Flow, ops: _Flow, statuses: _Flow
    ) -> None:
        flows = {"kind": kinds, "op": ops, "status": statuses}
        for qual in sorted(module.functions):
            func = module.functions[qual]
            nodes = own_nodes(func)
            scan = _FunctionScan(func, nodes)
            for node in nodes:
                if not isinstance(node, ast.Compare):
                    continue
                sides = [node.left] + list(node.comparators)
                for i, side in enumerate(sides):
                    kind = scan.classify(side)
                    if kind is None:
                        continue
                    space, strong = kind
                    for j, other in enumerate(sides):
                        if j == i:
                            continue
                        for value in self._string_values(
                            model, module, other
                        ):
                            flows[space].handle(
                                value, module, node, strong
                            )

    @staticmethod
    def _string_values(model, module, node: ast.AST) -> List[str]:
        """Strings *node* compares against (tuple membership unpacked)."""
        elts = (
            node.elts
            if isinstance(node, (ast.Tuple, ast.List, ast.Set))
            else [node]
        )
        out: List[str] = []
        for elt in elts:
            value = model.resolve_string(module, elt)
            if value is not None:
                out.append(value)
        return out

    # -------------------------------------------------------------- checking
    def _missing_handlers(
        self, flow: _Flow, label: str, consequence: str
    ) -> Iterator[Finding]:
        if not flow.handled:
            return  # no dispatch machinery in view: cannot judge
        for value in sorted(flow.produced):
            if value in flow.handled:
                continue
            sites = [
                (module, node)
                for module, node in flow.produced[value]
                if not module.reference
            ]
            if not sites:
                continue
            module, node = min(
                sites,
                key=lambda site: (
                    site[0].display_path,
                    getattr(site[1], "lineno", 1),
                    getattr(site[1], "col_offset", 0),
                ),
            )
            yield self.finding(
                module, node,
                f"{label} {value!r} is produced here but {consequence}",
            )

    def _dead_arms(
        self, flow: _Flow, label: str, consequence: str
    ) -> Iterator[Finding]:
        if not flow.produced:
            return  # no producers in view: cannot judge
        for value in sorted(flow.handled):
            if value in flow.produced:
                continue
            seen: Set[int] = set()
            sites = []
            for module, node, strong in flow.handled[value]:
                if not strong or module.reference or id(node) in seen:
                    continue
                seen.add(id(node))
                sites.append((module, node))
            sites.sort(
                key=lambda site: (
                    site[0].display_path,
                    getattr(site[1], "lineno", 1),
                    getattr(site[1], "col_offset", 0),
                ),
            )
            for module, node in sites:
                yield self.finding(
                    module, node,
                    f"{label} {value!r} is compared against here but "
                    f"{consequence}",
                    severity="warning",
                )
