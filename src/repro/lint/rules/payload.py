"""Payload-encodability rule.

Protocol payloads must survive the wire codec
(:mod:`repro.net.codec`): the tagged-JSON transform round-trips ``None``,
``bool``, ``int``, ``float``, ``str``, ``list``, ``tuple``, ``dict``,
``set``, ``frozenset``, and the ``NULL`` estimate sentinel — and nothing
else.  In the simulator, payloads travel by reference, so an unencodable
payload (a ``bytes`` blob, a lambda, an arbitrary object) works fine until
the same component runs on :mod:`repro.net`, where it raises a
``CodecError`` at send time.  This rule moves that failure from the first
live run to the lint step.

The check is best-effort and one-sided: it walks each ``send(...)`` /
``broadcast(...)`` payload *expression* and reports only values that are
**provably** unencodable (literals and constructors of unsupported types,
possibly nested inside supported containers).  Names, attribute loads, and
unknown call results pass — the codec's own tests guard the dynamic cases.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from ..astutil import ImportMap, call_func_name, dotted_name
from ..findings import Finding
from ..registry import Rule, rule

__all__ = ["PayloadEncodabilityRule", "payload_expr"]

#: Component-level messaging calls: name -> index of the payload argument.
_PAYLOAD_ARG = {
    "send": 1,        # Component.send(dst, payload, ...)
    "send_self": 0,
    "broadcast": 0,
    "rbroadcast": 0,
    "urbroadcast": 0,
}

#: Constructor calls that produce codec-supported values.
_SAFE_CONSTRUCTORS = {
    "set", "frozenset", "dict", "tuple", "list", "str", "int", "float",
    "bool", "sorted", "repr", "format", "len", "sum", "min", "max", "abs",
    "round",
}
#: Constructor calls that provably produce unencodable values.
_BAD_CONSTRUCTORS = {
    "bytes": "bytes",
    "bytearray": "bytearray",
    "memoryview": "memoryview",
    "object": "object",
    "complex": "complex",
    "open": "file object",
    "iter": "iterator",
    "range": "range",
    "lambda": "function",
}

#: Canonical dotted constructors that produce unencodable values — matched
#: after resolving the call through the module's import aliases, so
#: ``from pathlib import Path as P; send(dst, P("x"))`` is caught exactly
#: like a spelled-out ``pathlib.Path("x")``.
_BAD_CANONICAL = {
    "io.BytesIO": "an io.BytesIO",
    "io.StringIO": "an io.StringIO",
    "pathlib.Path": "a pathlib.Path",
    "pathlib.PurePath": "a pathlib.PurePath",
    "pathlib.PosixPath": "a pathlib.PosixPath",
    "datetime.datetime": "a datetime.datetime",
    "datetime.date": "a datetime.date",
    "datetime.time": "a datetime.time",
    "datetime.timedelta": "a datetime.timedelta",
    "re.compile": "a compiled re.Pattern",
    "collections.deque": "a collections.deque",
    "threading.Lock": "a threading.Lock",
    "threading.Event": "a threading.Event",
    "asyncio.Lock": "an asyncio.Lock",
    "asyncio.Event": "an asyncio.Event",
    "asyncio.Queue": "an asyncio.Queue",
}


def payload_expr(call: ast.Call, name: str) -> Optional[ast.AST]:
    """The payload expression of a messaging call, or ``None``.

    Shared with the ``protocol-flow`` rule, which needs the same argument
    extraction to find message-kind producers.
    """
    for kw in call.keywords:
        if kw.arg == "payload":
            return kw.value
    index = _PAYLOAD_ARG[name]
    if len(call.args) > index:
        arg = call.args[index]
        if isinstance(arg, ast.Starred):
            return None
        return arg
    return None


@rule
class PayloadEncodabilityRule(Rule):
    """Best-effort type check of every messaging payload expression."""

    id = "payload-encodability"
    summary = (
        "send/broadcast payloads must be codec-encodable (JSON scalars, "
        "list/tuple/dict/set/frozenset, NULL); bytes, lambdas, and "
        "arbitrary objects fail on the wire"
    )
    # Component code lives in these packages; repro.net and repro.sim are
    # excluded because their `send` methods move already-encoded frames and
    # envelope internals, not protocol payloads.  repro.svc submits client
    # commands into the replicated log, so its payloads ride the codec too.
    scope = (
        "repro.fd", "repro.consensus", "repro.transform", "repro.broadcast",
        "repro.svc", "repro.load",
    )

    def check_file(self, ctx, model) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_func_name(node)
            if name not in _PAYLOAD_ARG:
                continue
            payload = payload_expr(node, name)
            if payload is None:
                continue
            verdict = self._verdict(payload, ctx.imports)
            if verdict is not None:
                reason, offender = verdict
                yield self.finding(
                    ctx, offender,
                    f"payload contains {reason}, which the wire codec "
                    "cannot encode (supported: JSON scalars, list/tuple/"
                    "dict/set/frozenset, NULL); encode it explicitly "
                    "before sending",
                )

    def _verdict(
        self, node: ast.AST, imports: ImportMap
    ) -> Optional[Tuple[str, ast.AST]]:
        """``(reason, offending node)`` when *node* is provably
        unencodable, else ``None`` (encodable or unknown)."""
        if isinstance(node, ast.Constant):
            value = node.value
            if isinstance(value, bytes):
                return "a bytes literal", node
            if isinstance(value, complex):
                return "a complex literal", node
            if value is Ellipsis:
                return "Ellipsis", node
            return None  # str/int/float/bool/None
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                bad = self._verdict(elt, imports)
                if bad is not None:
                    return bad
            return None
        if isinstance(node, ast.Dict):
            for part in list(node.keys) + list(node.values):
                if part is None:
                    continue  # **splat key
                bad = self._verdict(part, imports)
                if bad is not None:
                    return bad
            return None
        if isinstance(node, ast.Lambda):
            return "a lambda", node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return "a function", node
        if isinstance(node, ast.Call):
            name = call_func_name(node)
            if name in _BAD_CONSTRUCTORS:
                return f"a {_BAD_CONSTRUCTORS[name]}", node
            canonical = imports.resolve(dotted_name(node.func))
            if canonical in _BAD_CANONICAL:
                return _BAD_CANONICAL[canonical], node
            if name in _SAFE_CONSTRUCTORS:
                for arg in node.args:
                    if isinstance(arg, ast.Starred):
                        continue
                    bad = self._verdict(arg, imports)
                    if bad is not None:
                        return bad
            return None  # unknown call result: give it the benefit of doubt
        if isinstance(node, (ast.JoinedStr, ast.FormattedValue)):
            return None  # f-strings are str
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            return None  # element types unknown
        return None  # names, attributes, operators: unknown -> pass
