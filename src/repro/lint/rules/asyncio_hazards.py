"""Asyncio-hazard rules for the live runtime (:mod:`repro.net`).

The runtime hosts the same protocol stacks as the simulator on a real event
loop, so the classic asyncio footguns translate directly into protocol
failures: a blocking call in a coroutine stalls every node sharing the
loop (heartbeats stop, detectors false-suspect the whole cluster); an
unawaited coroutine silently does nothing; a task created without keeping a
reference can be garbage-collected mid-flight and its exception vanishes;
a broad ``except Exception: pass`` swallows transport errors that the
fault-injection tests rely on surfacing as counters.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..astutil import call_func_name, dotted_name
from ..findings import Finding
from ..registry import Rule, rule

__all__ = [
    "BlockingCallRule",
    "UnawaitedCoroutineRule",
    "DroppedTaskRule",
    "SwallowedExceptionRule",
]

# Every package hosting event-loop code: the transports, the in-process
# cluster runtime, the multi-process node/launcher pair, the KV
# service (frontend + client) with its load generator, the scenario
# runner (async fault-schedule driver), and the live telemetry plane
# (streaming shipper + collector).  The trace-schema and
# metrics-registry rules are already global (scope = ()), so the new
# obs modules fall under them automatically.
NET_SCOPE = (
    "repro.net", "repro.cluster", "repro.proc", "repro.svc", "repro.load",
    "repro.scenario", "repro.obs.live", "repro.obs.spans",
)

_BLOCKING_CALLS = {
    "time.sleep",
    "socket.create_connection",
    "socket.getaddrinfo",
    "socket.gethostbyname",
    "socket.gethostbyaddr",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "os.system",
    "os.waitpid",
    "urllib.request.urlopen",
    "requests.get",
    "requests.post",
    "requests.put",
    "requests.request",
}
_BLOCKING_NAMES = {"input"}

#: asyncio coroutine functions that are no-ops unless awaited.
_KNOWN_COROUTINES = {
    "asyncio.sleep",
    "asyncio.wait_for",
    "asyncio.gather",
    "asyncio.wait",
    "asyncio.open_connection",
    "asyncio.start_server",
}

_TASK_SPAWNERS = ("create_task", "ensure_future")


def _async_contexts(tree: ast.Module):
    """Yield every ``async def`` in *tree*."""
    for node in ast.walk(tree):
        if isinstance(node, ast.AsyncFunctionDef):
            yield node


def _walk_async_body(func: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Walk *func*'s body without descending into nested (sync) defs,
    whose bodies run outside the coroutine."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


@rule
class BlockingCallRule(Rule):
    """Ban synchronous blocking calls inside ``async def``."""

    id = "blocking-call"
    summary = (
        "no time.sleep / sync socket / subprocess calls inside async def; "
        "they stall every node sharing the event loop"
    )
    scope = NET_SCOPE

    def check_file(self, ctx, model) -> Iterator[Finding]:
        for func in _async_contexts(ctx.tree):
            for node in _walk_async_body(func):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name in _BLOCKING_CALLS or (
                    isinstance(node.func, ast.Name)
                    and node.func.id in _BLOCKING_NAMES
                ):
                    label = name or call_func_name(node)
                    yield self.finding(
                        ctx, node,
                        f"blocking call {label}() inside async def "
                        f"{func.name!r} stalls the whole event loop; use "
                        "the asyncio equivalent (e.g. await asyncio.sleep)",
                    )


@rule
class UnawaitedCoroutineRule(Rule):
    """Flag coroutine calls whose result is discarded without await."""

    id = "unawaited-coroutine"
    summary = (
        "a coroutine call used as a bare statement never runs; await it "
        "or hand it to create_task"
    )
    scope = NET_SCOPE

    def check_file(self, ctx, model) -> Iterator[Finding]:
        # Receiver-aware matching: a bare `close()` name collides with sync
        # methods of other objects (StreamWriter.close, Server.close), so
        # only `self.X()` inside X's own class, module-level `X()`, and the
        # known asyncio coroutines are confident matches.
        module_async: Set[str] = {
            f.name for f in ctx.tree.body if isinstance(f, ast.AsyncFunctionDef)
        }
        class_async = {
            cls: {
                f.name for f in cls.body if isinstance(f, ast.AsyncFunctionDef)
            }
            for cls in ast.walk(ctx.tree)
            if isinstance(cls, ast.ClassDef)
        }
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Expr):
                continue
            call = node.value
            if not isinstance(call, ast.Call):
                continue
            name = dotted_name(call.func)
            tail = call_func_name(call)
            if name in _KNOWN_COROUTINES:
                matched = True
            elif isinstance(call.func, ast.Name):
                matched = tail in module_async
            elif name is not None and name.startswith("self."):
                cls = self._enclosing_class(ctx, node)
                matched = (
                    name.count(".") == 1
                    and cls is not None
                    and tail in class_async.get(cls, set())
                )
            else:
                matched = False
            if matched:
                yield self.finding(
                    ctx, call,
                    f"coroutine {tail}(...) is neither awaited nor "
                    "scheduled; the call builds a coroutine object and "
                    "drops it — nothing runs",
                )

    @staticmethod
    def _enclosing_class(ctx, node: ast.AST):
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None


@rule
class DroppedTaskRule(Rule):
    """Flag fire-and-forget tasks created without keeping a reference."""

    id = "dropped-task"
    summary = (
        "create_task/ensure_future without storing the returned task; the "
        "event loop holds only a weak reference, so the task can be "
        "garbage-collected mid-flight and its exception lost"
    )
    scope = NET_SCOPE

    def check_file(self, ctx, model) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Expr):
                continue
            call = node.value
            if isinstance(call, ast.Await):
                continue
            if not isinstance(call, ast.Call):
                continue
            if call_func_name(call) in _TASK_SPAWNERS:
                yield self.finding(
                    ctx, call,
                    f"{call_func_name(call)}(...) result is dropped; keep "
                    "the task reference (and reap its exception) or the "
                    "task may be collected mid-flight",
                )


@rule
class SwallowedExceptionRule(Rule):
    """Ban bare/broad exception handlers that silently discard errors."""

    id = "swallowed-exception"
    summary = (
        "no bare except / except Exception with a pass-only body; name "
        "the exceptions or record the failure (counter, trace, log)"
    )
    scope = NET_SCOPE

    def check_file(self, ctx, model) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._body_discards(node.body):
                caught = "bare except" if node.type is None else (
                    "except " + (dotted_name(node.type) or "Exception")
                )
                yield self.finding(
                    ctx, node,
                    f"{caught} with a pass-only body swallows transport "
                    "errors; catch the specific exceptions or record the "
                    "failure before continuing",
                )

    @staticmethod
    def _is_broad(handler_type) -> bool:
        if handler_type is None:
            return True  # bare except:
        names = (
            handler_type.elts
            if isinstance(handler_type, ast.Tuple)
            else [handler_type]
        )
        for name in names:
            if dotted_name(name) in ("Exception", "BaseException"):
                return True
        return False

    @staticmethod
    def _body_discards(body) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue  # docstring or ellipsis
            return False
        return True
