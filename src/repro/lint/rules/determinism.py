"""Determinism rules for the simulation-path packages.

The repo's correctness story rests on bit-for-bit deterministic runs: the
property checkers compare traces, the sim<->net parity tests compare whole
executions, and the paper's claims (strong completeness of ◇C, the Fig. 2
◇C→◇P transformation, one-round-after-stability consensus) are asserted on
replayed schedules.  Anything that injects ambient state — wall-clock time,
the process-global RNG, memory addresses, hash-order iteration — silently
breaks replay.  These rules ban the known offenders from the packages whose
code runs (also) under the simulator:

``repro.sim``, ``repro.fd``, ``repro.consensus``, ``repro.transform``,
``repro.broadcast``, ``repro.workloads``.

:mod:`repro.net` is deliberately out of scope for the clock rules (hosting
stacks on wall time is its job) but shares the RNG and ordering rules via
the fixture-tested conventions in :mod:`repro.lint.rules.asyncio_hazards`.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from ..astutil import call_func_name, dotted_name
from ..findings import Finding
from ..registry import Rule, rule

__all__ = [
    "WallClockRule",
    "GlobalRandomRule",
    "UnorderedIterationRule",
    "IdOrderingRule",
]

#: Packages whose code must stay deterministic under the simulator.
#: ``repro.scenario``'s document and generator are here: same seed must
#: mean a byte-identical schedule, so wall clocks and the global rng are
#: out (its runner drives wall-clock clusters on purpose and is not).
SIM_SCOPE = (
    "repro.sim",
    "repro.fd",
    "repro.consensus",
    "repro.transform",
    "repro.broadcast",
    "repro.workloads",
    "repro.scenario.events",
    "repro.scenario.generator",
)

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
}

_GLOBAL_RANDOM_CALLS = {
    f"random.{fn}"
    for fn in (
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "expovariate",
        "betavariate", "triangular", "vonmisesvariate", "paretovariate",
        "lognormvariate", "weibullvariate", "getrandbits", "randbytes",
        "seed", "binomialvariate",
    )
}
_ENTROPY_CALLS = {
    "uuid.uuid1",
    "uuid.uuid4",
    "os.urandom",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.choice",
    "secrets.randbelow",
    "secrets.randbits",
    "random.SystemRandom",
}


@rule
class WallClockRule(Rule):
    """Ban ambient clocks from simulator-path code."""

    id = "wall-clock"
    summary = (
        "no wall-clock reads (time.time, datetime.now, ...) in sim-path "
        "code; use self.now / the injected scheduler clock"
    )
    scope = SIM_SCOPE

    def check_file(self, ctx, model) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in _WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx, node,
                    f"wall-clock read {name}() breaks deterministic replay; "
                    "read time via self.now / world.scheduler.now",
                )


@rule
class GlobalRandomRule(Rule):
    """Ban the process-global / OS-entropy randomness sources."""

    id = "global-random"
    summary = (
        "no module-level random/uuid4/os.urandom in sim-path code; draw "
        "from the injected random.Random stream (self.rng)"
    )
    scope = SIM_SCOPE

    def check_file(self, ctx, model) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name in _GLOBAL_RANDOM_CALLS or name in _ENTROPY_CALLS:
                yield self.finding(
                    ctx, node,
                    f"{name}() draws from unseeded global/OS entropy; use "
                    "the injected random.Random stream (self.rng / "
                    "world.rng.stream(...))",
                )
            elif name == "random.Random" and not node.args and not node.keywords:
                yield self.finding(
                    ctx, node,
                    "random.Random() with no seed is seeded from OS "
                    "entropy; pass an explicit seed derived from the run's "
                    "master seed",
                )


#: Calls that put an iteration's order on the wire or into the schedule.
_ORDER_SINKS = {
    "send", "send_self", "broadcast", "rbroadcast", "urbroadcast",
    "schedule", "schedule_at", "set_timer", "periodically", "spawn",
    "record", "trace", "propose", "submit",
}
#: Call targets whose result does not depend on argument order.
_ORDER_INSENSITIVE = {
    "sorted", "set", "frozenset", "sum", "len", "min", "max", "any", "all",
    "Counter",
}


def _known_set_attrs(tree: ast.Module) -> Set[str]:
    """Names of ``self.<attr>`` ever assigned a set-typed value anywhere in
    the module (cheap class-attribute type inference)."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        targets = []
        value = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None or not _is_set_literal(value):
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                names.add(target.attr)
    return names


def _is_set_literal(node: ast.AST) -> bool:
    """Syntactically certain set constructors (no dataflow needed)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class _SetTracker:
    """Per-file set-typed expression classifier (purely syntactic plus the
    two cheap inferences that pay for themselves: ``self.<attr>`` assigned a
    set anywhere in the file, and local names assigned a set in the same
    function)."""

    def __init__(self, tree: ast.Module) -> None:
        self.set_attrs = _known_set_attrs(tree)
        self.local_sets: Set[str] = set()

    def reset_locals(self) -> None:
        self.local_sets = set()

    def note_assignment(self, node: ast.Assign) -> None:
        if not _is_set_literal(node.value) and not self.is_set_expr(node.value):
            return
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.local_sets.add(target.id)

    def is_set_expr(self, node: ast.AST) -> bool:
        if _is_set_literal(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.local_sets
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr in self.set_attrs
        if isinstance(node, ast.Call):
            name = call_func_name(node)
            if name == "keys" and isinstance(node.func, ast.Attribute):
                return True  # dict.keys(): insertion order = arrival order
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        return False


@rule
class UnorderedIterationRule(Rule):
    """Ban hash-ordered iteration from feeding sends, timers, or traces."""

    id = "unordered-iter"
    summary = (
        "no iterating a bare set/frozenset/dict.keys() into sends, "
        "scheduling, or ordered collections; wrap the iterable in sorted()"
    )
    scope = SIM_SCOPE

    def check_file(self, ctx, model) -> Iterator[Finding]:
        tracker = _SetTracker(ctx.tree)
        # Walk function-by-function so local-name tracking stays scoped.
        funcs = [
            n for n in ast.walk(ctx.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        module_level = ast.Module(body=ctx.tree.body, type_ignores=[])
        for scope_node in [module_level] + funcs:
            tracker.reset_locals()
            yield from self._check_scope(ctx, scope_node, tracker)

    def _check_scope(self, ctx, scope_node, tracker) -> Iterator[Finding]:
        own_nodes = list(self._walk_scope(scope_node))
        # First pass: learn local set-typed names (assignment order is
        # source order, good enough for straight-line protocol code).
        for node in own_nodes:
            if isinstance(node, ast.Assign):
                tracker.note_assignment(node)
        for node in own_nodes:
            if isinstance(node, ast.For) and tracker.is_set_expr(node.iter):
                sink = self._order_sink_in(node.body + node.orelse)
                if sink is not None:
                    yield self.finding(
                        ctx, node,
                        "iterating an unordered set here feeds "
                        f"{sink}(...); iteration order varies between "
                        "runs — wrap the iterable in sorted(...)",
                    )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                gen = node.generators[0]
                if tracker.is_set_expr(gen.iter) and self._orders_escape(
                    ctx, node
                ):
                    yield self.finding(
                        ctx, node,
                        "this comprehension materializes a set's hash "
                        "order into an ordered value; wrap the source in "
                        "sorted(...) or keep the result unordered",
                    )
            elif (
                isinstance(node, ast.Call)
                and call_func_name(node) in ("list", "tuple")
                and len(node.args) == 1
                and tracker.is_set_expr(node.args[0])
                and self._orders_escape(ctx, node)
            ):
                yield self.finding(
                    ctx, node,
                    f"{call_func_name(node)}() over an unordered set "
                    "freezes hash order; use sorted(...) instead",
                )

    @staticmethod
    def _walk_scope(scope_node) -> Iterator[ast.AST]:
        """Walk *scope_node* without descending into nested functions or
        classes (they are visited as their own scopes)."""
        stack = list(
            scope_node.body
            if isinstance(scope_node, ast.Module)
            else scope_node.body + getattr(scope_node, "orelse", [])
        )
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _order_sink_in(body) -> Optional[str]:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    name = call_func_name(node)
                    if name in _ORDER_SINKS:
                        return name
        return None

    def _orders_escape(self, ctx, node: ast.AST) -> bool:
        """Whether the ordered value built by *node* can matter: it is not
        consumed by an order-insensitive sink like sorted()/sum()."""
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.Call):
                name = call_func_name(ancestor)
                if name in _ORDER_INSENSITIVE:
                    return False
                return True  # any other call: assume the order escapes
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
        return True


@rule
class IdOrderingRule(Rule):
    """Ban ordering by id() — memory addresses differ between runs."""

    id = "id-ordering"
    summary = "no sorting/keying by id(); memory addresses are not stable"
    scope = SIM_SCOPE

    def check_file(self, ctx, model) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if call_func_name(node) not in ("sorted", "min", "max", "sort"):
                continue
            for kw in node.keywords:
                if kw.arg != "key":
                    continue
                if self._uses_id(kw.value):
                    yield self.finding(
                        ctx, node,
                        "ordering by id() depends on memory layout and "
                        "differs between runs; key on a stable field "
                        "(pid, round, name) instead",
                    )

    @staticmethod
    def _uses_id(key: ast.AST) -> bool:
        if isinstance(key, ast.Name) and key.id == "id":
            return True
        if isinstance(key, ast.Lambda):
            return any(
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name)
                and n.func.id == "id"
                for n in ast.walk(key.body)
            )
        return False
