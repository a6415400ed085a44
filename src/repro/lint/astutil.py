"""Small AST helpers shared by the rule visitors.

Besides the name-rendering helpers, this module owns the one piece of
resolution machinery both the rules and the project model need:
:class:`ImportMap`, which maps every locally bound import alias back to
the canonical dotted path it names.  ``from repro.obs import events as
ev`` binds ``ev`` -> ``repro.obs.events``, so a rule matching on receiver
names can judge ``ev.record(...)`` exactly as it judges
``repro.obs.events.record(...)`` — closing the aliased-import loophole the
purely syntactic matchers had.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional

__all__ = [
    "dotted_name",
    "call_func_name",
    "ImportMap",
]


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render an attribute/name chain as ``a.b.c``, or ``None``.

    ``time.time`` -> "time.time"; ``self.world.network.send`` ->
    "self.world.network.send"; anything with a non-name base (a call, a
    subscript) keeps the resolvable tail: ``foo().bar`` -> None-based, so
    returns ``None`` — rules that care about tails use
    :func:`call_func_name` instead.
    """
    parts = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def call_func_name(call: ast.Call) -> Optional[str]:
    """The final name of a call target: ``x.y.send(...)`` -> "send",
    ``sorted(...)`` -> "sorted", ``foo()()`` -> ``None``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class ImportMap:
    """Alias -> canonical dotted path for every import bound in one module.

    The map is built from *every* ``import`` / ``from ... import``
    statement in the tree (function-local imports included — this codebase
    uses them to break cycles), so resolution sees the same bindings the
    interpreter would.  Relative imports are anchored on *package*, the
    dotted package the module lives in ("" when unknown, in which case
    relative targets stay unresolved rather than guessing).
    """

    def __init__(self, tree: ast.AST, package: str = "") -> None:
        self.package = package
        #: locally bound name -> canonical dotted path.
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        self.aliases[alias.asname] = alias.name
                    else:
                        # ``import a.b`` binds ``a``; attribute chains
                        # starting at ``a`` already spell the real path.
                        root = alias.name.split(".", 1)[0]
                        self.aliases.setdefault(root, root)
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    target = f"{base}.{alias.name}" if base else alias.name
                    self.aliases[bound] = target

    def _resolve_base(self, node: ast.ImportFrom) -> Optional[str]:
        """The absolute dotted module a ``from``-import pulls from."""
        if node.level == 0:
            return node.module
        if not self.package:
            return None  # relative import with no package anchor
        parts = self.package.split(".")
        # level 1 = the module's own package; each extra level climbs one.
        climb = node.level - 1
        if climb > len(parts):
            return None
        base_parts = parts[: len(parts) - climb]
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts)

    def resolve(self, dotted: Optional[str]) -> Optional[str]:
        """Rewrite the leading alias of *dotted* to its canonical path.

        ``ev.record`` -> ``repro.obs.events.record`` under ``from
        repro.obs import events as ev``; names with no import binding come
        back unchanged (they may be locals or builtins — the caller
        decides).
        """
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        target = self.aliases.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target
