"""The rule base class and the rule registry.

A **rule** is a small object with an ``id``, a one-line ``summary``, a
package ``scope``, and a ``check(model)`` generator yielding
:class:`~repro.lint.findings.Finding` objects over the
:class:`~repro.lint.model.ProjectModel` of one lint run.  Most rules judge
one file at a time: they leave ``check`` alone and implement
``check_file(ctx, model)``, which the default ``check`` calls for every
in-scope target file.  A rule that needs the whole program at once
(``protocol-flow``) overrides ``check`` itself.

Rules register themselves with the :func:`rule` class decorator at import
time; :mod:`repro.lint.rules` imports every rule module, so importing that
package populates the registry.

Scoping: each rule names the ``repro`` sub-packages it guards (e.g. the
determinism rules guard the simulation-path packages but not
:mod:`repro.net`, whose whole point is wall-clock time).  Files that are
*not* part of the ``repro`` package — the fixture corpus, user code — get
every rule: outside the library we cannot know which contract a file is
under, and over-reporting beats silence.
"""

from __future__ import annotations

import ast
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type,
)

from ..errors import ConfigurationError
from .findings import Finding

__all__ = ["Rule", "rule", "all_rules", "resolve_rules"]


class Rule:
    """Base class for every lint rule (see module docstring)."""

    #: Stable kebab-case identifier, used in reports and suppressions.
    id: str = ""
    #: One-line description shown by ``repro lint --rules``.
    summary: str = ""
    #: ``repro`` package prefixes this rule guards; empty = every file.
    scope: Tuple[str, ...] = ()

    def applies_to(self, module: str) -> bool:
        """Whether this rule guards *module* (a dotted module name)."""
        if not self.scope or not (
            module == "repro" or module.startswith("repro.")
        ):
            return True
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.scope
        )

    def check(self, model) -> Iterator[Finding]:  # noqa: ANN001
        """Yield findings for one lint run."""
        for ctx in model.targets:
            if self.applies_to(ctx.module):
                yield from self.check_file(ctx, model)

    def check_file(self, ctx, model) -> Iterator[Finding]:  # noqa: ANN001
        """Yield findings for one in-scope target file."""
        raise NotImplementedError

    # ------------------------------------------------------------- helpers
    def finding(
        self, ctx, node: ast.AST, message: str, severity: str = "error"
    ) -> Finding:
        """Build a finding for *node* inside *ctx*, attributed to this
        rule.  *ctx* must be a target file: reference-corpus files never
        receive findings."""
        return Finding(
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
            severity=severity,
        )


#: id -> rule class, in registration order.
_REGISTRY: Dict[str, Type[Rule]] = {}


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: register a rule under its ``id``."""
    if not cls.id:
        raise ConfigurationError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ConfigurationError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every rule, in registration order."""
    from . import rules  # noqa: F401 - importing registers the rules

    return [cls() for cls in _REGISTRY.values()]


def resolve_rules(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Rule]:
    """The active rule set after ``--select``/``--ignore``.

    Unknown rule ids are configuration errors (exit code 2), not silent
    no-ops — a typo in a CI invocation must fail loudly.
    """
    rules = all_rules()
    known = {r.id for r in rules}
    for name in list(select or []) + list(ignore or []):
        if name not in known:
            raise ConfigurationError(
                f"unknown lint rule {name!r}; known rules: "
                + ", ".join(sorted(known))
            )
    if select:
        rules = [r for r in rules if r.id in set(select)]
    if ignore:
        rules = [r for r in rules if r.id not in set(ignore)]
    return rules


def iter_rule_docs() -> Iterable[Tuple[str, str, Tuple[str, ...]]]:
    """(id, summary, scope) tuples for ``--rules`` listings."""
    for r in all_rules():
        yield r.id, r.summary, r.scope
