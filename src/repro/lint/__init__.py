"""repro.lint — AST-based determinism & protocol-safety analyzer.

The paper's guarantees are only *checkable* in this repro because runs are
bit-for-bit deterministic; this package enforces the coding contracts that
keep them so, statically, on every PR:

* **determinism rules** for the simulator-path packages (no wall-clock
  reads, no global randomness, no hash-order iteration into sends, no
  id()-based ordering) — :mod:`repro.lint.rules.determinism`;
* **asyncio-hazard rules** for :mod:`repro.net` (no blocking calls in
  coroutines, no unawaited coroutines, no dropped task references, no
  swallowed exceptions) — :mod:`repro.lint.rules.asyncio_hazards`;
* a **payload-encodability rule** type-checking ``send(...)`` payloads
  against the wire codec — :mod:`repro.lint.rules.payload`;
* the **record-site rules** checking every ``trace.record(...)`` /
  ``self.trace(...)`` call site against the :mod:`repro.obs` event-schema
  registry and every ``metrics.inc/set/observe/bind(...)`` against the metric
  registry — :mod:`repro.lint.rules.records`;
* the **protocol-flow rule** matching every message kind, service op and
  reply status produced anywhere in the program against the dispatch arms
  that handle it — :mod:`repro.lint.rules.protocol`.

Every rule runs in one pass over one :class:`~repro.lint.model.ProjectModel`
(all parsed files, import aliases and string constants resolved across
modules).

Run it as ``python -m repro lint`` or ``repro-lint``; suppress a single
finding with ``# lint: ignore[rule-id]``.  See ``docs/lint.md``.
"""

from .engine import LintResult, lint_paths
from .findings import Finding
from .model import FileContext
from .registry import Rule, all_rules, resolve_rules, rule

__all__ = [
    "FileContext",
    "Finding",
    "LintResult",
    "Rule",
    "all_rules",
    "lint_paths",
    "resolve_rules",
    "rule",
]
