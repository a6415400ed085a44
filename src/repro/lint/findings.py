"""The :class:`Finding` record every rule emits.

A finding pins one defect to one source location.  Findings are plain data:
the engine collects them, the suppression layer filters them, and the
reporters (:mod:`repro.lint.reporting`) render them as text, JSON, or
SARIF.  Rules never print — they only yield findings — so the same rule
code serves the CLI, the CI job, and the test suite identically.

One classification field rides along with the location: ``severity`` —
``"error"`` (a contract violation; fails the build) or ``"warning"``
(suspicious but survivable, e.g. a dead protocol arm); both count toward
the exit code, but reporters and the SARIF mapping distinguish them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["Finding", "SEVERITIES"]

#: The allowed ``severity`` values, most severe first.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Ordering is (path, line, col, rule) so reports read top-to-bottom per
    file regardless of which rule found what first; the trailing fields
    participate only as deterministic tie-breakers.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = field(default="error")

    def render(self) -> str:
        """The canonical one-line textual form (compiler-style)."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule}: {self.severity}: {self.message}"
        )

    def to_json(self) -> Dict[str, Any]:
        """A JSON-safe dict (used by the ``--format json`` reporter)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "severity": self.severity,
        }
