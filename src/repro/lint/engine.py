"""The lint engine: walk files, parse, run rules, apply suppressions.

The engine owns everything rule-independent: discovering Python files under
the given paths, parsing each into a
:class:`~repro.lint.model.FileContext`, building the
:class:`~repro.lint.model.ProjectModel` once, running every selected rule
over it, and filtering findings through the suppression comments.  Rules
stay tiny visitors over prepared data.

When the target set includes the ``repro`` package itself, the
repository's ``tests/``, ``benchmarks/``, and ``examples/`` trees are
parsed as a *reference corpus*: their message sends feed the model (so an
op only tests exercise is not a dead arm) but findings are never
attributed to them.

Determinism note — the linter holds itself to the contract it enforces:
file discovery is sorted, rules run in registration order, the project
model iterates modules in sorted order, and findings are reported in
(path, line, col, rule) order, so two runs over the same tree produce
byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from ..errors import ConfigurationError
from .findings import Finding
from .model import FileContext, ProjectModel, parse_file
from .registry import resolve_rules

__all__ = ["LintResult", "lint_paths", "default_target"]


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding]
    files_checked: int

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def exit_code(self) -> int:
        """0 = clean, 1 = findings (2, config errors, is raised not returned)."""
        return 0 if self.clean else 1


def default_target() -> Path:
    """The installed :mod:`repro` package directory — what ``repro lint``
    checks when no paths are given, so self-linting works from any cwd."""
    return Path(__file__).resolve().parent.parent


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Every ``.py`` file under *paths*, sorted for deterministic output."""
    out: List[Path] = []
    for path in paths:
        if path.is_dir():
            out.extend(sorted(p for p in path.rglob("*.py") if p.is_file()))
        elif path.is_file():
            out.append(path)
        else:
            raise ConfigurationError(f"no such file or directory: {path}")
    seen = set()
    unique: List[Path] = []
    for path in out:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def _repo_root(start: Path) -> Optional[Path]:
    """Nearest ancestor of *start* holding a ``pyproject.toml``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in [current, *current.parents]:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


#: Repository trees parsed as the reference corpus (never targets).
_REFERENCE_TREES = ("tests", "benchmarks", "examples")


def _reference_contexts(
    target_contexts: Sequence[FileContext],
) -> List[FileContext]:
    """The reference corpus (see module docstring).

    Only engaged when the target set includes the ``repro`` package:
    fixture corpora and user trees stay self-contained, so their findings
    do not depend on this repository's tests.
    """
    if not any(
        ctx.module == "repro" or ctx.module.startswith("repro.")
        for ctx in target_contexts
    ):
        return []
    root = _repo_root(default_target())
    if root is None:
        return []
    taken = {ctx.path.resolve() for ctx in target_contexts}
    out: List[FileContext] = []
    for tree_name in _REFERENCE_TREES:
        directory = root / tree_name
        if not directory.is_dir():
            continue
        for path in sorted(directory.rglob("*.py")):
            if not path.is_file() or path.resolve() in taken:
                continue
            if "fixtures" in path.parts:
                continue  # synthetic lint corpora: not real usage evidence
            try:
                ctx, _syntax = parse_file(path, reference=True)
            except ConfigurationError:
                continue  # unreadable reference file: skip, never fail
            if ctx is not None:
                out.append(ctx)
    return out


def lint_paths(
    paths: Optional[Sequence[Path]] = None,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> LintResult:
    """Lint every Python file under *paths* (default: the repro package).

    Raises :class:`~repro.errors.ConfigurationError` for unknown rules or
    unreadable paths — the CLI maps that to exit code 2, findings to 1.
    """
    rules = resolve_rules(select=select, ignore=ignore)
    targets = [Path(p) for p in paths] if paths else [default_target()]
    files = iter_python_files(targets)
    findings: List[Finding] = []
    contexts: List[FileContext] = []
    for path in files:
        ctx, parse_findings = parse_file(path)
        findings.extend(parse_findings)
        if ctx is not None:
            contexts.append(ctx)
    model = ProjectModel(contexts + _reference_contexts(contexts))
    suppressions = {ctx.display_path: ctx.suppressions for ctx in contexts}
    for rule in rules:
        for finding in rule.check(model):
            supp = suppressions.get(finding.path)
            if supp is None:
                continue  # never attribute findings outside the target set
            if not supp.is_suppressed(finding.rule, finding.line):
                findings.append(finding)
    findings.sort()
    return LintResult(findings=findings, files_checked=len(files))
