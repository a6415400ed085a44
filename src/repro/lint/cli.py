"""Lint CLI: ``python -m repro lint`` and the ``repro-lint`` entry point.

Exit codes follow the package convention (:mod:`repro.cli`):

* ``0`` — clean (no findings);
* ``1`` — findings reported;
* ``2`` — configuration error (unknown rule, unreadable path).

This module owns the argument surface so both entry points behave
identically: :func:`add_lint_arguments` is called by the main CLI's
``lint`` subparser, and :func:`main` wraps the same runner as a standalone
console script.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from ..errors import ConfigurationError
from .engine import default_target, lint_paths
from .registry import iter_rule_docs
from .reporting import FORMATS, write_report

__all__ = ["add_lint_arguments", "run_from_args", "main"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the lint options onto *parser* (shared by both entry points)."""
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default="text", dest="format",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", action="append", default=[], metavar="RULE",
        help="run only these rule ids (repeatable)",
    )
    parser.add_argument(
        "--ignore", action="append", default=[], metavar="RULE",
        help="skip these rule ids (repeatable)",
    )
    parser.add_argument(
        "--rules", action="store_true",
        help="list the available rules and exit",
    )


def _split(values: List[str]) -> List[str]:
    """Flatten repeatable, comma-separable rule lists."""
    out: List[str] = []
    for value in values:
        out.extend(part.strip() for part in value.split(",") if part.strip())
    return out


def _list_rules(stream) -> int:
    docs = list(iter_rule_docs())
    width = max(len(rule_id) for rule_id, _, _ in docs)
    for rule_id, summary, scope in docs:
        where = ", ".join(scope) if scope else "all files"
        stream.write(f"{rule_id:<{width}}  {summary}\n")
        stream.write(f"{'':<{width}}  scope: {where}\n")
    return 0


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a lint run described by parsed *args*; returns the exit code."""
    if args.rules:
        return _list_rules(sys.stdout)
    paths = args.paths or [default_target()]
    result = lint_paths(
        paths=paths,
        select=_split(args.select) or None,
        ignore=_split(args.ignore) or None,
    )
    write_report(result, args.format, sys.stdout)
    return result.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (the ``repro-lint`` console script)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based determinism and protocol-safety analyzer for the "
            "repro package"
        ),
    )
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    try:
        return run_from_args(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
