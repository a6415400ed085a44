"""Finding reporters: compiler-style text, machine-readable JSON, SARIF.

All formats render the same :class:`~repro.lint.engine.LintResult`; the
text form is for humans and editors (``path:line:col: rule: severity:
message``, so terminals hyperlink it), the JSON form for CI annotations
and tooling, and the SARIF form for GitHub code scanning (findings then
annotate PR diffs inline).  Output is deterministic: findings arrive
pre-sorted from the engine and every collection below is emitted in
sorted order.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, List

from .engine import LintResult

__all__ = [
    "render_text",
    "render_json",
    "render_sarif",
    "write_report",
    "FORMATS",
]

FORMATS = ("text", "json", "sarif")

#: Schema version of the JSON report (bump on incompatible change).
#: v3 dropped per-finding ``origin`` and top-level ``baselined``.
JSON_VERSION = 3

#: SARIF spec pinned by the GitHub code-scanning ingestion endpoint.
_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(result: LintResult) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [f.render() for f in result.findings]
    noun = "file" if result.files_checked == 1 else "files"
    if result.clean:
        lines.append(
            f"clean: {result.files_checked} {noun} checked, no findings"
        )
    else:
        count = len(result.findings)
        fnoun = "finding" if count == 1 else "findings"
        lines.append(
            f"{count} {fnoun} in {result.files_checked} {noun} checked"
        )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-readable report (stable key order, trailing newline-free)."""
    record = {
        "version": JSON_VERSION,
        "files_checked": result.files_checked,
        "clean": result.clean,
        "findings": [f.to_json() for f in result.findings],
    }
    return json.dumps(record, indent=2, sort_keys=True)


def render_sarif(result: LintResult) -> str:
    """A SARIF 2.1.0 log for GitHub code scanning.

    Rules are declared once in the tool driver (id + summary, collected
    from the registry in registration order) and referenced by index from
    each result; ``severity`` maps onto the SARIF ``level`` directly.
    """
    from .registry import iter_rule_docs  # local: avoid import cycle at load

    rule_docs = list(iter_rule_docs())
    rule_index = {rule_id: i for i, (rule_id, _, _) in enumerate(rule_docs)}
    rules: List[Dict[str, Any]] = [
        {"id": rule_id, "shortDescription": {"text": summary}}
        for rule_id, summary, _ in rule_docs
    ]
    results: List[Dict[str, Any]] = []
    for f in result.findings:
        entry: Dict[str, Any] = {
            "ruleId": f.rule,
            "level": f.severity if f.severity in ("error", "warning") else "none",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.path.replace("\\", "/"),
                        },
                        "region": {
                            "startLine": f.line,
                            "startColumn": f.col,
                        },
                    }
                }
            ],
        }
        if f.rule in rule_index:
            entry["ruleIndex"] = rule_index[f.rule]
        results.append(entry)
    log = {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=True)


_RENDERERS = {
    "text": render_text,
    "json": render_json,
    "sarif": render_sarif,
}


def write_report(result: LintResult, fmt: str, stream: IO[str]) -> None:
    """Render *result* as *fmt* ("text", "json", or "sarif") onto *stream*."""
    renderer = _RENDERERS.get(fmt, render_text)
    stream.write(renderer(result) + "\n")
