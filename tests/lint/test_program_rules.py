"""The rules that need the project model against their good/bad fixture
pairs: every bad package produces exactly the expected findings, every
good package (a structural near-miss of the bad one) stays silent, and the
engine-level contracts (inline suppression, reference-corpus attribution)
hold.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.model import ProjectModel, parse_file
from repro.lint.rules.protocol import ProtocolFlowRule

FIXTURES = Path(__file__).parent / "fixtures" / "program"


def _lint(package: str, rule: str, **kwargs):
    return lint_paths(paths=[FIXTURES / package], select=[rule], **kwargs)


CASES = [
    # (package, rule, #errors, #warnings)
    ("proto_bad", "protocol-flow", 2, 3),
    ("proto_good", "protocol-flow", 0, 0),
    ("reg_bad", "trace-schema", 2, 0),
    ("reg_bad", "metrics-registry", 2, 0),
    ("reg_good", "trace-schema", 0, 0),
    ("reg_good", "metrics-registry", 0, 0),
]


@pytest.mark.parametrize("package,rule,errors,warnings", CASES)
def test_fixture_pair_counts(package, rule, errors, warnings):
    result = _lint(package, rule)
    by_severity = {"error": 0, "warning": 0}
    for finding in result.findings:
        assert finding.rule == rule
        by_severity[finding.severity] += 1
    assert (by_severity["error"], by_severity["warning"]) == (
        errors, warnings
    ), "\n".join(f.render() for f in result.findings)


def test_protocol_flow_covers_all_three_spaces():
    findings = _lint("proto_bad", "protocol-flow").findings
    messages = [f.message for f in findings]
    assert any("message kind 'fixture-ping' is produced" in m for m in messages)
    assert any("service op 'fixture-get' is produced" in m for m in messages)
    assert any("message kind 'fixture-pong'" in m for m in messages)
    assert any("service op 'fixture-put'" in m for m in messages)
    assert any("reply status 'fixture-stale'" in m for m in messages)


_RECORD_SITES = """\
from .names import KIND, METRIC


def emit(trace, metrics, now, kind):
    trace.record(now, {kind}, algo="ec")
    metrics.inc({metric}, amount=8)
    trace.record(now, kind, pid=0)  # dynamic: checked at run time
"""


@pytest.mark.parametrize(
    "kind,metric",
    [("decide", "bytes_sent_total"), ("fixture-bogus", "fixture_bogus")],
    ids=["schema-mismatch", "unregistered"],
)
def test_literal_and_constant_record_sites_get_the_same_message(
    tmp_path, kind, metric
):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "names.py").write_text(f"KIND = {kind!r}\nMETRIC = {metric!r}\n")
    (pkg / "literal.py").write_text(
        _RECORD_SITES.format(kind=repr(kind), metric=repr(metric))
    )
    (pkg / "constant.py").write_text(
        _RECORD_SITES.format(kind="KIND", metric="METRIC")
    )
    by_file = {}
    for finding in lint_paths(paths=[pkg]).findings:
        by_file.setdefault(Path(finding.path).name, []).append(
            (finding.line, finding.rule, finding.message)
        )
    assert [rule for _, rule, _ in by_file["literal.py"]] == [
        "trace-schema", "metrics-registry",
    ]
    assert by_file["constant.py"] == by_file["literal.py"]


def test_program_findings_respect_inline_suppressions(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "handler.py").write_text(
        "def on_message(src, payload):\n"
        '    return payload[0] == "fixture-ack"\n'
    )
    send = 'def probe(node, dst):\n    node.send(dst, ("fixture-nack", 1))'
    (pkg / "sender.py").write_text(send + "\n")
    assert [f.rule for f in lint_paths(paths=[pkg]).findings] == [
        "protocol-flow", "protocol-flow",
    ]
    # The dead arm's finding sits in handler.py; only the send is waived.
    (pkg / "sender.py").write_text(send + "  # lint: ignore[protocol-flow]\n")
    result = lint_paths(paths=[pkg])
    assert [Path(f.path).name for f in result.findings] == ["handler.py"]


def test_reference_corpus_never_receives_findings():
    # proto_bad as reference corpus: its unhandled kinds and dead arms must
    # not surface when the target is the clean package.
    files = [
        parse_file(p)[0]
        for p in sorted((FIXTURES / "proto_good").rglob("*.py"))
    ] + [
        parse_file(p, reference=True)[0]
        for p in sorted((FIXTURES / "proto_bad").rglob("*.py"))
    ]
    assert list(ProtocolFlowRule().check(ProjectModel(files))) == []


def test_program_rules_run_by_default_on_fixtures():
    result = lint_paths(paths=[FIXTURES / "proto_bad"])
    assert any(f.rule == "protocol-flow" for f in result.findings)
