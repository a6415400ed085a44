"""Per-rule fixture tests: every rule has one bad and one good snippet.

Fixture files live outside the ``repro`` package, so *every* rule applies —
which also makes these tests assert the absence of cross-rule false
positives: a bad fixture must trigger exactly its target rule, a good
fixture must be completely clean.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"

#: (rule id, bad fixture, expected findings in it, good fixture)
CASES = [
    ("wall-clock", "bad_wall_clock.py", 2, "good_wall_clock.py"),
    ("global-random", "bad_global_random.py", 4, "good_global_random.py"),
    ("unordered-iter", "bad_unordered_iter.py", 1, "good_unordered_iter.py"),
    ("id-ordering", "bad_id_ordering.py", 2, "good_id_ordering.py"),
    ("blocking-call", "bad_blocking_call.py", 1, "good_blocking_call.py"),
    (
        "unawaited-coroutine",
        "bad_unawaited_coroutine.py", 2,
        "good_unawaited_coroutine.py",
    ),
    ("dropped-task", "bad_dropped_task.py", 2, "good_dropped_task.py"),
    (
        "swallowed-exception",
        "bad_swallowed_exception.py", 2,
        "good_swallowed_exception.py",
    ),
    ("payload-encodability", "bad_payload.py", 3, "good_payload.py"),
    ("trace-schema", "bad_trace_schema.py", 3, "good_trace_schema.py"),
    (
        "metrics-registry",
        "bad_metrics_registry.py", 5,
        "good_metrics_registry.py",
    ),
]


@pytest.mark.parametrize(
    "rule_id,bad,count,good", CASES, ids=[c[0] for c in CASES]
)
def test_bad_fixture_triggers_exactly_its_rule(rule_id, bad, count, good):
    result = lint_paths([FIXTURES / bad])
    assert result.files_checked == 1
    assert {f.rule for f in result.findings} == {rule_id}
    assert len(result.findings) == count
    assert result.exit_code == 1


@pytest.mark.parametrize(
    "rule_id,bad,count,good", CASES, ids=[c[0] for c in CASES]
)
def test_good_fixture_is_clean_under_all_rules(rule_id, bad, count, good):
    result = lint_paths([FIXTURES / good])
    assert result.findings == []
    assert result.exit_code == 0


def test_bind_sites_are_checked_like_updates():
    bad = lint_paths([FIXTURES / "bad_metrics_bind.py"])
    assert {f.rule for f in bad.findings} == {"metrics-registry"}
    assert len(bad.findings) == 3
    assert lint_paths([FIXTURES / "good_metrics_bind.py"]).findings == []


def test_findings_carry_location_and_render(tmp_path):
    result = lint_paths([FIXTURES / "bad_wall_clock.py"])
    finding = result.findings[0]
    assert finding.line > 0 and finding.col > 0
    assert finding.rule == "wall-clock"
    rendered = finding.render()
    assert "bad_wall_clock.py" in rendered
    assert f":{finding.line}:" in rendered
    assert "wall-clock" in rendered


def test_select_restricts_to_one_rule():
    result = lint_paths([FIXTURES], select=["wall-clock"])
    assert {f.rule for f in result.findings} == {"wall-clock"}


def test_ignore_removes_a_rule():
    result = lint_paths([FIXTURES / "bad_wall_clock.py"], ignore=["wall-clock"])
    assert result.findings == []
