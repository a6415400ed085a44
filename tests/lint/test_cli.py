"""Lint CLI contract: exit codes 0/1/2, JSON output, rule listing, and the
``python -m repro lint`` subcommand wiring."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main as repro_main
from repro.lint.cli import main as lint_main
from repro.lint.registry import all_rules

FIXTURES = Path(__file__).parent / "fixtures"
GOOD = str(FIXTURES / "good_wall_clock.py")
BAD = str(FIXTURES / "bad_wall_clock.py")


def test_exit_zero_on_clean(capsys):
    assert lint_main([GOOD]) == 0
    assert "no findings" in capsys.readouterr().out


def test_exit_one_on_findings(capsys):
    assert lint_main([BAD]) == 1
    out = capsys.readouterr().out
    assert "wall-clock" in out
    assert "bad_wall_clock.py" in out


def test_exit_two_on_unknown_rule(capsys):
    assert lint_main(["--select", "no-such-rule", GOOD]) == 2
    assert "unknown lint rule" in capsys.readouterr().err


def test_exit_two_on_missing_path(capsys):
    assert lint_main([str(FIXTURES / "does_not_exist.py")]) == 2
    assert "error:" in capsys.readouterr().err


def test_json_format_parses_and_carries_findings(capsys):
    assert lint_main(["--format", "json", BAD]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 3
    assert payload["clean"] is False
    assert payload["files_checked"] == 1
    rules = {f["rule"] for f in payload["findings"]}
    assert rules == {"wall-clock"}
    first = payload["findings"][0]
    assert set(first) == {
        "path", "line", "col", "rule", "message", "severity",
    }
    assert first["severity"] == "error"


def test_rules_listing_names_every_rule(capsys):
    assert lint_main(["--rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.id in out
    # Each rule's scope is part of the listing.
    assert "scope: all files" in out and "scope: repro.sim" in out


def test_program_rule_ids_valid_in_select_and_ignore(capsys):
    bad_pkg = str(FIXTURES / "program" / "proto_bad")
    assert lint_main(["--select", "protocol-flow", bad_pkg]) == 1
    assert lint_main(["--ignore", "protocol-flow", bad_pkg]) == 0


def test_comma_separated_select(capsys):
    assert lint_main(["--select", "wall-clock,global-random", BAD]) == 1
    assert lint_main(["--select", "global-random", BAD]) == 0


def test_repro_lint_subcommand(capsys):
    assert repro_main(["lint", GOOD]) == 0
    assert repro_main(["lint", BAD]) == 1
    assert repro_main(["lint", "--select", "no-such-rule", GOOD]) == 2
    err = capsys.readouterr().err
    assert "unknown lint rule" in err


def test_repro_lint_subcommand_json(capsys):
    assert repro_main(["lint", "--format", "json", GOOD]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is True
