"""Reporter contracts: SARIF for code scanning."""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint import lint_paths
from repro.lint.cli import main as lint_main
from repro.lint.reporting import render_sarif

FIXTURES = Path(__file__).parent / "fixtures" / "program"
BAD_PKG = str(FIXTURES / "proto_bad")


class TestSarif:
    def _log(self, capsys):
        assert lint_main(
            ["--format", "sarif", "--select", "protocol-flow", BAD_PKG]
        ) == 1
        return json.loads(capsys.readouterr().out)

    def test_envelope_matches_spec(self, capsys):
        log = self._log(capsys)
        assert log["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"

    def test_rules_declared_and_indexed(self, capsys):
        log = self._log(capsys)
        run = log["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        ids = [r["id"] for r in rules]
        assert "protocol-flow" in ids and "wall-clock" in ids
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_severity_maps_to_level(self, capsys):
        results = self._log(capsys)["runs"][0]["results"]
        levels = {r["level"] for r in results}
        assert levels == {"error", "warning"}
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1

    def test_sarif_is_deterministic(self):
        result = lint_paths(
            paths=[Path(BAD_PKG)], select=["protocol-flow"]
        )
        assert render_sarif(result) == render_sarif(result)

