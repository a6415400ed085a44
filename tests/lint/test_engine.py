"""Engine behavior: module-name scoping, syntax errors, discovery."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.lint import lint_paths
from repro.lint.engine import default_target, iter_python_files
from repro.lint.model import model_module_name


def _write(root: Path, rel: str, source: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def _package(root: Path, *rels: str) -> None:
    for rel in rels:
        _write(root, f"{rel}/__init__.py", "")


def test_module_name_maps_package_paths(tmp_path):
    _package(tmp_path, "repro", "repro/net")
    assert model_module_name(tmp_path / "repro/net/tcp.py") == "repro.net.tcp"
    assert model_module_name(tmp_path / "repro/net/__init__.py") == "repro.net"
    assert model_module_name(tmp_path / "repro/__init__.py") == "repro"
    # No __init__.py, no package: a directory merely *called* repro (or
    # sim) contributes nothing to the name.
    assert model_module_name(tmp_path / "repro/sim/world.py") == "world"
    assert model_module_name(tmp_path / "fixture.py") == "fixture"


def test_checkout_directory_name_does_not_change_findings(tmp_path):
    # A benchmark that reads the wall clock is outside the repro package,
    # so every rule applies to it — also in a clone that happens to be
    # called repro/.
    wall = "import time\n\ndef f():\n    return time.perf_counter()\n"
    for checkout in ("other", "repro"):
        bench = _write(tmp_path, f"{checkout}/benchmarks/bench.py", wall)
        assert [f.rule for f in lint_paths([bench]).findings] == [
            "wall-clock"
        ], checkout


def test_scope_limits_rules_to_their_packages(tmp_path):
    wall = "import time\n\ndef f():\n    return time.time()\n"
    _package(tmp_path, "repro", "repro/net", "repro/sim")
    # Under repro.net, the determinism rules don't apply: reading the wall
    # clock is the runtime's job.
    net_file = _write(tmp_path, "repro/net/mod.py", wall)
    assert lint_paths([net_file]).findings == []
    # The same source under repro.sim is a violation.
    sim_file = _write(tmp_path, "repro/sim/mod.py", wall)
    assert [f.rule for f in lint_paths([sim_file]).findings] == ["wall-clock"]
    # And asyncio hazards are net-only: a dropped task in sim code (which
    # never runs an event loop) is not this analyzer's business.
    hazard = (
        "import asyncio\n\nasync def go(c):\n    asyncio.ensure_future(c)\n"
    )
    assert lint_paths([_write(tmp_path, "repro/sim/h.py", hazard)]).findings == []
    assert [
        f.rule for f in lint_paths([_write(tmp_path, "repro/net/h.py", hazard)]).findings
    ] == ["dropped-task"]


def test_syntax_error_becomes_a_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    result = lint_paths([bad])
    assert [f.rule for f in result.findings] == ["syntax-error"]
    assert result.exit_code == 1


def test_missing_path_raises_configuration_error(tmp_path):
    with pytest.raises(ConfigurationError):
        lint_paths([tmp_path / "nope"])


def test_iter_python_files_sorted_and_deduped(tmp_path):
    b = _write(tmp_path, "b.py", "x = 1\n")
    a = _write(tmp_path, "a.py", "x = 1\n")
    files = iter_python_files([tmp_path, a, b])
    assert files == [a, b]


def test_default_target_is_the_repro_package():
    target = default_target()
    assert target.name == "repro"
    assert (target / "lint").is_dir()
