"""Smoke tests: every shipped example runs clean end to end.

Each example asserts its own correctness internally (they end with checks
like "all replicas hold identical stores"), so a zero exit code is a real
signal, not just "didn't crash".
"""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)

# Minutes-scale narrated runs (and the multi-process scenario, which
# spends real wall seconds by design); the fast tier (-m "not slow")
# skips them.
SLOW_EXAMPLES = {"partition_and_recovery", "proc_cluster"}

#: Output an example must print beyond "something": the quickstart is the
#: one place the leader and round timelines are shown.
EXPECTED_OUTPUT = {
    "quickstart": ("leader timeline (channel 'fd'", "rounds of 'ec'"),
}


@pytest.mark.parametrize(
    "example",
    [
        pytest.param(
            p,
            marks=[pytest.mark.slow] if p.stem in SLOW_EXAMPLES else [],
        )
        for p in EXAMPLES
    ],
    ids=lambda p: p.stem,
)
def test_example_runs(example):
    result = subprocess.run(
        [sys.executable, str(example)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"
    for text in EXPECTED_OUTPUT.get(example.stem, ()):
        assert text in result.stdout, text


def test_example_inventory():
    """The deliverable requires a quickstart plus >= 2 domain scenarios."""
    names = {p.stem for p in EXAMPLES}
    assert "quickstart" in names
    assert len(names) >= 3


def test_example_traces_regenerate_byte_identically(tmp_path):
    """examples/traces/ is what its own regenerate.py writes: the run is
    virtual-clock and seeded, and every host speaks the one wire format, so
    a fresh regeneration (on a copy) reproduces the committed files."""
    committed = pathlib.Path(__file__).parent.parent / "examples" / "traces"
    src = committed.parent.parent / "src"
    copy = tmp_path / "traces"
    copy.mkdir()
    (copy / "regenerate.py").write_bytes(
        (committed / "regenerate.py").read_bytes())
    result = subprocess.run(
        [sys.executable, str(copy / "regenerate.py")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr[-2000:]
    names = sorted(p.name for p in committed.glob("node-*.jsonl"))
    assert names == sorted(p.name for p in copy.glob("node-*.jsonl"))
    for name in names:
        assert (copy / name).read_bytes() == (committed / name).read_bytes(), \
            f"{name} is stale: run examples/traces/regenerate.py"
