"""docs/scenarios.md and docs/runtime.md describe the fault vocabulary —
keep them in sync with the one op table (``repro.sim.faults.FAULT_OPS``),
the way tests/obs/test_docs_sync.py guards docs/traces.md."""

import json
import re
from pathlib import Path

import pytest

from repro.sim.faults import FAULT_OPS, check_fault

DOCS = Path(__file__).parents[2] / "docs"
BEGIN = "<!-- BEGIN FAULT OP TABLE (checked against repro.sim.faults.FAULT_OPS) -->"
END = "<!-- END FAULT OP TABLE -->"


def names(cell):
    return tuple(re.findall(r"`(\w+)`", cell))


def test_scenarios_doc_table_is_the_op_table():
    text = (DOCS / "scenarios.md").read_text()
    assert BEGIN in text and END in text, "markers missing from scenarios.md"
    rows = text.split(BEGIN, 1)[1].split(END, 1)[0].strip().splitlines()[2:]
    documented = {}
    for row in rows:
        op, required, optional = row.strip("|").split("|")[:3]
        documented[names(op)[0]] = (names(required), names(optional))
    assert documented == FAULT_OPS, (
        "docs/scenarios.md fault table is stale — one row per FAULT_OPS "
        "entry: | `op` | required args | optional args | ..."
    )
    assert list(documented) == list(FAULT_OPS)  # same order, too


@pytest.mark.parametrize("doc", ["scenarios.md", "runtime.md"])
def test_every_documented_command_is_a_valid_fault(doc):
    """Every ``{"op": ...}`` example line in the docs — scenario events and
    fault-control datagrams alike — passes the real validator."""
    examples = [
        json.loads(line.strip().rstrip(","))
        for line in (DOCS / doc).read_text().splitlines()
        if line.strip().startswith("{") and '"op"' in line
    ]
    assert examples, f"no fault examples found in {doc}"
    for example in examples:
        op = example.pop("op")
        for envelope in ("t", "record"):  # event time / narration flag
            example.pop(envelope, None)
        check_fault(op, example, n=3)


def test_runtime_doc_shows_every_wire_op_and_the_entry_point():
    text = (DOCS / "runtime.md").read_text()
    shown = set(re.findall(r'\{"op": "(\w+)"', text))
    # Everything but the OS-signal faults travels as a datagram.
    assert shown - {"ping"} == set(FAULT_OPS) - {"crash", "stall", "resume"}
    for doc in ("runtime.md", "scenarios.md"):
        assert "fault(op, args, at=None)" in (DOCS / doc).read_text()
