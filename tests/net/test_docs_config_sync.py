"""docs/runtime.md ("The address book") documents the node settings — keep
its field table and example book in sync with the one field table
(``repro.cluster.config.NodeConfig``), the way test_docs_sync.py guards
the fault vocabulary."""

import dataclasses
import json
from pathlib import Path

from repro.cluster.config import NodeConfig
from repro.proc import AddressBook

RUNTIME_MD = Path(__file__).parents[2] / "docs" / "runtime.md"
BEGIN = "<!-- BEGIN NODE CONFIG TABLE (checked against repro.cluster.config.NodeConfig) -->"
END = "<!-- END NODE CONFIG TABLE -->"


def address_book_section():
    text = RUNTIME_MD.read_text()
    return text.split("### The address book", 1)[1].split("\n### ", 1)[0]


def test_runtime_doc_table_is_the_field_table():
    section = address_book_section()
    assert BEGIN in section and END in section, "markers missing from runtime.md"
    rows = section.split(BEGIN, 1)[1].split(END, 1)[0].strip().splitlines()[2:]
    documented = [
        tuple(cell.strip().strip("`") for cell in row.strip("|").split("|")[:3])
        for row in rows
    ]
    assert documented == [
        (spec.name, repr(spec.default), spec.metadata.get("flag", "—"))
        for spec in dataclasses.fields(NodeConfig)
    ], (
        "docs/runtime.md node-config table is stale — one row per NodeConfig "
        "field, in order: | `field` | `default` | `flag` | meaning |"
    )


def test_runtime_doc_example_book_loads():
    section = address_book_section()
    example = section.split("```json", 1)[1].split("```", 1)[0]
    book = AddressBook.from_dict(json.loads(example))
    assert book.n == len(book.nodes) == 3
    assert book.config == NodeConfig()  # it spells out only defaults
