"""The project model, exercised over the ``proto_*`` fixture packages:
structural module naming, the per-file function index, cross-module
constant resolution, and the target/reference split."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.model import (
    ProjectModel,
    model_module_name,
    own_nodes,
    parse_file,
)

FIXTURES = Path(__file__).parent / "fixtures" / "program"


def _model(package: str, references=()):
    files = [
        parse_file(p)[0] for p in sorted((FIXTURES / package).rglob("*.py"))
    ]
    files += [
        parse_file(p, reference=True)[0]
        for pkg in references
        for p in sorted((FIXTURES / pkg).rglob("*.py"))
    ]
    return ProjectModel(files)


def test_model_module_name_stops_at_package_root():
    pkg = FIXTURES / "proto_good"
    assert model_module_name(pkg / "sender.py") == "proto_good.sender"
    assert model_module_name(pkg / "__init__.py") == "proto_good"
    assert model_module_name(pkg / "kinds.py") == "proto_good.kinds"


def test_modules_functions_and_classes_indexed():
    model = _model("proto_good")
    assert set(model.modules) == {
        "proto_good", "proto_good.handler", "proto_good.kinds",
        "proto_good.sender",
    }
    handler = model.modules["proto_good.handler"]
    # Methods are indexed under their class-qualified name.
    assert set(handler.functions) == {
        "Replica.on_message", "Replica.on_request", "Reply.__init__",
        "summarize", "pick",
    }
    assert handler.functions["pick"].name == "pick"
    assert handler.constants == {}
    assert model.modules["proto_good.kinds"].constants == {
        "PING": "fixture-ping"
    }
    assert model.split_module("proto_good.kinds.PING") == (
        "proto_good.kinds", "PING"
    )


def test_own_nodes_stops_at_nested_scopes():
    func = ast.parse(
        "def outer():\n"
        "    a = 1\n"
        "    def inner():\n"
        "        b = 2\n"
        "    return a\n"
    ).body[0]
    names = {n.id for n in own_nodes(func) if isinstance(n, ast.Name)}
    assert names == {"a"}


def test_resolve_string_through_imported_constant():
    model = _model("proto_good")
    sender = model.modules["proto_good.sender"]
    # `PING` in sender.py is imported from kinds.py: the model resolves
    # the cross-module constant no single file shows.
    name = ast.parse("PING", mode="eval").body
    assert model.resolve_string(sender, name) == "fixture-ping"


def test_reference_modules_feed_resolution_but_are_not_targets():
    model = _model("proto_good", references=["proto_bad"])
    assert {ctx.module.split(".")[0] for ctx in model.targets} == {
        "proto_good"
    }
    # The reference module is still fully indexed for cross-referencing.
    assert "Prober.probe" in model.modules["proto_bad.sender"].functions
    assert model.modules["proto_bad"].reference
