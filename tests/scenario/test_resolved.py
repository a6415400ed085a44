"""How a run is sized: ``Scenario.resolved`` is the one precedence
(explicit argument > document > rule) and the one rule every
cluster-running command uses — checked on the resolved *value*, no
process spawned."""

import json

import pytest

from pathlib import Path

from repro import cli
from repro.errors import ConfigurationError
from repro.scenario import Scenario, generate_scenario

SMOKE = Path(__file__).resolve().parents[2] / "examples/scenarios/smoke.json"

#: The two-event document of the ISSUE: no duration, no propose_after.
TWO_EVENTS = {
    "name": "two-event", "n": 3, "period": 0.05,
    "events": [
        {"t": 0.5, "op": "partition", "groups": [[0]]},
        {"t": 1.5, "op": "heal"},
    ],
}


def sized(scenario):
    return (scenario.n, scenario.period, scenario.propose_after,
            scenario.duration)


def test_the_rule_fills_an_empty_document():
    # 3 nodes at NodeConfig's period, proposing 4 periods after the last
    # fault, ending 40 periods later.
    assert sized(Scenario().resolved()) == (3, 0.05, 0.2, 2.2)
    assert sized(Scenario().resolved(default_n=5)) == (5, 0.05, 0.2, 2.2)
    assert sized(Scenario.from_dict(TWO_EVENTS).resolved()) == (
        3, 0.05, 1.7, 3.7)


@pytest.mark.parametrize("field, documented, explicit, ruled", [
    ("n", 4, 5, 3),
    ("period", 0.1, 0.2, 0.05),
    ("propose_after", 2.5, 3.0, 1.7),
    ("duration", 9.0, 8.0, 3.7),
])
def test_explicit_beats_the_document_beats_the_rule(
        field, documented, explicit, ruled):
    bare = {k: v for k, v in TWO_EVENTS.items() if k != field}
    assert getattr(Scenario.from_dict(bare).resolved(), field) == ruled
    document = Scenario.from_dict({**bare, field: documented})
    assert getattr(document.resolved(), field) == documented
    assert getattr(document.resolved(**{field: explicit}), field) == explicit


def test_the_rule_follows_the_explicit_values_it_builds_on():
    document = Scenario.from_dict(TWO_EVENTS)
    assert sized(document.resolved(period=0.1)) == (3, 0.1, 1.9, 5.9)
    assert sized(document.resolved(propose_after=2.0)) == (3, 0.05, 2.0, 4.0)


def test_resolving_is_idempotent_and_the_generator_goes_through_it():
    generated = generate_scenario(3, 7)
    assert generated.resolved() == generated
    assert generated.duration == round(
        generated.propose_after + 40.0 * generated.period, 6)
    once = Scenario.from_dict(TWO_EVENTS).resolved()
    assert once.resolved() == once


def test_a_duration_shorter_than_the_schedule_is_still_an_error():
    with pytest.raises(ConfigurationError, match="after the declared"):
        Scenario.from_dict(TWO_EVENTS).resolved(duration=1.0)


# ------------------------------------------------- the command-line spelling
class Captured(Exception):
    """Raised in place of running: carries what the command resolved."""


@pytest.fixture
def resolved_by(monkeypatch):
    """``resolved_by(argv)`` -> the (scenario, runtime) a command line
    hands to the one run function, with nothing built or spawned."""
    def capture(args, scenario, runtime, **build):
        raise Captured(scenario, runtime)

    monkeypatch.setattr(cli, "_run_scripted", capture)

    def resolve(*argv):
        with pytest.raises(Captured) as caught:
            cli.main(list(argv))
        return caught.value.args

    return resolve


def test_crash_flags_are_merged_events_and_stretch_the_run(resolved_by):
    # `proc run -n 3 --crash 0:8` used to run 6.0 s and drop the crash.
    scenario, runtime = resolved_by("proc", "run", "-n", "3", "--crash", "0:8")
    assert runtime == "proc"
    assert [(e.time, e.op, e.args) for e in scenario.events] == [
        (8.0, "crash", {"pid": 0})]
    assert scenario.fault_end == 8.0
    assert sized(scenario) == (3, 0.05, 8.2, 10.2)
    # An explicit duration that cuts the crash off is refused, not obeyed.
    assert cli.main(
        ["proc", "run", "--crash", "0:8", "--duration", "6"]) == 2


@pytest.mark.parametrize("document, expected", [
    (Scenario.from_dict(TWO_EVENTS), (3, 0.05, 1.7, 3.7)),
    (Scenario.load(SMOKE), (3, 0.05, 4.0, 6.0)),
    (generate_scenario(3, 7), sized(generate_scenario(3, 7))),
], ids=["two-event", "smoke.json", "gen --seed 7"])
def test_same_document_same_run_from_every_spelling(
        document, expected, resolved_by, tmp_path):
    f = str(document.save(tmp_path / "doc.json"))
    spellings = [
        resolved_by("cluster", "--scenario", f),
        resolved_by("proc", "run", "--scenario", f),
        resolved_by("scenario", "run", "--file", f, "--runtime", "local"),
        resolved_by("scenario", "run", "--file", f, "--runtime", "proc"),
    ]
    assert [runtime for _, runtime in spellings] == [
        "local", "proc", "local", "proc"]
    assert [sized(s) for s, _ in spellings] == [expected] * 4
    assert all(s.events == document.events for s, _ in spellings)


def test_flags_are_the_explicit_arguments(resolved_by, tmp_path):
    path = tmp_path / "long.json"
    f = str(path)
    # A schedule longer than 6 s needs no --duration on `proc run`...
    long = {**TWO_EVENTS, "events": [
        TWO_EVENTS["events"][0], {"t": 7.0, "op": "heal"}]}
    path.write_text(json.dumps(long))
    assert sized(resolved_by("proc", "run", "--scenario", f)[0]) == (
        3, 0.05, 7.2, 9.2)
    # ...flags are the explicit arguments, --crash moves fault_end...
    scenario, _ = resolved_by(
        "cluster", "--scenario", f, "--crash", "1:8", "--period", "0.1")
    assert sized(scenario) == (3, 0.1, 8.4, 12.4)
    # ...and without a document the command's own default n applies.
    assert resolved_by("cluster", "--duration", "2")[0].n == 5
    assert resolved_by("proc", "run", "--duration", "2")[0].n == 3


def test_load_outlives_its_load_window(resolved_by):
    scenario, runtime = resolved_by(
        "load", "--proc", "3", "--duration", "3", "--crash", "0:2")
    assert runtime == "proc"
    # warmup 1 + load 3 + request timeout 10 + 2 > the rule's 4.2.
    assert sized(scenario) == (3, 0.05, 2.2, 16.0)
