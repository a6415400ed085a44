"""Scenario DSL: eager validation, canonical ordering, JSON round-trips."""

import pytest

from repro.errors import ConfigurationError
from repro.scenario import Scenario, ScenarioEvent


# ------------------------------------------------------- event validation
# (arg shapes and ranges are check_fault's — tests/net/test_fault_vocabulary.py
# covers the table; these pin that ScenarioEvent applies it at construction)
def test_unknown_op_rejected():
    with pytest.raises(ConfigurationError, match="unknown fault op"):
        ScenarioEvent(time=1.0, op="reboot", args={"pid": 0})


def test_missing_required_args_rejected():
    with pytest.raises(ConfigurationError, match="missing arg"):
        ScenarioEvent(time=1.0, op="stall", args={})
    with pytest.raises(ConfigurationError, match="missing arg"):
        ScenarioEvent(time=1.0, op="degrade", args={"src": 0})


def test_unknown_args_rejected():
    with pytest.raises(ConfigurationError, match="unknown arg"):
        ScenarioEvent(time=1.0, op="heal", args={"pid": 0})


def test_negative_time_rejected():
    with pytest.raises(ConfigurationError, match=">= 0"):
        ScenarioEvent(time=-0.5, op="heal")


def test_loss_bounds_are_checked_at_construction():
    # 1.0 is a legal (total) loss; only values outside [0, 1] are errors.
    ScenarioEvent(time=0.0, op="storm", args={"loss": 1.0})
    with pytest.raises(ConfigurationError, match=r"outside \[0, 1\]"):
        ScenarioEvent(time=0.0, op="storm", args={"loss": 1.5})
    with pytest.raises(ConfigurationError, match=r"outside \[0, 1\]"):
        ScenarioEvent(
            time=0.0, op="degrade", args={"src": 0, "dst": 1, "loss": -0.1}
        )


def test_partition_groups_must_be_lists_of_lists():
    with pytest.raises(ConfigurationError, match="list of pid lists"):
        ScenarioEvent(time=0.0, op="partition", args={"groups": [0, 1]})


# ---------------------------------------------------- scenario validation
def test_pid_range_checked_against_n():
    with pytest.raises(ConfigurationError, match="out of range"):
        Scenario(n=3, events=[{"t": 1.0, "op": "crash", "pid": 3}])
    with pytest.raises(ConfigurationError, match="out of range"):
        Scenario(n=3, events=[{"t": 1.0, "op": "partition", "groups": [[5]]}])


def test_events_after_duration_rejected():
    with pytest.raises(ConfigurationError, match="after the declared"):
        Scenario(duration=2.0, events=[{"t": 3.0, "op": "heal"}])


def test_events_sorted_canonically_by_time():
    scenario = Scenario(events=[
        {"t": 2.0, "op": "heal"},
        {"t": 1.0, "op": "partition", "groups": [[0]]},
    ])
    assert [event.op for event in scenario.events] == ["partition", "heal"]
    assert scenario.fault_end == 2.0


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigurationError, match="unknown scenario keys"):
        Scenario.from_dict({"events": [], "nemesis": True})


# ------------------------------------------------------------------ serde
def demo_scenario():
    return Scenario(
        name="demo", n=3, period=0.05, duration=4.0, propose_after=2.5,
        events=[
            {"t": 0.5, "op": "partition", "groups": [[0], [1, 2]]},
            {"t": 1.0, "op": "heal"},
            {"t": 1.5, "op": "stall", "pid": 2},
            {"t": 2.0, "op": "resume", "pid": 2},
        ],
    )


def test_json_roundtrip_is_byte_identical():
    scenario = demo_scenario()
    text = scenario.to_json()
    assert Scenario.from_json(text).to_json() == text
    assert text.endswith("\n")


def test_save_load_roundtrip(tmp_path):
    scenario = demo_scenario()
    path = scenario.save(tmp_path / "demo.json")
    loaded = Scenario.load(path)
    assert loaded.to_json() == scenario.to_json()
    assert len(loaded) == 4


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError, match="invalid scenario JSON"):
        Scenario.load(path)
    with pytest.raises(ConfigurationError, match="cannot read"):
        Scenario.load(tmp_path / "absent.json")


def test_from_json_rejects_non_object():
    with pytest.raises(ConfigurationError, match="must be an object"):
        Scenario.from_json("[1, 2]")
