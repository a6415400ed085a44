"""NodeConfig, driven by its own field table: a new field is covered by
these tests without a new test."""

import argparse
import dataclasses

import pytest

from repro.cluster.config import (
    CONFIG_FIELDS,
    NodeConfig,
    add_config_flags,
    config_from_args,
)
from repro.errors import ConfigurationError
from repro.proc import AddressBook

SPECS = {spec.name: spec for spec in dataclasses.fields(NodeConfig)}
FLAGGED = tuple(name for name in CONFIG_FIELDS if "flag" in SPECS[name].metadata)

#: A valid non-default value and an invalid one per value *shape*; a field
#: picks its shape from its own metadata (see :func:`shape`).
SAMPLES = {
    "choice": (lambda spec: spec.metadata["choices"][-1], "nonsense"),
    "positive": (lambda spec: 0.75, 0),
    "count": (lambda spec: 3, 0),
    "address": (lambda spec: "127.0.0.1:7000", "nonsense"),
    "free": (lambda spec: 11, None),
}


def shape(spec):
    if "choices" in spec.metadata:
        return "choice"
    if spec.metadata.get("metavar") == "HOST:PORT":
        return "address"
    if spec.metadata["check"] is None:
        return "free"
    return "count" if isinstance(spec.default, int) else "positive"


def good(name):
    return SAMPLES[shape(SPECS[name])][0](SPECS[name])


def bad(name):
    return SAMPLES[shape(SPECS[name])][1]


def test_exactly_the_nine_settings():
    assert CONFIG_FIELDS == (
        "stack", "period", "initial_timeout", "timeout_increment", "seed",
        "metrics_interval", "max_batch", "pipeline_depth", "ship_to",
    )


def test_frozen_and_keyword_only():
    config = NodeConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.period = 1.0
    with pytest.raises(TypeError):
        NodeConfig("ring")


# ------------------------------------------------------------- validation
@pytest.mark.parametrize("name", CONFIG_FIELDS)
def test_each_field_accepts_a_good_value(name):
    assert getattr(NodeConfig(**{name: good(name)}), name) == good(name)


@pytest.mark.parametrize(
    "name", [n for n in CONFIG_FIELDS if SPECS[n].metadata["check"]]
)
def test_each_checked_field_rejects_a_bad_value(name):
    with pytest.raises(ConfigurationError):
        NodeConfig(**{name: bad(name)})


@pytest.mark.parametrize("name", CONFIG_FIELDS)
def test_none_is_valid_only_where_it_is_the_default(name):
    if SPECS[name].default is None:
        NodeConfig(**{name: None})
    elif SPECS[name].metadata["check"] is not None:
        with pytest.raises(ConfigurationError):
            NodeConfig(**{name: None})


def test_negative_values_are_rejected_too():
    for name in ("period", "initial_timeout", "timeout_increment",
                 "metrics_interval", "max_batch", "pipeline_depth"):
        with pytest.raises(ConfigurationError, match=name):
            NodeConfig(**{name: -1})


# ------------------------------------------------- None-timeout resolution
@pytest.mark.parametrize("period", [0.05, 0.1, 5.0])
def test_unset_timeouts_scale_from_the_period(period):
    config = NodeConfig(period=period)
    assert config.initial_timeout == 2.4 * period
    assert config.timeout_increment == period


def test_explicit_timeouts_are_kept():
    config = NodeConfig(period=5.0, initial_timeout=12.5, timeout_increment=1.0)
    assert (config.initial_timeout, config.timeout_increment) == (12.5, 1.0)


def test_every_entry_point_resolves_timeouts_the_same_way():
    """`attach_standard_stack(cluster, period=5.0)` used to yield a 0.12 s
    initial timeout where `deploy_standard_stack(period=5.0)` gave 12.0."""
    from repro.cluster import LocalCluster, ProcessCluster, attach_standard_stack

    attached = LocalCluster(n=2, clock="virtual")
    stacks = attach_standard_stack(attached, period=5.0)
    deployed = LocalCluster(n=2, clock="virtual")
    deployed.deploy_standard_stack(period=5.0)
    spawned = ProcessCluster(n=2, period=5.0)
    assert attached.config == deployed.config == spawned.config
    assert attached.config.initial_timeout == 12.0
    assert stacks["omega"][0].initial_timeout == 12.0


# ------------------------------------------------------------ flat dicts
def fully_set():
    return NodeConfig(**{name: good(name) for name in CONFIG_FIELDS})


def test_flat_dict_round_trip():
    for config in (NodeConfig(), fully_set()):
        flat = config.to_dict()
        assert tuple(flat) == CONFIG_FIELDS
        assert NodeConfig.from_dict(flat) == config


def test_the_book_carries_the_same_keys_flat():
    config = fully_set()
    book = AddressBook(n=2, **config.to_dict())
    assert book.config == config
    data = book.to_dict()
    for name in CONFIG_FIELDS:
        assert data[name] == getattr(config, name) == getattr(book, name)
    assert AddressBook.from_dict(data).config == config


def test_unknown_setting_is_an_error():
    with pytest.raises(ConfigurationError, match="unknown node settings"):
        NodeConfig.from_dict({"colour": "blue"})


# ---------------------------------------------------------------- argparse
def flags_of(config):
    """The command line that asks for *config* (flagged fields only)."""
    argv = []
    for name in FLAGGED:
        value = getattr(config, name)
        if value is not None:
            argv += [SPECS[name].metadata["flag"], str(value)]
    return argv


def full_parser():
    parser = argparse.ArgumentParser()
    add_config_flags(parser, *FLAGGED)
    return parser


def test_argparse_round_trip():
    flagged = NodeConfig(**{name: good(name) for name in FLAGGED})
    for config in (NodeConfig(), flagged):
        args = full_parser().parse_args(flags_of(config))
        assert config_from_args(args) == config


def test_flag_defaults_are_the_field_defaults():
    args = full_parser().parse_args([])
    for name in FLAGGED:
        assert getattr(args, name) == SPECS[name].default
    assert config_from_args(args) == NodeConfig()


def test_a_subcommand_names_its_subset_and_its_own_defaults():
    parser = argparse.ArgumentParser()
    add_config_flags(parser, "seed", "period")
    parser.set_defaults(seed=7)
    args = parser.parse_args(["--period", "0.2"])
    assert vars(args) == {"seed": 7, "period": 0.2}
    # Settings the subcommand has no flag for come from overrides/defaults.
    config = config_from_args(args, stack="rsm")
    assert (config.seed, config.period, config.stack) == (7, 0.2, "rsm")
    assert config.max_batch == NodeConfig().max_batch


def test_bad_flag_values_fail_in_the_one_validator():
    args = full_parser().parse_args(["--period", "0"])
    with pytest.raises(ConfigurationError, match="period must be > 0"):
        config_from_args(args)
    with pytest.raises(SystemExit):  # choices are argparse's to reject
        full_parser().parse_args(["--stack", "star"])
