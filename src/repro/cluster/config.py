"""What one node runs: :class:`NodeConfig`, the single settings value.

Every process of the paper runs the same handful of parameters — the
Fig. 2 / Ω send period and an adaptive timeout (initial value +
increment), with Theorem 1's 2(n−1) counted *per that period* — so "what
a node runs" is one value the virtual, in-process and kill -9 substrates
must agree on: frozen, keyword-only, validated once at construction.
Its field table is the only place a setting is spelled, defaulted,
range-checked and given a flag; both cluster substrates expose the value
as ``cluster.config``, the address book stores it flat, the CLI generates
its flags from it.  Adding a node setting is one new field here and one
use of it where the stack is attached.
"""

from __future__ import annotations

import argparse
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from ..errors import ConfigurationError
from ..obs.live import parse_ship_address
from ..types import Time

__all__ = [
    "NodeConfig",
    "CONFIG_FIELDS",
    "STACKS",
    "add_config_flags",
    "config_from_args",
]

#: Deployable stack flavours: suspect-source variants of the one-shot
#: consensus pipeline, plus ``rsm`` — the same ◇C detectors driving a
#: slot-by-slot :class:`~repro.consensus.multi.ReplicatedStateMachine`
#: instead of a single consensus instance (the service substrate).
STACKS = ("ring", "heartbeat", "rsm")


def _positive(name: str, value: Any) -> None:
    if not (isinstance(value, (int, float)) and value > 0):
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")


def _at_least_one(name: str, value: Any) -> None:
    if not (isinstance(value, int) and value >= 1):
        raise ConfigurationError(f"{name} must be an integer >= 1, got {value!r}")


def _one_of(choices: Sequence[str]) -> Callable[[str, Any], None]:
    def check(name: str, value: Any) -> None:
        if value not in choices:
            raise ConfigurationError(
                f"unknown {name} {value!r}; pick one of {tuple(choices)}"
            )

    return check


def _setting(default: Any, check: Optional[Callable[[str, Any], None]],
             **flag: Any) -> Any:
    """One row of the field table: *default*, the range *check* (skipped
    for a ``None`` the default allows), and — for settings the CLI
    surfaces — the ``flag`` spelling plus its argparse ``help`` / ``type``
    / ``metavar`` / ``choices``."""
    return field(default=default, metadata={"check": check, **flag})


@dataclass(frozen=True, kw_only=True)
class NodeConfig:
    """The nine settings a node consumes (see module docstring)."""

    stack: str = _setting(
        "ring", _one_of(STACKS), flag="--stack", choices=STACKS,
        help="suspect source feeding the <>C combiner, or 'rsm' for the "
             "replicated-state-machine service substrate (slot-by-slot "
             "consensus instead of a single instance)")
    period: Time = _setting(
        0.05, _positive, flag="--period", type=float,
        help="heartbeat period in cluster seconds: the Fig. 2 / Omega "
             "send period every timeout is scaled from")
    #: ``None`` resolves to 2.4 × ``period`` (below, and only there).
    initial_timeout: Optional[Time] = _setting(None, _positive)
    #: ``None`` resolves to 1 × ``period``.
    timeout_increment: Optional[Time] = _setting(None, _positive)
    seed: int = _setting(
        0, None, flag="--seed", type=int,
        help="rng seed of the run (fault-plan loss streams, node rngs)")
    metrics_interval: Optional[Time] = _setting(
        None, _positive, flag="--metrics-interval", type=float,
        metavar="SECONDS",
        help="attach a metrics reporter on every node emitting "
             "obs.metrics_snapshot trace events at this interval")
    max_batch: int = _setting(
        64, _at_least_one, flag="--max-batch", type=int, metavar="N",
        help="most commands one consensus slot may carry on the rsm "
             "stack (1 restores the legacy one-command-per-slot shape)")
    pipeline_depth: int = _setting(
        4, _at_least_one, flag="--pipeline-depth", type=int, metavar="N",
        help="how many rsm consensus slots may run concurrently "
             "(1 disables pipelining)")
    ship_to: Optional[str] = _setting(
        None, lambda name, value: parse_ship_address(value),
        flag="--ship-to", metavar="HOST:PORT",
        help="stream every trace event to a live collector at this "
             "address as the run happens (start one with `repro watch "
             "--connect HOST:PORT`)")

    def __post_init__(self) -> None:
        for spec in fields(self):
            value, check = getattr(self, spec.name), spec.metadata["check"]
            if check is not None and not (value is None and spec.default is None):
                check(spec.name, value)
        # The paper's adaptive timeout, scaled from the (validated) period
        # here and nowhere else: ≈ 2.4 periods to start, one per mistake.
        if self.initial_timeout is None:
            object.__setattr__(self, "initial_timeout", 2.4 * self.period)
        if self.timeout_increment is None:
            object.__setattr__(self, "timeout_increment", self.period)

    def to_dict(self) -> Dict[str, Any]:
        """The settings as a flat dict, in field order (the keys the
        address book stores; timeouts already resolved)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, settings: Mapping[str, Any]) -> "NodeConfig":
        """Build from flat keywords; an unknown one is a
        :class:`ConfigurationError` (not silently ignored)."""
        unknown = sorted(set(settings) - set(CONFIG_FIELDS))
        if unknown:
            raise ConfigurationError(
                f"unknown node settings {unknown}; known: {CONFIG_FIELDS}"
            )
        return cls(**settings)


#: The setting names, in field (= ``book.json``) order.
CONFIG_FIELDS = tuple(spec.name for spec in fields(NodeConfig))


def add_config_flags(parser: Any, *names: str) -> None:
    """Add the flags of the named settings to *parser* (or an argument
    group), straight from the field table.  A subcommand names the subset
    it exposes and states any default of its own with ``set_defaults``."""
    for name in names:
        spec = NodeConfig.__dataclass_fields__[name]
        meta = dict(spec.metadata)
        del meta["check"]
        parser.add_argument(meta.pop("flag"), default=spec.default, **meta)


def config_from_args(args: argparse.Namespace, **overrides: Any) -> NodeConfig:
    """The :class:`NodeConfig` a parsed command line asks for: every
    setting the subcommand has a flag for, then *overrides* (what the
    command fixes itself, e.g. ``stack="rsm"``)."""
    settings = {
        name: getattr(args, name)
        for name in CONFIG_FIELDS if hasattr(args, name)
    }
    settings.update(overrides)
    return NodeConfig.from_dict(settings)
