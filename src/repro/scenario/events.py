"""The scenario DSL: timed fault events and the :class:`Scenario` document.

A scenario is a *compiled schedule*: a list of ``(time, op, args)``
triples over the :data:`~repro.sim.faults.FAULT_OPS` vocabulary, plus the
run parameters the schedule was built for (``n``, ``period``,
``duration``, ``propose_after``).  It is declarative — nothing executes
here; :func:`repro.scenario.runner.apply_scenario` turns each event into
one ``cluster.fault(op, args, at=time)`` call, on either substrate.

Scenarios serialize to a small canonical JSON document (sorted keys,
events time-ordered), so "same seed ⇒ byte-identical schedule" is a
testable statement about :meth:`Scenario.to_json`:

.. code-block:: json

    {
      "duration": 4.0,
      "events": [
        {"op": "partition", "groups": [[0], [1, 2]], "t": 0.5},
        {"op": "heal", "t": 1.0},
        {"op": "stall", "pid": 2, "t": 1.5},
        {"op": "resume", "pid": 2, "t": 2.0}
      ],
      "n": 3,
      "name": "demo",
      "period": 0.05,
      "propose_after": 2.5,
      "seed": null
    }

Validation is eager and structural (:func:`~repro.sim.faults.check_fault`):
unknown ops, missing/unknown args, out-of-range pids (when ``n`` is set),
and out-of-bounds probabilities are all
:class:`~repro.errors.ConfigurationError` at construction, not mid-run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..cluster.config import NodeConfig
from ..errors import ConfigurationError
from ..sim.faults import FAULT_OPS as OP_SPECS, check_fault
from ..types import Time

__all__ = ["ScenarioEvent", "Scenario", "OP_SPECS"]


def _r(value: float) -> float:
    """Round to microseconds: canonical JSON without float noise."""
    return round(value, 6)


@dataclass(frozen=True)
class ScenarioEvent:
    """One timed fault: apply *op* with *args* at cluster time *time*."""

    time: Time
    op: str
    args: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Pid ranges are checked by Scenario, which knows the cluster size.
        check_fault(self.op, self.args)
        if self.time < 0:
            raise ConfigurationError(
                f"scenario event time {self.time} must be >= 0"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {"t": self.time, "op": self.op, **self.args}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioEvent":
        data = dict(data)
        try:
            time = data.pop("t")
            op = data.pop("op")
        except KeyError as exc:
            raise ConfigurationError(
                f"scenario event needs 't' and 'op' keys, got {data!r}"
            ) from exc
        # JSON round-trips partition groups as lists of lists; normalize
        # numeric arg types so to_json stays canonical.
        return cls(time=float(time), op=str(op), args=data)


_SCENARIO_KEYS = (
    "name", "n", "seed", "period", "duration", "propose_after", "events",
)


@dataclass
class Scenario:
    """A named, parameterized fault schedule (see module docstring).

    ``n`` / ``period`` / ``duration`` / ``propose_after`` are the run
    parameters the schedule assumes; a document may leave any of them
    ``None`` and :meth:`resolved` fills it in — the cluster is built from
    the resolved value (:func:`repro.scenario.cluster_for`).  ``seed``
    records the generator seed for provenance (``None`` for hand-written
    scenarios).
    """

    name: str = "scenario"
    n: Optional[int] = None
    seed: Optional[int] = None
    period: Optional[Time] = None
    duration: Optional[Time] = None
    propose_after: Optional[Time] = None
    events: List[ScenarioEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n is not None and self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        self.events = [
            event if isinstance(event, ScenarioEvent)
            else ScenarioEvent.from_dict(event)
            for event in self.events
        ]
        # Canonical order: by time, ties kept in authored order (sort is
        # stable), so equal scenarios serialize equal.
        self.events.sort(key=lambda event: event.time)
        if self.n is not None:
            for event in self.events:
                try:
                    check_fault(event.op, event.args, self.n)
                except ConfigurationError as exc:
                    raise ConfigurationError(
                        f"scenario op {event.op!r} at t={event.time}: {exc}"
                    ) from None
        if self.duration is not None:
            late = [e for e in self.events if e.time > self.duration]
            if late:
                raise ConfigurationError(
                    f"{len(late)} scenario event(s) scheduled after the "
                    f"declared duration {self.duration} (first: "
                    f"{late[0].op!r} at t={late[0].time})"
                )

    # ------------------------------------------------------------------ serde
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "n": self.n,
            "seed": self.seed,
            "period": self.period,
            "duration": self.duration,
            "propose_after": self.propose_after,
            "events": [event.to_dict() for event in self.events],
        }

    def to_json(self) -> str:
        """The canonical serialization ("same seed ⇒ byte-identical")."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        unknown = sorted(set(data) - set(_SCENARIO_KEYS))
        if unknown:
            raise ConfigurationError(f"unknown scenario keys: {unknown}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid scenario JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError("a scenario document must be an object")
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Scenario":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read scenario {path}: {exc}"
            ) from exc
        return cls.from_json(text)

    # ------------------------------------------------------------------ sugar
    @property
    def fault_end(self) -> Time:
        """Time of the last scheduled event (0.0 when empty)."""
        return self.events[-1].time if self.events else 0.0

    def resolved(
        self,
        n: Optional[int] = None,
        period: Optional[Time] = None,
        duration: Optional[Time] = None,
        propose_after: Optional[Time] = None,
        default_n: int = 3,
    ) -> "Scenario":
        """This scenario with every run parameter filled in — how every
        scripted run is sized, whichever command spells it.

        One precedence per field: the explicit argument, else the
        document's own value, else the rule — *default_n* nodes at
        :class:`~repro.cluster.config.NodeConfig`'s heartbeat period,
        proposing 4 periods after the last fault (in the well-behaved
        suffix the ◇-detectors need) and ending 40 periods later (room to
        re-elect, decide, and measure the post-stabilization message
        cost).  Resolving a resolved scenario changes nothing; a
        ``duration`` that cuts the schedule short is the
        :class:`~repro.errors.ConfigurationError` it is at construction.
        """
        def first(*values: Any) -> Any:
            return next(value for value in values if value is not None)

        period = first(period, self.period, NodeConfig().period)
        propose_after = first(
            propose_after, self.propose_after,
            _r(self.fault_end + 4.0 * period),
        )
        return replace(
            self,
            n=first(n, self.n, default_n),
            period=period,
            propose_after=propose_after,
            duration=first(
                duration, self.duration, _r(propose_after + 40.0 * period)
            ),
        )

    def __len__(self) -> int:
        return len(self.events)
