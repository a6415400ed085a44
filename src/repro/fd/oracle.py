"""Oracle (definitional) failure detectors.

An oracle detector computes its output directly from the *actual* failure
pattern of the run — it exchanges no messages.  Oracles serve two purposes:

* they give the consensus algorithms a detector whose behaviour is exactly
  the class definition, so algorithm tests isolate the algorithm from
  detector implementation artifacts, and
* their misbehaviour before a configurable *stabilization time* is fully
  scriptable, which is how the adversarial runs of the paper's proofs
  (notably Theorem 3's "everybody suspects everybody, then the worst
  possible leader stabilizes") are constructed.

The pre-stabilization behaviours:

``"erratic"``
    Random suspicions of arbitrary processes and a randomly changing trusted
    process — the generic adversary.
``"suspect-all"``
    Every process suspects every other process and trusts itself (the
    Theorem 3 adversary; with multiple self-trusting processes the ◇C
    consensus sees multiple simultaneous coordinators).
``"ideal"``
    Class-ideal output from time 0 (nice runs).

After stabilization the output is class-ideal, modulo the *slander* set:
◇S/◇W/◇C permit some correct processes to be suspected forever, and several
experiments (E7, Theorem 3) rely on exercising exactly that freedom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from ..errors import ConfigurationError
from ..types import ProcessId, Time
from .base import FailureDetector
from .classes import (
    EVENTUALLY_CONSISTENT,
    EVENTUALLY_PERFECT,
    EVENTUALLY_QUASI_PERFECT,
    EVENTUALLY_STRONG,
    EVENTUALLY_WEAK,
    FDClass,
    OMEGA,
    PERFECT,
)

__all__ = ["OracleConfig", "OracleFailureDetector", "oracle_factory"]


@dataclass(frozen=True)
class OracleConfig:
    """Behaviour script for an oracle detector.

    Attributes:
        stabilize_time: from this time on the output is class-ideal.
        pre_behavior: ``"erratic"``, ``"suspect-all"`` or ``"ideal"``.
        leader: the designated eventual leader; ``None`` picks the smallest
            currently-correct process id (which stabilizes once crashes
            stop).  Must be a correct process for class guarantees to hold.
        slander: correct processes that stay suspected forever (allowed by
            eventual *weak* accuracy; ignored by ◇P/P oracles).  The leader
            is always removed from this set.
        detection_lag: how long after a crash the ideal output starts
            suspecting the crashed process.
        poll_period: how often each module re-computes its output.
        erratic_suspect_prob: per-process suspicion probability in the
            erratic pre-behaviour.
    """

    stabilize_time: Time = 0.0
    pre_behavior: str = "erratic"
    leader: Optional[ProcessId] = None
    slander: FrozenSet[ProcessId] = field(default_factory=frozenset)
    detection_lag: Time = 0.0
    poll_period: Time = 1.0
    erratic_suspect_prob: float = 0.3

    def __post_init__(self) -> None:
        if self.pre_behavior not in ("erratic", "suspect-all", "ideal"):
            raise ConfigurationError(
                f"unknown pre_behavior {self.pre_behavior!r}"
            )
        if self.poll_period <= 0:
            raise ConfigurationError("poll_period must be positive")


class OracleFailureDetector(FailureDetector):
    """A scriptable, message-free detector of any class (see module doc)."""

    def __init__(
        self,
        fd_class: FDClass,
        config: Optional[OracleConfig] = None,
        channel: str = "fd",
    ) -> None:
        super().__init__(channel)
        self.fd_class = fd_class
        self.config = config if config is not None else OracleConfig()

    # ------------------------------------------------------------ life cycle
    def on_start(self) -> None:
        self._recompute()
        super().on_start()
        self.periodically(self.config.poll_period, self._recompute)

    # -------------------------------------------------------------- internals
    def _crashed_now(self) -> FrozenSet[ProcessId]:
        """Processes whose crash is at least ``detection_lag`` old."""
        lag = self.config.detection_lag
        now = self.now
        return frozenset(
            p.pid
            for p in self.world.processes
            if p.crashed and p.crash_time is not None and now >= p.crash_time + lag
        )

    def _leader(self) -> Optional[ProcessId]:
        if self.config.leader is not None:
            return self.config.leader
        correct = self.world.correct_pids
        return min(correct) if correct else None

    _ideal_epoch: int = -1

    def _recompute(self) -> None:
        cfg = self.config
        if self.now < cfg.stabilize_time and cfg.pre_behavior != "ideal":
            suspected, trusted = self._pre_stable_output()
            self._ideal_epoch = -1
        else:
            # Ideal output depends only on the failure pattern (unless a
            # detection lag makes it time-dependent); skip recomputation
            # when no crash happened since the last poll — profiling shows
            # oracle polling dominating long adversarial runs otherwise.
            if (
                cfg.detection_lag == 0.0
                and self._ideal_epoch == self.world.crash_epoch
            ):
                return
            suspected, trusted = self._ideal_output()
            if cfg.detection_lag == 0.0:
                self._ideal_epoch = self.world.crash_epoch
        self._set_output(suspected=suspected, trusted=trusted)

    def _pre_stable_output(self):
        cfg = self.config
        others = [q for q in range(self.n) if q != self.pid]
        if cfg.pre_behavior == "suspect-all":
            return frozenset(others), self.pid
        # erratic
        rng = self.rng
        suspected = frozenset(
            q for q in others if rng.random() < cfg.erratic_suspect_prob
        )
        trusted = rng.randrange(self.n)
        return suspected, trusted

    def _ideal_output(self):
        cls = self.fd_class
        crashed = self._crashed_now()
        leader = self._leader()
        slander = self.config.slander - ({leader} if leader is not None else set())

        # --- suspect set, by completeness/accuracy contract -----------------
        if cls in (PERFECT, EVENTUALLY_PERFECT):
            suspected = crashed
        elif cls is EVENTUALLY_QUASI_PERFECT:
            # Weak completeness: only the designated witness (the smallest
            # correct process) suspects the crashed ones.
            witness = min(self.world.correct_pids, default=None)
            suspected = crashed if self.pid == witness else frozenset()
        elif cls in (EVENTUALLY_STRONG, EVENTUALLY_CONSISTENT):
            suspected = crashed | slander
        elif cls is EVENTUALLY_WEAK:
            witness = min(self.world.correct_pids, default=None)
            suspected = (crashed | slander) if self.pid == witness else slander
        elif cls is OMEGA:
            # Ω implicitly suspects everyone but the leader.
            suspected = frozenset(
                q for q in range(self.n) if q != leader
            )
        else:  # pragma: no cover - future classes
            raise ConfigurationError(f"oracle cannot model class {cls}")
        suspected -= {self.pid}

        # --- trusted process -------------------------------------------------
        if cls.leader:
            trusted = leader
        else:
            trusted = None
        return suspected, trusted


class ScriptedFailureDetector(FailureDetector):
    """A detector whose output follows an explicit per-process script.

    ``script(pid, now)`` must return ``(suspected, trusted)``; it is
    re-evaluated every *poll_period*.  This is the instrument for
    experiments that need *heterogeneous* detector views — e.g. E7's
    "some processes permanently nack the coordinator" scenario, which no
    single class-ideal oracle can produce.
    """

    def __init__(self, script, poll_period: Time = 1.0, channel: str = "fd") -> None:
        super().__init__(channel)
        if poll_period <= 0:
            raise ConfigurationError("poll_period must be positive")
        self.script = script
        self.poll_period = poll_period

    def on_start(self) -> None:
        self._apply()
        super().on_start()
        self.periodically(self.poll_period, self._apply)

    def _apply(self) -> None:
        suspected, trusted = self.script(self.pid, self.now)
        self._set_output(
            suspected=frozenset(suspected) - {self.pid}, trusted=trusted
        )


def oracle_factory(
    fd_class: FDClass,
    config: Optional[OracleConfig] = None,
    channel: str = "fd",
):
    """Return a per-pid factory for :meth:`World.attach_all`."""

    def factory(pid: ProcessId) -> OracleFailureDetector:
        return OracleFailureDetector(fd_class, config, channel)

    return factory
