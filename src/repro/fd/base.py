"""Failure-detector module base class.

A failure detector is a :class:`~repro.sim.component.Component` that
maintains two outputs, matching Section 2 of the paper:

* ``suspected()`` — the set :math:`D.suspected_p` of processes this module
  currently believes to have crashed;
* ``trusted()`` — the process :math:`D.trusted_p` this module currently
  trusts (``None`` when the detector class provides no leader output).

Whenever either output changes the module

1. records an ``fd`` trace event (the property checkers in
   :mod:`repro.analysis.fd_properties` reconstruct full output histories
   from these),
2. notifies local subscribers (e.g. a stacked transformation), and
3. pokes every other component on the same process, so consensus tasks
   blocked on conditions like ``coordinator in D.suspected`` wake up.

Algorithms only ever interact with their *local* module, as in the paper.

:class:`TimeoutDetector` is the one home of the timeout rule every
timeout-based detector here shares (the partial-synchrony argument of
Fig. 2, Tasks 3–4): a peer is suspected once it has been silent longer
than its timeout, and a premature suspicion widens that timeout.  A
timeout policy other than the fixed increment plugs in there.
"""

from __future__ import annotations

from typing import (
    Callable, Collection, Dict, FrozenSet, List, Optional, Sequence, Set,
)

from ..errors import ConfigurationError
from ..sim.component import Component
from ..types import ProcessId, Time

__all__ = ["FailureDetector", "TimeoutDetector", "first_non_suspected"]


class FailureDetector(Component):
    """Base class of every failure-detector module."""

    channel = "fd"

    def __init__(self, channel: Optional[str] = None) -> None:
        super().__init__(channel)
        self._suspected: FrozenSet[ProcessId] = frozenset()
        self._trusted: Optional[ProcessId] = None
        self._listeners: List[Callable[["FailureDetector"], None]] = []

    # --------------------------------------------------------------- queries
    def suspected(self) -> FrozenSet[ProcessId]:
        """The current set of suspected processes (``D.suspected_p``)."""
        return self._suspected

    def trusted(self) -> Optional[ProcessId]:
        """The currently trusted process (``D.trusted_p``), or ``None``."""
        return self._trusted

    def suspects(self, q: ProcessId) -> bool:
        """``True`` iff *q* is currently suspected."""
        return q in self._suspected

    # ----------------------------------------------------------- subscribers
    def subscribe(self, callback: Callable[["FailureDetector"], None]) -> None:
        """Register *callback(detector)* to run on every output change."""
        self._listeners.append(callback)

    # -------------------------------------------------------------- internal
    def on_start(self) -> None:
        """Record the initial output so histories start at time 0."""
        self._record_output()

    def _set_output(
        self,
        suspected: Optional[FrozenSet[ProcessId]] = None,
        trusted: Optional[ProcessId] = "__keep__",  # type: ignore[assignment]
    ) -> None:
        """Update outputs; propagates notifications only on a real change.

        ``trusted`` uses the sentinel ``"__keep__"`` so that ``None`` (no
        trusted process) remains a settable value.
        """
        changed = False
        if suspected is not None and suspected != self._suspected:
            self._suspected = frozenset(suspected)
            self.metrics.inc("fd_suspicion_flips_total", channel=self.channel)
            self.metrics.set(
                "fd_suspected_size", len(self._suspected), channel=self.channel
            )
            changed = True
        if trusted != "__keep__" and trusted != self._trusted:
            self._trusted = trusted  # type: ignore[assignment]
            self.metrics.inc("fd_leader_changes_total", channel=self.channel)
            changed = True
        if not changed:
            return
        self._record_output()
        for listener in self._listeners:
            listener(self)
        self.process.notify_fd_change(self)

    def _record_output(self) -> None:
        self.trace(
            "fd",
            channel=self.channel,
            suspected=self._suspected,
            trusted=self._trusted,
        )


class TimeoutDetector(FailureDetector):
    """A failure detector that watches its peers with adaptive timeouts.

    Every peer *q* has a last-heard time and a timeout Δp(q); *q* has
    expired once ``now - last_heard > timeout`` (strictly).  The subclass
    says what counts as hearing from *q* (it writes ``_last_heard[q]``),
    restarts the watch when it begins watching a peer (:meth:`_restart`),
    and widens the timeout on a premature suspicion (:meth:`_widen`), so
    on partially synchronous links each peer is wrongly suspected only
    finitely often.

    Parameters:
        period: the period at which watched peers are heard from (η).
        initial_timeout: starting timeout applied to every peer.
        timeout_increment: added to a peer's timeout on every false
            suspicion (the adaptation step of the partial-synchrony proof).
        check_period: how often timeouts are evaluated (defaults to
            ``period / 2``).
    """

    def __init__(
        self,
        period: Time = 5.0,
        initial_timeout: Time = 12.0,
        timeout_increment: Time = 5.0,
        check_period: Optional[Time] = None,
        channel: str = "fd",
    ) -> None:
        super().__init__(channel)
        if period <= 0 or initial_timeout <= 0 or timeout_increment < 0:
            raise ConfigurationError(
                f"{type(self).__name__}: period and initial_timeout must be "
                "positive and timeout_increment >= 0"
            )
        self.period = period
        self.initial_timeout = initial_timeout
        self.timeout_increment = timeout_increment
        self.check_period = check_period if check_period is not None else period / 2
        self._last_heard: Dict[ProcessId, Time] = {}
        self._timeout: Dict[ProcessId, Time] = {}

    def on_start(self) -> None:
        """Watch every peer from now, at the initial timeout."""
        now = self.now
        for q in range(self.n):
            if q != self.pid:
                self._last_heard[q] = now
                self._timeout[q] = self.initial_timeout
        super().on_start()

    def _restart(self, q: ProcessId) -> None:
        """Begin watching *q* afresh: its silence counts from now."""
        self._last_heard[q] = self.now

    def _expired(self, q: ProcessId) -> bool:
        """``True`` iff *q* has been silent for longer than its timeout."""
        return self.now - self._last_heard[q] > self._timeout[q]

    def _overdue(self, known: Collection[ProcessId]) -> Set[ProcessId]:
        """The peers outside *known* whose timeout has run out (one sweep)."""
        now = self.now
        timeout = self._timeout
        return {
            q
            for q, heard in self._last_heard.items()
            if q not in known and now - heard > timeout[q]
        }

    def _widen(self, q: ProcessId) -> None:
        """A premature suspicion of *q*: grow its timeout, and count it."""
        self._timeout[q] += self.timeout_increment
        self.metrics.inc("fd_timeout_adaptations_total", channel=self.channel)

    def timeout_of(self, q: ProcessId) -> Time:
        """Current adaptive timeout for peer *q* (for tests/benchmarks)."""
        return self._timeout[q]


def first_non_suspected(
    suspected: FrozenSet[ProcessId],
    n: int,
    order: Optional[Sequence[ProcessId]] = None,
) -> Optional[ProcessId]:
    """The first process (in *order*, default ``0..n-1``) not in *suspected*.

    This is the leader-extraction rule the paper uses to build ◇C on top of
    ◇P ("the first process not in that set, with respect to the order
    assumed in the system model") and on top of the ring algorithm.
    Returns ``None`` when every process is suspected.
    """
    for pid in (order if order is not None else range(n)):
        if pid not in suspected:
            return pid
    return None
