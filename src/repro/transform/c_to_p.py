"""The ◇C → ◇P transformation in partial synchrony (Section 4, Fig. 2).

This is one of the paper's two core contributions.  Given any ◇C (or Ω —
only the ``trusted`` output is queried) detector *D*, the algorithm builds a
◇P detector as follows:

* **Task 1** — every *send_period*, each process that considers itself the
  leader (``D.trusted == self``) sends its local suspect list to every other
  process.  These *output* links only need to be **fair-lossy**.
* **Task 2** — every *alive_period* (Φ), every process sends ``I-AM-ALIVE``
  to its trusted process.  These *input* links of the leader must be
  **partially synchronous** (reliable; bounded unknown delay Δ after GST).
* **Task 3** — a leader suspects any process from which it has not heard an
  ``I-AM-ALIVE`` within that process's adaptive timeout Δp(q).
* **Task 4** — when a leader hears from a process it suspects, it stops
  suspecting it and *increases* Δp(q); after GST the timeout therefore
  exceeds 2Φ+Δ after finitely many mistakes, the key step of Theorem 1.
* **Task 5** — when a process receives a suspect list from the process it
  currently trusts, it adopts that list as its own output.

Steady-state cost: 2(n−1) messages per period (n−1 ``SUSPECTS`` down, n−1
``I-AM-ALIVE`` up), versus n·(n−1) for the all-to-all ◇P — experiment E3.

Engineering notes kept faithful to the proof:

* a leader never suspects itself;
* when a process *becomes* leader its freshness clocks restart (it was not
  collecting ``I-AM-ALIVE`` messages before), which only delays suspicions —
  harmless for the eventual properties — and it publishes its own list at
  once: Fig. 2's output *is* the leader's local list, so a list adopted
  under the previous leader must not outlive the takeover (it would stay
  forever if the own list never changed afterwards);
* a process that stops being leader keeps its last adopted/ built list until
  it adopts from the new leader.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigurationError
from ..fd.base import FailureDetector, TimeoutDetector
from ..types import ProcessId, Time

__all__ = ["CToPTransformation"]

_ALIVE = "I-AM-ALIVE"
_SUSPECTS = "SUSPECTS"


class CToPTransformation(TimeoutDetector):
    """◇P built from the leader elected by a local ◇C/Ω source (Fig. 2).

    The watched period is *alive_period* (Φ): ``period`` is Φ, and the
    timeout parameters are :class:`~repro.fd.base.TimeoutDetector`'s."""

    def __init__(
        self,
        c_source: FailureDetector,
        send_period: Time = 5.0,
        alive_period: Time = 5.0,
        initial_timeout: Time = 12.0,
        timeout_increment: Time = 5.0,
        check_period: Optional[Time] = None,
        channel: str = "fdp",
    ) -> None:
        super().__init__(
            alive_period, initial_timeout, timeout_increment, check_period, channel
        )
        if send_period <= 0:
            raise ConfigurationError("send_period must be positive")
        self.c_source = c_source
        self.send_period = send_period
        self._local_list: set[ProcessId] = set()
        self._was_leader = False

    # ------------------------------------------------------------ life cycle
    def on_start(self) -> None:
        super().on_start()
        self.c_source.subscribe(self._on_source_change)
        self._was_leader = self._is_leader()
        self.periodically(self.send_period, self._task1_send_list)
        self.periodically(self.period, self._task2_send_alive)
        self.periodically(self.check_period, self._task3_check)

    def _is_leader(self) -> bool:
        return self.c_source.trusted() == self.pid

    def _on_source_change(self, _source: FailureDetector) -> None:
        leader_now = self._is_leader()
        if leader_now and not self._was_leader:
            # Freshness clocks restart on leadership acquisition.
            for q in self._last_heard:
                self._restart(q)
            # ... and the output becomes the own list again: Tasks 3/4
            # publish only when that list changes, so without this the
            # list adopted under the previous leader could stay forever.
            self._publish()
        self._was_leader = leader_now

    # --------------------------------------------------------------- Task 1
    def _task1_send_list(self) -> None:
        if self._is_leader():
            self.broadcast(
                (_SUSPECTS, frozenset(self._local_list)), tag="suspects"
            )

    # --------------------------------------------------------------- Task 2
    def _task2_send_alive(self) -> None:
        trusted = self.c_source.trusted()
        if trusted is not None and trusted != self.pid:
            self.send(trusted, _ALIVE, tag="alive")

    # --------------------------------------------------------------- Task 3
    def _task3_check(self) -> None:
        if not self._is_leader():
            return
        overdue = self._overdue(self._local_list)
        if overdue:
            self._local_list |= overdue
            self._publish()

    # --------------------------------------------------------- Tasks 4 and 5
    def on_message(self, src: ProcessId, payload: object) -> None:
        if payload == _ALIVE:
            self._last_heard[src] = self.now
            if src in self._local_list:
                # Task 4: false suspicion — retract and widen the timeout.
                self._local_list.discard(src)
                self._widen(src)
                if self._is_leader():
                    self._publish()
            return
        kind, suspects = payload  # type: ignore[misc]
        if kind == _SUSPECTS and self.c_source.trusted() == src:
            # Task 5: adopt the leader's list.
            self._set_output(suspected=frozenset(suspects) - {self.pid})

    # ---------------------------------------------------------------- output
    def _publish(self) -> None:
        self._set_output(suspected=frozenset(self._local_list))

    #: Current adaptive timeout Δp(q), the paper's name for ``timeout_of``.
    delta_of = TimeoutDetector.timeout_of
