"""The in-flight message record used by the network layer."""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Any, NamedTuple, Optional

from ..types import Channel, ProcessId, Time

__all__ = ["Message"]


class Message(NamedTuple):
    """A single point-to-point message.

    ``channel`` separates coexisting protocol components on the same process
    (e.g. a failure detector and a consensus algorithm); ``payload`` is the
    protocol-level content and is never inspected by the network.  ``tag``
    and ``round`` are optional metadata mirrored into the trace so the
    analysis layer can count messages per protocol step without decoding
    payloads.

    A tuple, because every message of a run is built on the send path: it
    is cheaper to build than a frozen dataclass, and as immutable.
    """

    src: ProcessId
    dst: ProcessId
    channel: Channel
    payload: Any
    send_time: Time
    tag: Optional[str] = None
    round: Optional[int] = None

    @property
    def is_self_message(self) -> bool:
        """``True`` for loopback messages a process sends to itself."""
        return self.src == self.dst

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")
