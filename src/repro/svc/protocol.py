"""The client wire protocol: length-prefixed codec frames.

Clients and frontends exchange dict payloads through the same
:class:`~repro.net.codec.Codec` the node-to-node transports use — one
structural transform, one set of tags, on every wire this repo owns.
Framing is the shared :mod:`repro.net.frame` contract (a 4-byte
big-endian length prefix, then the encoded body), the same module
:mod:`repro.net.tcp` frames the replica mesh with; frames above
:data:`MAX_FRAME` are protocol bugs, not traffic.

Two message shapes cross the wire:

* a :class:`Request` — ``rid`` (per-connection request id, echoed back so
  a client can discard stale replies after a timeout), ``client`` (the
  session name), ``seq`` (the per-client session sequence number that
  drives exactly-once dedup in :class:`~repro.svc.state.KVStateMachine`),
  ``op`` and its operands;
* a :class:`Reply` — the echoed ``rid`` plus a status: ``ok`` carries the
  state machine's result dict, ``error`` a human-readable reason, and
  ``redirect`` the pid (and, when known, the serve address) of the
  leader the client should retry against.

Every frame is JSON (:func:`~repro.net.codec.default_codec`) on every
host, so a client and a frontend never have to agree on a format.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..net.codec import Codec, CodecError
from ..net.frame import (
    FrameOversizeError,
    FrameTruncatedError,
    encode_frame as _frame,
    read_frame_bytes,
    write_frame as _write_frame,
)

__all__ = [
    "MAX_FRAME",
    "ProtocolError",
    "Request",
    "Reply",
    "encode_frame",
    "read_frame",
    "write_frame",
]

#: Client frames are small command/result dicts; anything near this is a bug.
MAX_FRAME = 1024 * 1024


class ProtocolError(Exception):
    """A frame violated the client wire protocol."""


@dataclass
class Request:
    """One client request (see module docstring for field semantics)."""

    rid: int
    client: str
    op: str
    seq: Optional[int] = None
    key: Optional[str] = None
    value: Any = None
    expect: Any = None
    #: Causal-span correlation id (``"<client>.<seq>"``), minted once per
    #: sequenced command and shared by all its retries; omitted (None)
    #: on unsequenced requests.
    span: Optional[str] = None

    def to_payload(self) -> Dict[str, Any]:
        payload = {
            "rid": self.rid, "client": self.client, "op": self.op,
            "seq": self.seq, "key": self.key, "value": self.value,
            "expect": self.expect,
        }
        if self.span is not None:
            payload["span"] = self.span
        return payload

    @classmethod
    def from_payload(cls, payload: Any) -> "Request":
        if not isinstance(payload, dict):
            raise ProtocolError(f"request frame is not a dict: {payload!r}")
        try:
            span = payload.get("span")
            return cls(
                rid=int(payload["rid"]),
                client=str(payload["client"]),
                op=str(payload["op"]),
                seq=payload.get("seq"),
                key=payload.get("key"),
                value=payload.get("value"),
                expect=payload.get("expect"),
                span=str(span) if span is not None else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed request frame: {exc}") from exc

    def command(self) -> Dict[str, Any]:
        """The replicated-log payload this request submits (no ``rid`` —
        retries get fresh rids but must hash to the same command)."""
        command = {
            "client": self.client, "seq": self.seq, "op": self.op,
            "key": self.key, "value": self.value, "expect": self.expect,
        }
        if self.span is not None:
            # Rides the log so every replica can emit span.* stage events;
            # the state machine dedups on (client, seq) and ignores it.
            command["span"] = self.span
        return command


@dataclass
class Reply:
    """One frontend reply; ``status`` is ``ok`` / ``error`` / ``redirect``."""

    rid: int
    status: str
    result: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    leader: Optional[int] = None
    addr: Optional[Tuple[str, int]] = None

    def to_payload(self) -> Dict[str, Any]:
        return {
            "rid": self.rid, "status": self.status, "result": self.result,
            "error": self.error, "leader": self.leader, "addr": self.addr,
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "Reply":
        if not isinstance(payload, dict):
            raise ProtocolError(f"reply frame is not a dict: {payload!r}")
        try:
            addr = payload.get("addr")
            return cls(
                rid=int(payload["rid"]),
                status=str(payload["status"]),
                result=dict(payload.get("result") or {}),
                error=payload.get("error"),
                leader=payload.get("leader"),
                addr=(str(addr[0]), int(addr[1])) if addr else None,
            )
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ProtocolError(f"malformed reply frame: {exc}") from exc


def _encode_body(codec: Codec, payload: Any) -> bytes:
    try:
        body = codec.encode_payload(payload)
    except CodecError as exc:
        raise ProtocolError(f"unencodable frame payload: {exc}") from exc
    if len(body) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME={MAX_FRAME}"
        )
    return body


def encode_frame(codec: Codec, payload: Any) -> bytes:
    """Serialize *payload* as one length-prefixed frame buffer."""
    return _frame(_encode_body(codec, payload))


def write_frame(
    writer: asyncio.StreamWriter, codec: Codec, payload: Any
) -> None:
    """Queue *payload* on *writer* as a frame, body bytes uncopied."""
    _write_frame(writer, _encode_body(codec, payload))


async def read_frame(reader: asyncio.StreamReader, codec: Codec) -> Any:
    """Read and decode one frame; ``None`` on clean EOF.

    A length above :data:`MAX_FRAME` or an undecodable body raises
    :class:`ProtocolError` — the caller drops the connection (the stream
    is unrecoverable once out of sync).
    """
    try:
        body = await read_frame_bytes(reader, MAX_FRAME)
    except FrameOversizeError as exc:
        raise ProtocolError(str(exc)) from exc
    except (FrameTruncatedError, ConnectionError):
        return None
    if body is None:
        return None
    try:
        return codec.decode_payload(body)
    except CodecError as exc:
        raise ProtocolError(f"undecodable frame body: {exc}") from exc
