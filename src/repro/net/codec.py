"""Wire codecs for :class:`~repro.sim.message.Message`.

The protocol layer exchanges rich Python values — nested tuples, dicts with
integer keys (ring knowledge maps), frozensets (suspect lists), and the
:data:`~repro.consensus.ec_consensus.NULL` estimate sentinel.  The simulator
passes them by reference; a real network needs bytes.  The codec round-trips
every payload shape the library's protocols produce **exactly** (tuples stay
tuples, int keys stay ints, ``NULL`` stays the singleton), so component code
runs unchanged on both substrates.

The structural transform — the tagged recursion into JSON-safe shape — is
:mod:`repro.obs.encode`, shared with the JSONL trace files (one transform,
one set of tags, on the wire and on disk).  This module adds the message
envelope and the pluggable byte serializer behind the :class:`Codec` seam.
:class:`JsonCodec` is the one wire format: :func:`default_codec` names it,
and every node, frontend and client speaks it on every host, so frames and
traces are the same bytes wherever a run happens.  :class:`MsgpackCodec`
is a second implementation of the seam that no runtime path constructs;
it is kept only for the performance ledger's codec drill.

Broadcast-heavy senders use :meth:`Codec.encode_message_batch`: one
payload/envelope serialization shared across every destination, with only
the per-destination field re-encoded — the batching layer's "encode once
per instance, not once per command" contract extended down to frames.
"""

from __future__ import annotations

import json
from typing import Any, List, Sequence

from ..obs.encode import EncodeError, from_jsonable, to_jsonable
from ..sim.message import Message
from . import mpack

__all__ = [
    "CodecError",
    "Codec",
    "JsonCodec",
    "MsgpackCodec",
    "default_codec",
]


class CodecError(Exception):
    """A payload could not be encoded, or bytes could not be decoded."""


def _to_wire(obj: Any) -> Any:
    try:
        return to_jsonable(obj)
    except EncodeError as exc:
        raise CodecError(str(exc)) from exc


def _from_wire(obj: Any) -> Any:
    try:
        return from_jsonable(obj)
    except EncodeError as exc:
        raise CodecError(str(exc)) from exc


class Codec:
    """Base codec: structural transform + a pluggable byte serializer.

    Subclasses provide :meth:`_dumps` / :meth:`_loads`; everything else —
    the tagged transform and the message envelope — is shared.
    """

    name = "abstract"

    # ------------------------------------------------------------- subclass
    def _dumps(self, obj: Any) -> bytes:
        raise NotImplementedError

    def _loads(self, data: bytes) -> Any:
        raise NotImplementedError

    # ------------------------------------------------------------- payloads
    def encode_payload(self, payload: Any) -> bytes:
        """Serialize one protocol payload."""
        return self._dumps(_to_wire(payload))

    def decode_payload(self, data: bytes) -> Any:
        """Inverse of :meth:`encode_payload`."""
        return _from_wire(self._loads(data))

    # ------------------------------------------------------------- messages
    def encode_message(self, msg: Message) -> bytes:
        """Serialize a full message envelope (src/dst/channel/payload/...)."""
        envelope = {
            "s": msg.src,
            "d": msg.dst,
            "c": msg.channel,
            "p": _to_wire(msg.payload),
            "t": msg.send_time,
            "g": msg.tag,
            "r": msg.round,
        }
        return self._dumps(envelope)

    def encode_message_batch(self, msgs: Sequence[Message]) -> List[bytes]:
        """Serialize same-content messages that differ only in ``dst``.

        The caller guarantees every message shares src/channel/payload/
        send_time/tag/round; subclasses exploit that to run the structural
        transform and payload serialization once.  The base implementation
        just loops — correct for any codec, fast for none.
        """
        return [self.encode_message(msg) for msg in msgs]

    def decode_message(self, data: bytes) -> Message:
        """Inverse of :meth:`encode_message`."""
        try:
            env = self._loads(data)
            return Message(
                src=int(env["s"]),
                dst=int(env["d"]),
                channel=str(env["c"]),
                payload=_from_wire(env["p"]),
                send_time=float(env["t"]),
                tag=env.get("g"),
                round=env.get("r"),
            )
        except CodecError:
            raise
        except Exception as exc:
            raise CodecError(f"undecodable message frame: {exc}") from exc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__}>"


class JsonCodec(Codec):
    """JSON bytes; dependency-free and human-greppable on the wire."""

    name = "json"

    def _dumps(self, obj: Any) -> bytes:
        try:
            return json.dumps(obj, separators=(",", ":"), allow_nan=False).encode()
        except (TypeError, ValueError) as exc:
            raise CodecError(f"not JSON-serializable: {exc}") from exc

    def _loads(self, data: bytes) -> Any:
        try:
            return json.loads(data.decode())
        except (ValueError, UnicodeDecodeError) as exc:
            raise CodecError(f"not valid JSON: {exc}") from exc

    def encode_message_batch(self, msgs: Sequence[Message]) -> List[bytes]:
        if len(msgs) < 2:
            return [self.encode_message(msg) for msg in msgs]
        head = msgs[0]
        shared = self._dumps(
            {
                "s": head.src,
                "c": head.channel,
                "p": _to_wire(head.payload),
                "t": head.send_time,
                "g": head.tag,
                "r": head.round,
            }
        )
        # Splice the per-destination field into the shared envelope: the
        # serializer emits '{"s":...}', and '{"d":N,' + rest is equally
        # valid JSON with the same keys.
        tail = shared[1:]
        return [b'{"d":%d,' % msg.dst + tail for msg in msgs]


class MsgpackCodec(Codec):
    """msgpack bytes — smaller and faster than JSON.

    Backed by the C :mod:`msgpack` extension when importable
    (``impl == "ext"``), by :mod:`repro.net.mpack` otherwise
    (``impl == "pure"``).  Both write canonical msgpack, so frames are
    interchangeable across hosts regardless of which backs each end.
    """

    name = "msgpack"

    def __init__(self) -> None:
        try:
            import msgpack  # type: ignore[import-not-found]
        except ImportError:
            self._msgpack = None
            self.impl = "pure"
        else:
            self._msgpack = msgpack
            self.impl = "ext"

    def _dumps(self, obj: Any) -> bytes:
        try:
            if self._msgpack is not None:
                return self._msgpack.packb(obj, use_bin_type=True)
            return mpack.packb(obj)
        except CodecError:
            raise
        except Exception as exc:
            raise CodecError(f"not msgpack-serializable: {exc}") from exc

    def _loads(self, data: bytes) -> Any:
        try:
            if self._msgpack is not None:
                return self._msgpack.unpackb(
                    data, raw=False, strict_map_key=False
                )
            return mpack.unpackb(data)
        except Exception as exc:
            raise CodecError(f"not valid msgpack: {exc}") from exc

    def encode_message_batch(self, msgs: Sequence[Message]) -> List[bytes]:
        if len(msgs) < 2:
            return [self.encode_message(msg) for msg in msgs]
        head = msgs[0]
        # A 7-entry fixmap whose first pair is "d": header + "d" key, then
        # a per-destination packed int, then the shared remaining 6 pairs.
        prefix = b"\x87" + self._dumps("d")
        tail = b"".join(
            self._dumps(part)
            for part in (
                "s", head.src, "c", head.channel, "p", _to_wire(head.payload),
                "t", head.send_time, "g", head.tag, "r", head.round,
            )
        )
        return [prefix + self._dumps(msg.dst) + tail for msg in msgs]


def default_codec() -> Codec:
    """The wire codec every host speaks: JSON, whatever is installed."""
    return JsonCodec()
