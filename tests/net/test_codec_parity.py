"""JSON ↔ msgpack cross-parity: both codecs must tell the same story.

Three contracts pinned here:

* **semantic parity** — for every payload shape the protocols produce
  (including the RSM's NOOP / bare-command / batch slot values and the
  KV service's request/reply frames), decoding a msgpack encoding yields
  exactly what decoding the JSON encoding yields;
* **canonical bytes** — the pure-Python packer emits the spec's smallest
  representation, pinned against known byte vectors, so frames from a
  pure-Python node and a C-extension node are byte-interchangeable;
* **implementation interchangeability** — when the C extension is
  installed, pure and ext encodings of the whole corpus are identical
  bytes and each decodes the other's output (skipped otherwise).
"""

import asyncio

import pytest

from repro.consensus.ec_consensus import NULL
from repro.consensus.multi import BATCH, NOOP
from repro.net.codec import JsonCodec, MsgpackCodec
from repro.net import mpack
from repro.sim.message import Message
from repro.svc.protocol import Reply, Request, encode_frame, read_frame
from tests.net.test_codec import STRING_SET, payload_cases

JSON = JsonCodec()
MSGPACK = MsgpackCodec()

#: Every payload shape a protocol puts on the wire, including the RSM's
#: three slot-value shapes (NOOP, bare command, batch).
PAYLOADS = [
    None,
    True,
    0,
    -17,
    3.25,
    "HB",
    ("HB", 42),
    ("EST", 3, "value", 7),
    ("PING", {0: (5, 10.0), 1: (6, 12.5), 2: (1, 0.0)}),
    frozenset({1, 2, 4}),
    STRING_SET,
    ("PROP", 2, NULL, -1),
    {(0, 1): "pair-keyed"},
    [],
    {},
    frozenset(),
    ((), (((),),)),
    NOOP,
    (0, 7, {"op": "put", "key": "k1", "value": 3}),
    (BATCH, ((0, 0, "a"), (1, 4, {"op": "get", "key": "k"}))),
    ("CMD", (2, 9, ["x", 1.5, None])),
]


@pytest.mark.parametrize("payload", payload_cases(PAYLOADS), ids=repr)
def test_cross_codec_payload_parity(payload):
    via_json = JSON.decode_payload(JSON.encode_payload(payload))
    via_msgpack = MSGPACK.decode_payload(MSGPACK.encode_payload(payload))
    assert via_msgpack == via_json == payload
    assert type(via_msgpack) is type(via_json) is type(payload)


@pytest.mark.parametrize("payload", payload_cases(PAYLOADS), ids=repr)
def test_cross_codec_message_parity(payload):
    msg = Message(
        src=1, dst=2, channel="rsm.c3", payload=payload,
        send_time=4.5, tag="t", round=6,
    )

    def fields(m):
        return (m.src, m.dst, m.channel, m.payload, m.send_time,
                m.tag, m.round)

    via_json = JSON.decode_message(JSON.encode_message(msg))
    via_msgpack = MSGPACK.decode_message(MSGPACK.encode_message(msg))
    assert fields(via_json) == fields(via_msgpack) == fields(msg)


def test_cross_codec_batch_encode_parity():
    msgs = [
        Message(
            src=0, dst=dst, channel="rsm.c0",
            payload=(BATCH, ((0, 0, "v0"), (0, 1, "v1"))),
            send_time=1.0, tag="est", round=2,
        )
        for dst in (1, 2, 3)
    ]
    for codec in (JSON, MSGPACK):
        frames = codec.encode_message_batch(msgs)
        assert len(frames) == len(msgs)
        for frame, msg in zip(frames, msgs):
            out = codec.decode_message(frame)
            assert (out.dst, out.payload) == (msg.dst, msg.payload)
            # Batch frames are decode-equivalent to single encodes even
            # though envelope key order may differ.
            single = codec.decode_message(codec.encode_message(msg))
            assert (single.dst, single.payload) == (out.dst, out.payload)


# --------------------------------------------------------------- svc frames
def _frame_round_trip(codec, payload_dict):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(encode_frame(codec, payload_dict))
        reader.feed_eof()
        return await read_frame(reader, codec)

    return asyncio.run(run())


@pytest.mark.parametrize("codec", (JSON, MSGPACK), ids=lambda c: c.name)
def test_service_request_frame_parity(codec):
    request = Request(
        rid=7, client="c-1", op="cas", seq=3, key="k",
        value={"v": [1, 2]}, expect=None, span="c-1.3",
    )
    payload = _frame_round_trip(codec, request.to_payload())
    out = Request.from_payload(payload)
    assert (out.rid, out.client, out.op, out.seq) == (7, "c-1", "cas", 3)
    assert out.value == {"v": [1, 2]}
    assert out.span == "c-1.3"


@pytest.mark.parametrize("codec", (JSON, MSGPACK), ids=lambda c: c.name)
def test_service_reply_frame_parity(codec):
    reply = Reply(
        rid=7, status="ok", result={"ok": True, "value": 9},
        leader=2, addr=("127.0.0.1", 4001),
    )
    payload = _frame_round_trip(codec, reply.to_payload())
    out = Reply.from_payload(payload)
    assert (out.rid, out.status, out.leader) == (7, "ok", 2)
    assert out.result == {"ok": True, "value": 9}
    assert tuple(out.addr) == ("127.0.0.1", 4001)


# ------------------------------------------------------------- known vectors
#: Spec-canonical (smallest) encodings; a C-extension peer produces the
#: same bytes, which is what makes mixed pure/ext clusters safe.
VECTORS = [
    (None, b"\xc0"),
    (False, b"\xc2"),
    (True, b"\xc3"),
    (5, b"\x05"),
    (-3, b"\xfd"),
    (200, b"\xcc\xc8"),
    (70000, b"\xce\x00\x01\x11\x70"),
    (-200, b"\xd1\xff\x38"),
    (3.25, b"\xcb\x40\x0a\x00\x00\x00\x00\x00\x00"),
    ("HB", b"\xa2HB"),
    (b"\x01\x02", b"\xc4\x02\x01\x02"),
    ([1, 2], b"\x92\x01\x02"),
    ({"a": 1}, b"\x81\xa1a\x01"),
]


@pytest.mark.parametrize("obj,encoded", VECTORS, ids=lambda v: repr(v)[:32])
def test_pure_packer_canonical_bytes(obj, encoded):
    assert mpack.packb(obj) == encoded
    out = mpack.unpackb(encoded)
    assert out == (list(obj) if isinstance(obj, tuple) else obj)


def test_pure_unpacker_rejects_trailing_and_ext():
    with pytest.raises(mpack.MpackError):
        mpack.unpackb(b"\xc0\xc0")  # trailing byte
    with pytest.raises(mpack.MpackError):
        mpack.unpackb(b"\xd4\x01\x00")  # fixext 1
    with pytest.raises(mpack.MpackError):
        mpack.unpackb(b"\xcc")  # truncated uint8


@pytest.mark.skipif(
    MSGPACK.impl != "ext",
    reason="C msgpack extension not installed; pure fallback in use",
)
@pytest.mark.parametrize("payload", payload_cases(PAYLOADS), ids=repr)
def test_pure_and_ext_are_byte_interchangeable(payload):
    import msgpack  # noqa: F401  (guarded by skipif)

    wire = MSGPACK.encode_payload(payload)
    # The tagged wire form is plain msgpack data: the pure packer must
    # reproduce the ext packer's bytes exactly, and each must decode the
    # other's output.
    via_pure = mpack.unpackb(wire)
    via_ext = msgpack.unpackb(wire, raw=False, strict_map_key=False)
    assert via_pure == via_ext
    assert mpack.packb(via_pure) == msgpack.packb(
        via_ext, use_bin_type=True
    )
