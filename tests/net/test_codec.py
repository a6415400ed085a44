"""Wire codec round-trips: every payload shape the protocols produce."""

import sys
import types

import pytest

from repro.consensus.ec_consensus import NULL
from repro.errors import ConfigurationError
from repro.net.codec import (
    Codec,
    CodecError,
    JsonCodec,
    MsgpackCodec,
    default_codec,
)
from repro.sim.message import Message


def _codecs():
    codecs = [JsonCodec()]
    try:
        codecs.append(MsgpackCodec())
    except ConfigurationError:
        pass  # host image has no msgpack; JSON is the contract either way
    return codecs


#: The corpus entry holding a set of strings, and its name for each order
#: the set can print in.
STRING_SET = {"nested": [(1, 2), {3: frozenset({"a", "b"})}]}
STRING_SET_IDS = (
    "{'nested': [(1, 2), {3: frozenset({'a', 'b'})}]}",
    "{'nested': [(1, 2), {3: frozenset({'b', 'a'})}]}",
)


# Shapes drawn from the actual protocols: heartbeats, ring knowledge maps
# (int keys, tuple values), suspect frozensets, consensus phase tuples with
# the NULL estimate sentinel, RB metadata.
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
]


def payload_cases(payloads):
    """``payloads`` as parametrize cases whose ids do not follow the hash seed.

    A frozenset of strings prints in hash-seed order, so ``repr`` would name
    the STRING_SET case differently from run to run; it runs once under
    each of STRING_SET_IDS instead.
    """
    cases = []
    for payload in payloads:
        if payload is STRING_SET:
            cases += [pytest.param(payload, id=i) for i in STRING_SET_IDS]
        else:
            cases.append(payload)
    return cases


@pytest.mark.parametrize("codec", _codecs(), ids=lambda c: c.name)
@pytest.mark.parametrize("payload", payload_cases(PAYLOADS), ids=repr)
def test_payload_round_trip_exact(codec, payload):
    decoded = codec.decode_payload(codec.encode_payload(payload))
    assert decoded == payload
    assert type(decoded) is type(payload)


@pytest.mark.parametrize("codec", _codecs(), ids=lambda c: c.name)
def test_null_round_trips_as_the_singleton(codec):
    decoded = codec.decode_payload(codec.encode_payload(("EST", 1, NULL, -1)))
    assert decoded[2] is NULL


@pytest.mark.parametrize("codec", _codecs(), ids=lambda c: c.name)
def test_tag_shaped_user_dicts_are_not_misread(codec):
    # A user payload that *looks* like our tag encoding must survive.
    tricky = {"!t": [1, 2, 3]}
    assert codec.decode_payload(codec.encode_payload(tricky)) == tricky


@pytest.mark.parametrize("codec", _codecs(), ids=lambda c: c.name)
def test_message_envelope_round_trip(codec):
    msg = Message(
        src=2, dst=0, channel="fd.suspects",
        payload=("PING", {0: (1, 2.0)}),
        send_time=12.5, tag="stubborn", round=4,
    )
    out = codec.decode_message(codec.encode_message(msg))
    assert (out.src, out.dst, out.channel) == (2, 0, "fd.suspects")
    assert out.payload == ("PING", {0: (1, 2.0)})
    assert out.send_time == 12.5
    assert out.tag == "stubborn" and out.round == 4


@pytest.mark.parametrize("codec", _codecs(), ids=lambda c: c.name)
def test_garbage_bytes_raise_codec_error(codec):
    for garbage in (b"", b"\xff\x00garbage", b"[1,"):
        with pytest.raises(CodecError):
            codec.decode_message(garbage)


#: Bytes either serializer reads fine, but whose tag body is not one the
#: transform writes; these used to escape as bare ValueError/TypeError.
MALFORMED_TAG_BODIES = [
    {"!d": [[1]]}, {"!d": 5}, {"!t": 5}, {"!s": [[1]]}, {"!d": [[[1], 2]]},
]


@pytest.mark.parametrize("codec", _codecs(), ids=lambda c: c.name)
@pytest.mark.parametrize("wire", MALFORMED_TAG_BODIES, ids=str)
def test_malformed_tag_body_raises_codec_error(codec, wire):
    with pytest.raises(CodecError, match="malformed wire structure"):
        codec.decode_payload(codec._dumps(wire))
    envelope = {"s": 0, "d": 1, "c": "rsm", "p": wire, "t": 0.0}
    with pytest.raises(CodecError, match="malformed wire structure"):
        codec.decode_message(codec._dumps(envelope))


def test_valid_json_bad_envelope_raises_codec_error():
    with pytest.raises(CodecError):
        JsonCodec().decode_message(b'{"unexpected": "shape"}')


def test_unencodable_payload_raises_codec_error():
    with pytest.raises(CodecError):
        JsonCodec().encode_payload(object())


def test_default_codec_always_available():
    assert isinstance(default_codec(), Codec)
    assert default_codec().name == "json"


def test_json_is_the_one_wire_format_even_with_msgpack_importable(
    monkeypatch,
):
    # A host that can import msgpack must still speak the bytes every other
    # host speaks: nothing on the runtime path picks a format by probing.
    from repro.cluster import LocalCluster
    from repro.proc.book import AddressBook
    from repro.proc.node import build_node
    from repro.svc.client import KVClient
    from repro.svc.protocol import Reply, Request

    stand_in = types.ModuleType("msgpack")
    stand_in.packb = lambda obj, **kw: b""
    stand_in.unpackb = lambda data, **kw: None
    monkeypatch.setitem(sys.modules, "msgpack", stand_in)

    assert type(default_codec()) is JsonCodec
    assert type(LocalCluster(n=2, clock="virtual").codec) is JsonCodec
    book = AddressBook.allocate(2, transport="udp")
    assert type(build_node(book, 0).codec) is JsonCodec
    assert type(KVClient([("127.0.0.1", 1)], client_id="c").codec) is JsonCodec
    request = Request(rid=1, client="c", op="put", seq=0, key="k", value=1)
    reply = Reply(rid=1, status="ok", result={"ok": True})
    assert "codecs" not in request.to_payload()
    assert "codec" not in reply.to_payload()


def test_msgpack_is_gated_not_installed():
    # Whichever world we run in, the constructor either works or explains
    # itself; it must never trigger an install or an ImportError escape.
    try:
        codec = MsgpackCodec()
    except ConfigurationError as exc:
        assert "msgpack" in str(exc)
    else:
        assert codec.name == "msgpack"
