"""The tagged transform's one-pass walks against the recursive reference.

``to_jsonable``/``from_jsonable`` dispatch on exact types with the leaf
test inlined; the plain recursive versions they replaced live on here as
the oracle.  Structure and codec bytes must agree on every payload shape
the protocols produce and on seeded nested values that hit the slow chain
(subclasses, sets, ``NULL``).
"""

import collections
import enum
import json
import random

import pytest

from repro.consensus.ec_consensus import NULL
from repro.net.codec import JsonCodec, MsgpackCodec
from repro.obs.encode import EncodeError, from_jsonable, to_jsonable
from tests.net.test_codec import MALFORMED_TAG_BODIES
from tests.net.test_codec_parity import PAYLOADS


# ------------------------------------------------------------------- oracle
def oracle_to_jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if obj is NULL:
        return {"!0": 1}
    if isinstance(obj, list):
        return [oracle_to_jsonable(x) for x in obj]
    if isinstance(obj, tuple):
        return {"!t": [oracle_to_jsonable(x) for x in obj]}
    if isinstance(obj, dict):
        return {"!d": [[oracle_to_jsonable(k), oracle_to_jsonable(v)]
                       for k, v in obj.items()]}
    if isinstance(obj, frozenset):
        return {"!f": sorted((oracle_to_jsonable(x) for x in obj), key=repr)}
    if isinstance(obj, set):
        return {"!s": sorted((oracle_to_jsonable(x) for x in obj), key=repr)}
    raise EncodeError(
        f"value of type {type(obj).__name__} is not wire-safe: {obj!r}"
    )


def oracle_from_jsonable(obj):
    if isinstance(obj, list):
        return [oracle_from_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        if len(obj) == 1:
            (tag, value), = obj.items()
            if tag == "!t":
                return tuple(oracle_from_jsonable(x) for x in value)
            if tag == "!d":
                return {oracle_from_jsonable(k): oracle_from_jsonable(v)
                        for k, v in value}
            if tag == "!f":
                return frozenset(oracle_from_jsonable(x) for x in value)
            if tag == "!s":
                return {oracle_from_jsonable(x) for x in value}
            if tag == "!0":
                return NULL
        raise EncodeError(f"malformed wire structure: {obj!r}")
    return obj


# ---------------------------------------------------------------- generator
class Phase(enum.IntEnum):
    EST = 1
    PROP = 2


Point = collections.namedtuple("Point", "x y")


def same_types(a, b):
    """``a == b`` with exact types all the way down (``True`` is not ``1``)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same_types, a, b))
    if isinstance(a, dict):
        return len(a) == len(b) and all(
            same_types(ka, kb) and same_types(va, vb)
            for (ka, va), (kb, vb) in zip(a.items(), b.items())
        )
    return a == b


def scalar(rng):
    return rng.choice([
        None, True, False, 0, 1, -17, rng.getrandbits(48), 3.25, -0.5,
        "", "HB", f"k{rng.randrange(64)}", "!t", Phase.EST, Phase.PROP,
    ])


def hashable(rng, depth):
    if depth <= 0 or rng.random() < 0.5:
        return rng.choice([scalar(rng), NULL])
    if rng.random() < 0.5:
        return frozenset(hashable(rng, depth - 1) for _ in range(rng.randrange(3)))
    items = [hashable(rng, depth - 1) for _ in range(rng.randrange(3))]
    return Point(*items) if len(items) == 2 and rng.random() < 0.5 else tuple(items)


def value(rng, depth):
    if depth <= 0:
        return rng.choice([scalar(rng), NULL, (), [], {}, frozenset(), set()])
    size = rng.randrange(4)
    kind = rng.randrange(9)
    if kind == 0:
        return scalar(rng)
    if kind == 1:
        return [value(rng, depth - 1) for _ in range(size)]
    if kind == 2:
        return tuple(value(rng, depth - 1) for _ in range(size))
    if kind == 3:
        return Point(value(rng, depth - 1), value(rng, depth - 1))
    if kind == 4:  # str-, int- and tuple-keyed plain dicts
        return {hashable(rng, 1): value(rng, depth - 1) for _ in range(size)}
    if kind == 5:
        return collections.OrderedDict(
            (rng.randrange(100), value(rng, depth - 1)) for _ in range(size)
        )
    if kind == 6:
        out = collections.defaultdict(list)
        for _ in range(size):
            out[(rng.randrange(3), f"k{rng.randrange(3)}")] = value(rng, depth - 1)
        return out
    if kind == 7:
        return {hashable(rng, depth - 1) for _ in range(size)}
    return frozenset(hashable(rng, depth - 1) for _ in range(size))


def generated(seed, count=60):
    rng = random.Random(seed)
    return [value(rng, rng.randrange(1, 5)) for _ in range(count)]


CORPUS = PAYLOADS + [
    True, 1, Phase.EST, (True, 1, 1.0), Point(1, (2, NULL)),
    {1: "int", (0, 1): "pair", "1": "str"},
    ("deep", [{"k": (frozenset({frozenset({1}), frozenset()}), {NULL: NULL})}]),
    {frozenset({(1, 2)}), frozenset()},
]


# -------------------------------------------------------------------- tests
@pytest.mark.parametrize("payload", CORPUS)
def test_walk_matches_the_oracle_on_the_protocol_corpus(payload):
    wire = to_jsonable(payload)
    assert same_types(wire, oracle_to_jsonable(payload))
    assert same_types(from_jsonable(wire), oracle_from_jsonable(wire))


@pytest.mark.parametrize("seed", range(8))
def test_walk_matches_the_oracle_on_generated_values(seed):
    for payload in generated(seed):
        wire = to_jsonable(payload)
        assert same_types(wire, oracle_to_jsonable(payload)), payload
        # The decoders see what a serializer hands back, not our own lists.
        wire = json.loads(json.dumps(wire))
        back = from_jsonable(wire)
        assert same_types(back, oracle_from_jsonable(wire)), payload
        assert back == payload


@pytest.mark.parametrize("codec", (JsonCodec(), MsgpackCodec()),
                         ids=lambda c: c.name)
def test_codec_bytes_are_what_the_oracle_would_write(codec):
    for payload in CORPUS + generated(99):
        assert codec.encode_payload(payload) == \
            codec._dumps(oracle_to_jsonable(payload))


def test_slow_chain_types_round_trip_to_their_base_types():
    back = from_jsonable(json.loads(json.dumps(to_jsonable(
        [Phase.PROP, Point(1, 2), collections.OrderedDict(a=1), True]
    ))))
    assert same_types(back, [2, (1, 2), {"a": 1}, True])
    assert from_jsonable(to_jsonable(("x", [NULL])))[1][0] is NULL


@pytest.mark.parametrize("bad", [object(), b"bytes", 1j, [1, (2, {3: object})]],
                         ids=["object", "bytes", "complex", "nested"])
def test_unsupported_type_message_is_unchanged(bad):
    with pytest.raises(EncodeError) as new:
        to_jsonable(bad)
    with pytest.raises(EncodeError) as old:
        oracle_to_jsonable(bad)
    assert str(new.value) == str(old.value)
    assert "is not wire-safe" in str(new.value)


#: Well-formed JSON whose tag body is not one ``to_jsonable`` writes.
MALFORMED = MALFORMED_TAG_BODIES + [
    {"!f": [[1]]}, {"!d": [[1, 2, 3]]}, {"!x": 1}, {"a": 1, "b": 2},
    [1, {"!t": [{"!d": None}]}],
]


@pytest.mark.parametrize("wire", MALFORMED)
def test_every_malformed_tag_body_is_an_encode_error(wire):
    with pytest.raises(EncodeError, match="malformed wire structure"):
        from_jsonable(wire)
