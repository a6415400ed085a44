"""Tagged JSON-safe value transform, shared by trace files and the codec.

The protocol layer produces rich Python values — nested tuples, dicts with
integer keys (ring knowledge maps), frozensets (suspect lists), and the
``NULL`` estimate sentinel of :mod:`repro.consensus.ec_consensus`.  Both
persistence surfaces — the wire codec in :mod:`repro.net.codec` and the
JSONL trace files in :mod:`repro.obs.sinks` — need those values as plain
JSON structure and need them back **exactly** (tuples stay tuples, int
keys stay ints, ``NULL`` stays the singleton), so one transform serves
both.

Encoding is recursive: scalars pass through, lists map elementwise, and
every other shape becomes a single-key dict ``{"!<tag>": ...}``.  User
dicts are encoded as pair lists under ``"!d"``, so payloads that *happen*
to look like a tag dict can never be misread.  Set-like values are sorted
by ``repr`` so the encoding is deterministic regardless of hash seeds.

Both walks dispatch on the exact type and test leaves inline, so a scalar
costs no call; subclasses, sets and ``NULL`` fall through to the
``isinstance`` chain.  ``tests/obs/test_encode.py`` keeps the plain
recursive version as the oracle for structure and codec bytes.
"""

from __future__ import annotations

import functools
from typing import Any

__all__ = ["EncodeError", "to_jsonable", "from_jsonable"]

_TUPLE = "!t"
_DICT = "!d"
_FROZENSET = "!f"
_SET = "!s"
_NULL = "!0"


class EncodeError(ValueError):
    """A value cannot be represented as tagged JSON, or tags are malformed."""


#: Exact leaf types (an ``IntEnum`` is not one: it takes the chain).
_SCALARS = frozenset({type(None), bool, int, float, str})


@functools.cache
def _null() -> Any:
    # Late import: consensus imports sim/obs, not the reverse.
    from ..consensus.ec_consensus import NULL

    return NULL


def to_jsonable(obj: Any) -> Any:
    """Transform *obj* into JSON-native structure (see module docstring)."""
    kind = type(obj)
    scalars = _SCALARS
    if kind in scalars:
        return obj
    if kind is tuple:
        return {_TUPLE: [
            x if type(x) in scalars else to_jsonable(x) for x in obj
        ]}
    if kind is dict:
        return {_DICT: [
            [k if type(k) in scalars else to_jsonable(k),
             v if type(v) in scalars else to_jsonable(v)]
            for k, v in obj.items()
        ]}
    if kind is list:
        return [x if type(x) in scalars else to_jsonable(x) for x in obj]
    # What exact types missed: subclasses of the above, sets, NULL.
    if isinstance(obj, (bool, int, float, str)):
        return obj
    if obj is _null():
        return {_NULL: 1}
    if isinstance(obj, list):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, tuple):
        return {_TUPLE: [to_jsonable(x) for x in obj]}
    if isinstance(obj, dict):
        return {_DICT: [[to_jsonable(k), to_jsonable(v)] for k, v in obj.items()]}
    if isinstance(obj, frozenset):
        return {_FROZENSET: sorted((to_jsonable(x) for x in obj), key=repr)}
    if isinstance(obj, set):
        return {_SET: sorted((to_jsonable(x) for x in obj), key=repr)}
    raise EncodeError(
        f"value of type {type(obj).__name__} is not wire-safe: {obj!r}"
    )


def from_jsonable(obj: Any) -> Any:
    """Exact inverse of :func:`to_jsonable`; a dict that is not a tag it
    writes, or whose body cannot be read back, is an :class:`EncodeError`."""
    scalars = _SCALARS
    if not isinstance(obj, dict):  # tested first: the walk recurses on tags
        if isinstance(obj, list):
            return [x if type(x) in scalars else from_jsonable(x) for x in obj]
        return obj
    if len(obj) == 1:
        (tag, value), = obj.items()
        try:
            if tag == _TUPLE:
                return tuple([
                    x if type(x) in scalars else from_jsonable(x)
                    for x in value
                ])
            if tag == _DICT:
                return {
                    k if type(k) in scalars else from_jsonable(k):
                    v if type(v) in scalars else from_jsonable(v)
                    for k, v in value
                }
            if tag == _FROZENSET:
                return frozenset(from_jsonable(x) for x in value)
            if tag == _SET:
                return {from_jsonable(x) for x in value}
            if tag == _NULL:
                return _null()
        except EncodeError:
            raise
        except (TypeError, ValueError) as exc:
            # Not iterable, not pairs, or an unhashable key/member.
            raise EncodeError(f"malformed wire structure: {obj!r}") from exc
    raise EncodeError(f"malformed wire structure: {obj!r}")
