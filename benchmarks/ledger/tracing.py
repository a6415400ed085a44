"""The ledger's own spans: recorded around calls into each layer.

The program is not instrumented for this benchmark; every span here is
opened by the benchmark around a call into a layer's public function
(``cluster.start``, a client op, a codec call, a pipeline stage, a drill).
Spans live in memory as ``(id, parent, name, start, end)`` rows and are
written out once, when the traced run ends.  A span's name starts with its
layer (``net.codec.encode``), so per-layer busy time is a group-by.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.net.codec import Codec
from repro.sim.message import Message

from stats import clock

#: (id, parent id or None, "layer.name", start, end) — perf_counter seconds.
Row = Tuple[int, Optional[int], str, float, float]


class SpanLog:
    """In-memory span rows plus the stack that gives each one its parent."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.rows: List[Row] = []
        self._stack: List[int] = []

    @property
    def current(self) -> Optional[int]:
        """The innermost open synchronous span (parent of what runs now)."""
        return self._stack[-1] if self._stack else None

    def add(
        self, name: str, start: float, end: float,
        parent: Optional[int] = None,
    ) -> None:
        """Record an already-timed span (child of the innermost open span
        unless *parent* names another)."""
        self.rows.append((
            len(self.rows), self.current if parent is None else parent,
            name, start, end,
        ))

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Time a synchronous block (or one task's ``await``-free stretch
        of set-up); spans opened inside it become its children."""
        sid = len(self.rows)
        self.rows.append((sid, self.current, name, clock(), 0.0))
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            row = self.rows[sid]
            self.rows[sid] = (row[0], row[1], row[2], row[3], clock())

    # ------------------------------------------------------------ analysis
    def total(self, name: str) -> float:
        """Summed duration of the spans called *name*."""
        return sum(r[4] - r[3] for r in self.rows if r[2] == name)

    def self_times(self) -> Dict[str, float]:
        """Per span name: summed duration minus the part child spans cover
        (children of one parent here never overlap each other: they are
        synchronous calls, or concurrent client ops parented to the window
        span, whose self time is not used)."""
        covered = [0.0] * len(self.rows)
        for _, parent, _, start, end in self.rows:
            if parent is not None:
                covered[parent] += end - start
        out: Dict[str, float] = {}
        for sid, _, name, start, end in self.rows:
            out[name] = out.get(name, 0.0) + (end - start) - covered[sid]
        return out

    def dump(self, path: Path) -> None:
        """Write every row as ``[id, parent, name, start, end, workload]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[*row, self.workload] for row in self.rows]
        path.write_text(json.dumps(rows, separators=(",", ":")))


class TimedCodec(Codec):
    """A wire codec that times every call into the codec it wraps.

    Passed as ``LocalCluster(codec=...)`` in traced runs, so each node's
    encode and decode becomes a ``net.codec.*`` span; it speaks the wrapped
    codec's wire format under its name, so negotiation is unaffected.
    """

    def __init__(self, inner: Codec, spans: SpanLog) -> None:
        self.inner = inner
        self.name = inner.name
        self._add = spans.add

    def _timed(self, span: str, call: Any, arg: Any) -> Any:
        start = clock()
        result = call(arg)
        self._add(span, start, clock())
        return result

    def encode_payload(self, payload: Any) -> bytes:
        return self._timed(
            "net.codec.encode", self.inner.encode_payload, payload)

    def decode_payload(self, data: bytes) -> Any:
        return self._timed(
            "net.codec.decode", self.inner.decode_payload, data)

    def encode_message(self, msg: Message) -> bytes:
        return self._timed(
            "net.codec.encode", self.inner.encode_message, msg)

    def encode_message_batch(self, msgs: Sequence[Message]) -> List[bytes]:
        return self._timed(
            "net.codec.encode", self.inner.encode_message_batch, msgs)

    def decode_message(self, data: bytes) -> Message:
        return self._timed(
            "net.codec.decode", self.inner.decode_message, data)
