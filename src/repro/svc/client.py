"""The smart service client: redirects, retries, session sequencing.

A :class:`KVClient` is one client *session*: it owns a session name, a
monotonically increasing per-command sequence number, and at most one
open connection at a time (reused across requests, replaced on failure
or redirect).  The retry loop implements the paper's client-side story:

* a **redirect** reply repoints the connection at the leader the replica
  named; while *no* leader is named the client rotates and polls on a
  short fixed cadence (``redirect_poll``) — electing a leader is the
  cluster converging, not the client failing, so it shares neither the
  exponential backoff nor the attempt budget (it is bounded by
  ``request_timeout`` of total waiting instead);
* a **timeout** or connection failure abandons the connection, backs off
  exponentially, rotates, and *resubmits the same command under the same
  sequence number* — the replicated session table makes the retry
  exactly-once even if the original was applied after all;
* replies are matched by request id; a stale reply from before a timeout
  is discarded, never misattributed to the current command.

Every mutating op keeps one sequence number across all its retries; a
fresh op takes the next number.  One asyncio task per client — drive
thousands of them concurrently (see :mod:`repro.load`).
"""

from __future__ import annotations

import asyncio
import random
import time
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..net.codec import default_codec
from .protocol import ProtocolError, Reply, Request, encode_frame, read_frame

__all__ = ["KVClient", "ServiceUnavailable"]

Address = Tuple[str, int]


class ServiceUnavailable(Exception):
    """No replica answered the command within the retry budget."""


class KVClient:
    """One client session against a replicated KV service (module doc)."""

    def __init__(
        self,
        addrs: Sequence[Address],
        client_id: str,
        request_timeout: float = 5.0,
        max_attempts: int = 10,
        backoff_initial: float = 0.05,
        backoff_max: float = 1.0,
        redirect_poll: float = 0.05,
        seed: Optional[int] = None,
    ) -> None:
        if not addrs:
            raise ConfigurationError("KVClient needs at least one address")
        self.addrs: List[Address] = [(a[0], a[1]) for a in addrs]
        self.client_id = client_id
        self.codec = default_codec()
        self.request_timeout = request_timeout
        self.max_attempts = max_attempts
        self.backoff_initial = backoff_initial
        self.backoff_max = backoff_max
        self.redirect_poll = redirect_poll
        self._rng = random.Random(
            seed if seed is not None else zlib.crc32(client_id.encode())
        )
        self._target = self._rng.randrange(len(self.addrs))
        self._conn: Optional[Tuple[Address, asyncio.StreamReader,
                                   asyncio.StreamWriter]] = None
        self._seq = 0
        self._rid = 0
        self.redirects = 0
        self.retries = 0

    @property
    def next_seq(self) -> int:
        """The session sequence number the next sequenced op will use."""
        return self._seq

    # ------------------------------------------------------------ public ops
    async def get(self, key: str) -> Dict[str, Any]:
        return await self.request("get", key=key)

    async def put(self, key: str, value: Any) -> Dict[str, Any]:
        return await self.request("put", key=key, value=value)

    async def delete(self, key: str) -> Dict[str, Any]:
        return await self.request("delete", key=key)

    async def cas(self, key: str, expect: Any, value: Any) -> Dict[str, Any]:
        return await self.request("cas", key=key, expect=expect, value=value)

    async def acquire(self, lock: str) -> Dict[str, Any]:
        return await self.request("acquire", key=lock)

    async def release(self, lock: str) -> Dict[str, Any]:
        return await self.request("release", key=lock)

    async def dump(self, addr: Optional[Address] = None) -> Dict[str, Any]:
        """Snapshot one replica's local state (no log, no redirect)."""
        return await self.request("dump", addr=addr, sequenced=False)

    # -------------------------------------------------------------- requests
    async def request(
        self,
        op: str,
        key: Optional[str] = None,
        value: Any = None,
        expect: Any = None,
        addr: Optional[Address] = None,
        sequenced: bool = True,
    ) -> Dict[str, Any]:
        """Run one op to completion through redirects and retries.

        Returns the state machine's result dict (``{"ok": ...}``); raises
        :class:`ServiceUnavailable` after *max_attempts* failed tries.
        """
        seq: Optional[int] = None
        span: Optional[str] = None
        if sequenced:
            seq = self._seq
            self._seq += 1
            # One causal-span id per command, shared by every retry —
            # the span.* trace events follow it through the serving path.
            span = f"{self.client_id}.{seq}"
        backoff = self.backoff_initial
        pinned = addr
        started = time.monotonic()
        attempt = 0
        while attempt < self.max_attempts:
            attempt += 1
            self._rid += 1
            request = Request(
                rid=self._rid, client=self.client_id, op=op, seq=seq,
                key=key, value=value, expect=expect, span=span,
            )
            target = pinned if pinned is not None else self.addrs[self._target]
            try:
                reply = await asyncio.wait_for(
                    self._roundtrip(target, request),
                    timeout=self.request_timeout,
                )
            except (asyncio.TimeoutError, ConnectionError, OSError,
                    ProtocolError):
                await self._drop_connection()
                self.retries += 1
                self._rotate()
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, self.backoff_max)
                continue
            if reply.status == "redirect":
                self.redirects += 1
                await self._drop_connection()
                if reply.addr is not None:
                    self._point_at(reply.addr)
                else:
                    # No leader known there (yet): the cluster is
                    # converging, not failing, so rotate and poll on a
                    # short *fixed* cadence — the exponential backoff is
                    # for broken connections, and letting elections share
                    # it turns every cold start into a near-second stall.
                    # Polling does not burn the attempt budget; it is
                    # bounded by request_timeout of total waiting.
                    attempt -= 1
                    if time.monotonic() - started >= self.request_timeout:
                        break
                    self._rotate()
                    await asyncio.sleep(self.redirect_poll)
                continue
            if reply.status == "ok":
                return reply.result
            # status == "error": an apply-timeout is retryable (the command
            # may still decide; same seq keeps it exactly-once), and so is
            # node-down (a crashed replica whose frontend still answers —
            # a survivor can take the command).  Anything else is a
            # definitive answer.
            if reply.error in ("apply-timeout", "node-down"):
                self.retries += 1
                self._rotate()
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, self.backoff_max)
                continue
            return {"ok": False, "error": reply.error}
        raise ServiceUnavailable(
            f"{op} gave up after {self.max_attempts} attempts "
            f"(client={self.client_id}, seq={seq})"
        )

    async def _roundtrip(self, addr: Address, request: Request) -> Reply:
        reader, writer = await self._connect(addr)
        writer.write(encode_frame(self.codec, request.to_payload()))
        await writer.drain()
        while True:
            payload = await read_frame(reader, self.codec)
            if payload is None:
                raise ConnectionError("frontend closed the connection")
            reply = Reply.from_payload(payload)
            if reply.rid == request.rid:
                return reply
            # Stale reply to an earlier, timed-out rid on a reused
            # connection: discard and keep reading.

    # ------------------------------------------------------------ connections
    async def _connect(
        self, addr: Address
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if self._conn is not None:
            conn_addr, reader, writer = self._conn
            if conn_addr == addr and not writer.is_closing():
                return reader, writer
            await self._drop_connection()
        reader, writer = await asyncio.open_connection(addr[0], addr[1])
        self._conn = (addr, reader, writer)
        return reader, writer

    async def _drop_connection(self) -> None:
        if self._conn is None:
            return
        _, _, writer = self._conn
        self._conn = None
        writer.close()

    def _point_at(self, addr: Address) -> None:
        addr = (addr[0], addr[1])
        if addr not in self.addrs:
            self.addrs.append(addr)
        self._target = self.addrs.index(addr)

    def _rotate(self) -> None:
        self._target = (self._target + 1) % len(self.addrs)

    async def close(self) -> None:
        await self._drop_connection()

    async def __aenter__(self) -> "KVClient":
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()
