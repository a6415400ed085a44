"""The load generator (see package docstring for the two loop models).

Latencies land in two places on purpose: the shared
:class:`~repro.obs.metrics.MetricsRegistry` histogram
(``svc_request_latency_seconds``) keeps the streaming count/sum/min/max
that rides snapshots and the stats endpoint, while the generator keeps
its own raw sample list — the registry's histograms deliberately store
no quantiles, and a throughput benchmark without p99 is not one.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ConfigurationError
from ..obs.metrics import MetricsRegistry
from ..svc.client import KVClient, ServiceUnavailable

__all__ = ["LoadGenerator", "LoadReport", "percentile"]

Address = Tuple[str, int]

_MODES = ("closed", "open")


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The *q*-quantile (0..1) of *samples* by nearest-rank; None if empty."""
    if not samples:
        return None
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 1))  # ceil without math import
    return ordered[min(len(ordered) - 1, int(rank) - 1)]


@dataclass
class LoadReport:
    """One run's results, ready for tables and JSON."""

    mode: str
    clients: int
    duration: float
    target_rate: Optional[float]
    attempted: int = 0
    acked: int = 0
    errors: int = 0
    shed: int = 0
    redirects: int = 0
    retries: int = 0
    latencies: List[float] = field(default_factory=list)
    #: client_id -> (key, seq, value) of its last acknowledged put.
    last_acked_put: Dict[str, Tuple[str, int, Any]] = field(
        default_factory=dict
    )
    #: Consensus-side shape of the run, filled in by harnesses that can
    #: see the replicas' metrics (None when only the client side is
    #: visible): decided slots per second and mean commands per batch.
    slots_per_s: Optional[float] = None
    mean_batch: Optional[float] = None

    @property
    def achieved_rate(self) -> float:
        """Acknowledged commands per wall second."""
        return self.acked / self.duration if self.duration > 0 else 0.0

    def latency(self, q: float) -> Optional[float]:
        return percentile(self.latencies, q)

    def attach_consensus_shape(self, rsms: Sequence[Any]) -> None:
        """Derive slots/s and mean batch size from the replicas themselves.

        *rsms* are the run's :class:`ReplicatedStateMachine` components
        (any substrate exposing ``current_slot`` and ``log``).  Slot rate
        counts every decided slot (NOOPs included — they are real
        consensus instances); mean batch is applied commands per decided
        slot, the honest "how many commands rode each instance" number.
        """
        slots = max((r.current_slot for r in rsms), default=0)
        commands = max((len(r.log) for r in rsms), default=0)
        if slots > 0 and self.duration > 0:
            self.slots_per_s = slots / self.duration
            self.mean_batch = commands / slots

    def summary(self) -> Dict[str, Any]:
        p50, p95, p99 = (self.latency(q) for q in (0.5, 0.95, 0.99))
        return {
            "mode": self.mode,
            "clients": self.clients,
            "duration_s": round(self.duration, 3),
            "target_rate": self.target_rate,
            "attempted": self.attempted,
            "acked": self.acked,
            "errors": self.errors,
            "shed": self.shed,
            "redirects": self.redirects,
            "retries": self.retries,
            "acked_per_s": round(self.achieved_rate, 2),
            "p50_ms": None if p50 is None else round(p50 * 1e3, 2),
            "p95_ms": None if p95 is None else round(p95 * 1e3, 2),
            "p99_ms": None if p99 is None else round(p99 * 1e3, 2),
            "slots_per_s": (
                None if self.slots_per_s is None
                else round(self.slots_per_s, 2)
            ),
            "mean_batch": (
                None if self.mean_batch is None else round(self.mean_batch, 2)
            ),
        }

    def render(self) -> str:
        parts = [f"{key}={value}" for key, value in self.summary().items()]
        return "load report: " + " ".join(parts)


class LoadGenerator:
    """Drive *clients* KV sessions against the service at *addrs*.

    Parameters:
        addrs: serve addresses of the replicas (any subset; clients
            follow redirects to the leader from there).
        clients: session count.  Closed loop: all run concurrently.
            Open loop: a pool the dispatcher draws from — a tick finding
            the pool empty is *shed* and counted, never queued (that is
            what makes it open-loop).
        mode: ``closed`` (fixed clients + think time) or ``open``
            (Poisson-less fixed-interval dispatch at ``rate``/s).
        duration: how long to offer load, in wall seconds.
        rate: open-loop target command rate (commands/s), required there.
        think: closed-loop think time between a reply and the next
            command, in seconds.
        write_fraction: probability a command is a ``put`` (the rest are
            ``get``\\ s); every client owns one key (``k<i>``) and writes
            an incrementing counter value, which is what the
            acked-write-loss check consumes.
        request_timeout / max_attempts: forwarded to every client.
    """

    def __init__(
        self,
        addrs: Sequence[Address],
        clients: int = 10,
        mode: str = "closed",
        duration: float = 5.0,
        rate: Optional[float] = None,
        think: float = 0.0,
        write_fraction: float = 0.8,
        key_space: Optional[int] = None,
        request_timeout: float = 30.0,
        max_attempts: int = 10,
        seed: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        client_prefix: str = "load",
    ) -> None:
        if mode not in _MODES:
            raise ConfigurationError(
                f"unknown load mode {mode!r}; pick one of {_MODES}"
            )
        if clients < 1:
            raise ConfigurationError(f"clients must be >= 1, got {clients}")
        if mode == "open" and (rate is None or rate <= 0):
            raise ConfigurationError("open-loop mode needs a positive rate")
        self.addrs = [(a[0], a[1]) for a in addrs]
        self.clients = clients
        self.mode = mode
        self.duration = duration
        self.rate = rate
        self.think = think
        self.write_fraction = write_fraction
        self.key_space = key_space if key_space is not None else clients
        self.request_timeout = request_timeout
        self.max_attempts = max_attempts
        self.seed = seed
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.client_prefix = client_prefix

    # ----------------------------------------------------------------- runs
    async def run(self) -> LoadReport:
        """Offer load for :attr:`duration`; returns the report."""
        report = LoadReport(
            mode=self.mode, clients=self.clients, duration=self.duration,
            target_rate=self.rate,
        )
        sessions = [self._make_client(i) for i in range(self.clients)]
        started = time.monotonic()
        deadline = started + self.duration
        try:
            if self.mode == "closed":
                workers = [
                    asyncio.create_task(
                        self._closed_loop(i, client, deadline, report)
                    )
                    for i, client in enumerate(sessions)
                ]
                await asyncio.gather(*workers)
            else:
                await self._open_loop(sessions, deadline, report)
        finally:
            # Offered for `duration`, but in-flight commands may drain past
            # the deadline — rate honesty wants the real window.
            report.duration = max(self.duration, time.monotonic() - started)
            for client in sessions:
                await client.close()
            report.redirects = sum(c.redirects for c in sessions)
            report.retries = sum(c.retries for c in sessions)
        return report

    def _make_client(self, index: int) -> KVClient:
        return KVClient(
            self.addrs,
            client_id=f"{self.client_prefix}-{index}",
            request_timeout=self.request_timeout,
            max_attempts=self.max_attempts,
            seed=self.seed * 100003 + index,
        )

    # ------------------------------------------------------------ one command
    async def _one_command(
        self, index: int, client: KVClient, rng: random.Random,
        counter: List[int], report: LoadReport,
    ) -> None:
        report.attempted += 1
        write = rng.random() < self.write_fraction
        key = f"k{index % self.key_space}"
        started = time.monotonic()
        try:
            if write:
                value = counter[0]
                counter[0] += 1
                seq_before = client.next_seq
                result = await client.put(key, value)
            else:
                result = await client.get(key)
        except (ServiceUnavailable, OSError, ConnectionError):
            report.errors += 1
            return
        elapsed = time.monotonic() - started
        op = "put" if write else "get"
        if result.get("ok"):
            report.acked += 1
            report.latencies.append(elapsed)
            self.metrics.observe("svc_request_latency_seconds", elapsed, op=op)
            if write:
                report.last_acked_put[client.client_id] = (
                    key, seq_before, value
                )
        else:
            report.errors += 1

    # ------------------------------------------------------------ loop models
    async def _closed_loop(
        self, index: int, client: KVClient, deadline: float,
        report: LoadReport,
    ) -> None:
        rng = random.Random(self.seed * 1009 + index)
        counter = [0]
        # Desynchronize the fleet's first shot.
        await asyncio.sleep(rng.uniform(0, min(0.1, self.duration / 10)))
        while time.monotonic() < deadline:
            await self._one_command(index, client, rng, counter, report)
            if self.think > 0 and time.monotonic() < deadline:
                await asyncio.sleep(self.think)

    async def _open_loop(
        self, sessions: List[KVClient], deadline: float, report: LoadReport,
    ) -> None:
        assert self.rate is not None
        rng = random.Random(self.seed)
        free: List[int] = list(range(len(sessions)))
        counters = [[0] for _ in sessions]
        in_flight: Set[asyncio.Task] = set()
        start = time.monotonic()
        tick = 0

        def _release(index: int, task: asyncio.Task) -> None:
            in_flight.discard(task)
            free.append(index)

        while True:
            now = time.monotonic()
            if now >= deadline:
                break
            target = start + tick / self.rate
            if target > now:
                await asyncio.sleep(min(target - now, deadline - now))
                continue
            tick += 1
            if not free:
                report.shed += 1  # open loop: no client free, demand is lost
                continue
            index = free.pop()
            task = asyncio.create_task(
                self._one_command(
                    index, sessions[index], rng, counters[index], report
                )
            )
            in_flight.add(task)
            task.add_done_callback(
                lambda t, index=index: _release(index, t)
            )
        if in_flight:
            await asyncio.gather(*in_flight, return_exceptions=True)
