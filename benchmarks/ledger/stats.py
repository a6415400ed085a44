"""Shared arithmetic and the contract loader (stdlib only).

``BENCHMARK.json`` at the repository root is the single list of workload
and metric names, units, directions and bounds; the runner, the comparer
and the tests all read it from here instead of repeating it.
"""

from __future__ import annotations

import heapq
import json
import math
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

#: The one wall clock every measurement here reads.
clock = time.perf_counter  # lint: ignore[wall-clock]

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
CONTRACT_PATH = REPO_ROOT / "BENCHMARK.json"


def load_contract() -> Dict[str, Any]:
    return json.loads(CONTRACT_PATH.read_text())


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, the rule ``repro.obs.spans`` uses
    (0.0 for an empty sample: the layer was not exercised)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the noise
    measure the contract's bounds are judged against."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


def longest_gap(times: List[float], start: float, end: float) -> float:
    """Longest interval inside [start, end] that holds none of *times*."""
    edges = [start, *sorted(t for t in times if start <= t <= end), end]
    return max(b - a for a, b in zip(edges, edges[1:]))


#: What :func:`reference_kernel` takes on the reference host when nothing
#: disturbs it; scaled times read as seconds on that host.
K_REF = 0.0038


def reference_kernel() -> float:
    """Wall seconds a fixed piece of stdlib-only work takes right now.

    The sandbox's processor runs at speeds up to 3x apart for seconds at a
    time; this is the yardstick the CPU-bound workloads hold beside each
    sub-window (see README, "Reference speed").  JSON, dicts, tuples and a
    heap: the instruction mix of the program's own hot paths, none of its
    code.
    """
    began = clock()
    table: dict = {}
    heap: list = []
    for i in range(600):
        command = {"client": "c", "seq": i, "op": "put",
                   "key": "k%d" % (i % 64), "value": i * 7919, "expect": None}
        back = json.loads(json.dumps(command, separators=(",", ":")))
        table[back["key"]] = (i, back)
        heapq.heappush(heap, ((i * 0.37) % 1.0, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return clock() - began
