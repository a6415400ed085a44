"""Cluster runtimes behind one contract: :class:`ClusterAPI`.

This package is the home of everything that boots *n* nodes, crashes
some of them, and judges the run:

* :mod:`~repro.cluster.api` — the :class:`ClusterAPI` structural
  protocol (``start / stop / fault / crash / wait_quiescent / traces /
  verdicts``), :class:`FaultVerbs` — the fault half of it, written once
  for every substrate — and :func:`standard_verdicts`, the shared
  postmortem;
* :mod:`~repro.cluster.config` — :class:`NodeConfig`, the one frozen,
  validated value of what a node runs (stack, period, timeouts, seed,
  ...), which every substrate, the address book and the CLI share;
* :mod:`~repro.cluster.local` — :class:`LocalCluster`, *n*
  :class:`~repro.net.host.NodeHost`\\ s in one OS process (wall or
  virtual clock);
* :class:`~repro.proc.ProcessCluster` (re-exported lazily) — one OS
  process per node with real ``kill -9`` crashes, from :mod:`repro.proc`.
"""

from __future__ import annotations

from .api import (
    FAULT_VERBS,
    ClusterAPI,
    FaultVerbs,
    rsm_verdicts,
    standard_verdicts,
    verdicts_ok,
)
from .config import STACKS, NodeConfig
from .local import (
    LocalCluster,
    TRANSPORTS,
    attach_node_stack,
    attach_standard_stack,
)

__all__ = [
    "ClusterAPI",
    "FAULT_VERBS",
    "FaultVerbs",
    "rsm_verdicts",
    "standard_verdicts",
    "verdicts_ok",
    "LocalCluster",
    "NodeConfig",
    "ProcessCluster",
    "attach_node_stack",
    "attach_standard_stack",
    "STACKS",
    "TRANSPORTS",
]


def __getattr__(name: str):
    # Lazy: repro.proc imports repro.cluster.api, so an eager import here
    # would be circular; it also keeps `import repro.cluster` cheap.
    if name == "ProcessCluster":
        from ..proc import ProcessCluster

        return ProcessCluster
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
