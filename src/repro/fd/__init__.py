"""Failure detectors: class taxonomy, oracles, and message-passing
implementations (all-to-all heartbeat ◇P, ring ◇S/◇P, leader-based Ω, and
◇C compositions)."""

from .base import FailureDetector, TimeoutDetector, first_non_suspected
from .classes import (
    ALL_CLASSES,
    EVENTUALLY_CONSISTENT,
    EVENTUALLY_PERFECT,
    EVENTUALLY_QUASI_PERFECT,
    EVENTUALLY_STRONG,
    EVENTUALLY_WEAK,
    FDClass,
    OMEGA,
    PERFECT,
)
from .eventually_consistent import CombinedDetector, attach_ec_stack
from .heartbeat import HeartbeatEventuallyPerfect
from .leader_based import LeaderBasedOmega
from .oracle import (
    OracleConfig,
    OracleFailureDetector,
    ScriptedFailureDetector,
    oracle_factory,
)
from .ring import RingDetector
from .stable_leader import StableLeaderOmega

__all__ = [
    "FailureDetector",
    "TimeoutDetector",
    "first_non_suspected",
    "FDClass",
    "PERFECT",
    "EVENTUALLY_PERFECT",
    "EVENTUALLY_QUASI_PERFECT",
    "EVENTUALLY_STRONG",
    "EVENTUALLY_WEAK",
    "OMEGA",
    "EVENTUALLY_CONSISTENT",
    "ALL_CLASSES",
    "CombinedDetector",
    "attach_ec_stack",
    "HeartbeatEventuallyPerfect",
    "LeaderBasedOmega",
    "OracleConfig",
    "OracleFailureDetector",
    "ScriptedFailureDetector",
    "oracle_factory",
    "RingDetector",
    "StableLeaderOmega",
]
