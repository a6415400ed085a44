"""Trace analysis: failure-detector and consensus property checkers, and
quantitative run metrics (messages/phases/rounds, detection latency)."""

from .consensus_properties import (
    ConsensusOutcome,
    check_consensus,
    extract_outcome,
    require_consensus,
)
from .fd_properties import (
    FDRecord,
    PropertyCheck,
    build_histories,
    check_fd_class,
    check_fd_class_on_world,
    require_fd_class,
)
from .metrics import (
    channel_message_count,
    detection_latency,
    max_phases_per_round,
    mean_messages_per_round,
    messages_per_round,
    phases_per_round,
    round_at,
    rounds_after,
    rounds_after_system,
)
from .qos import (
    IncrementalQoS,
    Mistake,
    QoSReport,
    qos_report,
    transformation_bound,
)
from .stats import Summary, geometric_mean, summarize
from .timeline import leader_timeline, round_timeline, suspicion_timeline

__all__ = [
    "ConsensusOutcome",
    "check_consensus",
    "extract_outcome",
    "require_consensus",
    "FDRecord",
    "PropertyCheck",
    "build_histories",
    "check_fd_class",
    "check_fd_class_on_world",
    "require_fd_class",
    "channel_message_count",
    "detection_latency",
    "max_phases_per_round",
    "mean_messages_per_round",
    "messages_per_round",
    "phases_per_round",
    "round_at",
    "rounds_after",
    "rounds_after_system",
    "IncrementalQoS",
    "Mistake",
    "QoSReport",
    "qos_report",
    "transformation_bound",
    "Summary",
    "leader_timeline",
    "round_timeline",
    "suspicion_timeline",
    "geometric_mean",
    "summarize",
]
