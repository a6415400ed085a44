"""The curated public API of the reproduction.

``repro.core`` gathers the paper's primary contributions and the handful of
substrate types a downstream user needs:

* the new detector class **◇C** (:data:`EVENTUALLY_CONSISTENT`) with its
  message-passing constructions (:func:`attach_ec_stack`,
  :class:`CombinedDetector`),
* the **◇C → ◇P transformation** of Fig. 2 (:class:`CToPTransformation`),
* the **◇C-based Uniform Consensus** algorithm of Figs. 3–4
  (:class:`ECConsensus`) together with the baselines it is compared to,
* the simulation substrate (:class:`World`, link models, crash schedules)
  and the property checkers needed to validate runs.

``import repro`` re-exports everything here.
"""

from ..analysis import (
    check_consensus,
    check_fd_class,
    extract_outcome,
    require_consensus,
    require_fd_class,
)
from ..broadcast import ReliableBroadcast, UniformReliableBroadcast
from ..consensus import (
    ALGORITHMS,
    ChandraTouegConsensus,
    ConsensusProtocol,
    ECConsensus,
    MostefaouiRaynalConsensus,
    NOOP,
    NULL,
    PaxosConsensus,
    ReplicatedStateMachine,
    TotalOrderBroadcast,
    attach_consensus,
    propose_all,
)
from ..fd import (
    ALL_CLASSES,
    CombinedDetector,
    EVENTUALLY_CONSISTENT,
    EVENTUALLY_PERFECT,
    EVENTUALLY_STRONG,
    EVENTUALLY_WEAK,
    FailureDetector,
    FDClass,
    HeartbeatEventuallyPerfect,
    LeaderBasedOmega,
    OMEGA,
    OracleConfig,
    OracleFailureDetector,
    PERFECT,
    RingDetector,
    StableLeaderOmega,
    attach_ec_stack,
    first_non_suspected,
)
from ..sim import (
    Component,
    CrashSchedule,
    FairLossyLink,
    PartiallySynchronousLink,
    ReliableLink,
    World,
    crash_at,
    no_crashes,
    random_crashes,
)
from ..transform import (
    CToPTransformation,
    OmegaToC,
    PToC,
    SToC,
    WToS,
    attach_s_to_c_stack,
)

__all__ = [
    # analysis
    "check_consensus",
    "check_fd_class",
    "extract_outcome",
    "require_consensus",
    "require_fd_class",
    # broadcast
    "ReliableBroadcast",
    "UniformReliableBroadcast",
    # consensus
    "ALGORITHMS",
    "ChandraTouegConsensus",
    "ConsensusProtocol",
    "ECConsensus",
    "MostefaouiRaynalConsensus",
    "NOOP",
    "NULL",
    "PaxosConsensus",
    "ReplicatedStateMachine",
    "TotalOrderBroadcast",
    "attach_consensus",
    "propose_all",
    # failure detectors
    "ALL_CLASSES",
    "CombinedDetector",
    "EVENTUALLY_CONSISTENT",
    "EVENTUALLY_PERFECT",
    "EVENTUALLY_STRONG",
    "EVENTUALLY_WEAK",
    "FailureDetector",
    "FDClass",
    "HeartbeatEventuallyPerfect",
    "LeaderBasedOmega",
    "OMEGA",
    "OracleConfig",
    "OracleFailureDetector",
    "PERFECT",
    "RingDetector",
    "StableLeaderOmega",
    "attach_ec_stack",
    "first_non_suspected",
    # simulation substrate
    "Component",
    "CrashSchedule",
    "FairLossyLink",
    "PartiallySynchronousLink",
    "ReliableLink",
    "World",
    "crash_at",
    "no_crashes",
    "random_crashes",
    # transformations
    "CToPTransformation",
    "OmegaToC",
    "PToC",
    "SToC",
    "WToS",
    "attach_s_to_c_stack",
]
