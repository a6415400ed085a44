"""Discrete-event simulation substrate.

This subpackage provides everything needed to run deterministic simulations
of asynchronous and partially synchronous message-passing systems with crash
failures: a virtual-time scheduler, directed link models (reliable,
partially synchronous with GST/Δ, fair-lossy), processes hosting multiple
protocol components, a cooperative-task runtime mirroring the paper's
``wait until`` pseudocode, crash schedules, and structured traces.

The surface components actually consume is the small set of structural
protocols in :mod:`repro.sim.api`; anything implementing them can host a
:class:`Component` — the live asyncio runtime in :mod:`repro.net` is the
second implementation.
"""

from ..obs.events import TraceEvent
from ..obs.sinks import Trace
from .api import NetworkAPI, ProcessAPI, SchedulerAPI, WorldAPI, stream_for
from .component import Component
from .delays import (
    DelayModel,
    ExponentialDelay,
    FixedDelay,
    SpikeDelay,
    UniformDelay,
)
from .events import EventHandle, Periodic
from .failures import (
    CrashEvent,
    CrashSchedule,
    crash_at,
    no_crashes,
    random_crashes,
)
from .links import (
    DeadLink,
    FairLossyLink,
    Link,
    PartiallySynchronousLink,
    ReliableLink,
)
from .message import Message
from .network import Network
from .process import Process
from .rng import RandomSource
from .scheduler import Scheduler
from .tasks import Sleep, Task, TaskRuntime, WaitUntil
from .world import World

__all__ = [
    "NetworkAPI",
    "ProcessAPI",
    "SchedulerAPI",
    "WorldAPI",
    "stream_for",
    "Component",
    "Periodic",
    "DelayModel",
    "FixedDelay",
    "UniformDelay",
    "ExponentialDelay",
    "SpikeDelay",
    "EventHandle",
    "CrashEvent",
    "CrashSchedule",
    "crash_at",
    "no_crashes",
    "random_crashes",
    "Link",
    "ReliableLink",
    "PartiallySynchronousLink",
    "FairLossyLink",
    "DeadLink",
    "Message",
    "Network",
    "Process",
    "RandomSource",
    "Scheduler",
    "Sleep",
    "Task",
    "TaskRuntime",
    "WaitUntil",
    "Trace",
    "TraceEvent",
    "World",
]
