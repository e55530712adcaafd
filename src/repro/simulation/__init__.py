"""The multi-agent simulation substrate (paper Section 2).

* :class:`LocalClock` -- p-partial synchrony (it is the Protocol III
  client's clock, so it lives in :mod:`repro.protocols.clock`).
* :mod:`repro.simulation.events` -- runs and Definition 2.1 deviation.
* :mod:`repro.simulation.channels` -- bounded-delay messaging plus the
  users' broadcast channel.
* :mod:`repro.simulation.workload` -- CVS workload generators,
  including the partitionable workloads of Section 3.1.
* :mod:`repro.simulation.agents` / :mod:`repro.simulation.runner` --
  the round-driven execution engine; deviation onset is judged by
  the server core it drives.
"""

from repro.protocols.clock import LocalClock
from repro.simulation.agents import Alarm, ServerAgent, UserAgent
from repro.simulation.channels import BROADCAST, SERVER_ID, Envelope, Network
from repro.simulation.events import (
    Action,
    Run,
    TimedAction,
    describe_query,
    deviates_from_all,
    prefix_deviates,
)
from repro.simulation.runner import Simulation, SimulationReport
from repro.simulation.workload import (
    Intent,
    Workload,
    back_to_back_workload,
    bursty_workload,
    epoch_workload,
    partitionable_workload,
    seed_queries,
    sleepy_workload,
    steady_workload,
    timezone_workload,
)

__all__ = [
    "Alarm",
    "ServerAgent",
    "UserAgent",
    "BROADCAST",
    "SERVER_ID",
    "Envelope",
    "Network",
    "LocalClock",
    "Action",
    "Run",
    "TimedAction",
    "describe_query",
    "deviates_from_all",
    "prefix_deviates",
    "Simulation",
    "SimulationReport",
    "Intent",
    "Workload",
    "back_to_back_workload",
    "bursty_workload",
    "epoch_workload",
    "partitionable_workload",
    "seed_queries",
    "sleepy_workload",
    "steady_workload",
    "timezone_workload",
]
