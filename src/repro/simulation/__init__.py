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

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "LocalClock": "repro.protocols.clock",
    "Alarm": ".agents",
    "ServerAgent": ".agents",
    "UserAgent": ".agents",
    "BROADCAST": ".channels",
    "SERVER_ID": ".channels",
    "Envelope": ".channels",
    "Network": ".channels",
    "Action": ".events",
    "Run": ".events",
    "TimedAction": ".events",
    "describe_query": ".events",
    "deviates_from_all": ".events",
    "prefix_deviates": ".events",
    "Simulation": ".runner",
    "SimulationReport": ".runner",
    "Intent": ".workload",
    "Workload": ".workload",
    "back_to_back_workload": ".workload",
    "bursty_workload": ".workload",
    "epoch_workload": ".workload",
    "partitionable_workload": ".workload",
    "seed_queries": ".workload",
    "sleepy_workload": ".workload",
    "steady_workload": ".workload",
    "timezone_workload": ".workload",
})
