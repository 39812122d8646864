"""The programmable orchestrator of the paper's Fig. 2, in software.

Components map one-to-one onto the testbed's control plane:

* :class:`~repro.orchestrator.database.Database` — stores AI tasks,
  schedules, and reported networking conditions;
* :class:`~repro.orchestrator.sdn.SdnController` — turns schedules into
  flow rules and counts reconfigurations;
* :class:`~repro.orchestrator.monitor.NetworkMonitor` — periodically
  reports network state into the database;
* :class:`~repro.orchestrator.orchestrator.Orchestrator` — the façade
  that embeds the scheduling policy and coordinates everything.

Fig. 2's AI task manager is :meth:`Orchestrator.admit
<repro.orchestrator.orchestrator.Orchestrator.admit>` together with the
:class:`~repro.orchestrator.database.Database`: ``admit`` stores each new
task (duplicate ids are refused) and moves it through its lifecycle.
"""

from .campaign import CampaignResult, CampaignRunner, TaskOutcome, run_scenario
from .database import Database, TaskRecord, TaskStatus
from .monitor import NetworkMonitor
from .orchestrator import Orchestrator, build_servers_for
from .sdn import FlowRule, SdnController

__all__ = [
    "CampaignResult",
    "CampaignRunner",
    "TaskOutcome",
    "run_scenario",
    "Database",
    "TaskRecord",
    "TaskStatus",
    "NetworkMonitor",
    "Orchestrator",
    "build_servers_for",
    "FlowRule",
    "SdnController",
]
