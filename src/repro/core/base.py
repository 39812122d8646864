"""Scheduler interface and the :class:`TaskSchedule` result object.

A scheduler consumes an :class:`~repro.tasks.aitask.AITask` and the live
network, *reserves* the capacity its decision needs (owner-tagged with the
task id so release is exact), and returns a :class:`TaskSchedule` carrying
everything evaluation needs: per-procedure routes or trees and the rate
reserved on every directed edge.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from .. import obs
from ..errors import SchedulingError
from ..network.graph import Network
from ..network.paths import TreeResult
from ..tasks.aggregation import UploadAggregationPlan
from ..tasks.aitask import AITask

#: A directed edge key used throughout schedule records.
Edge = Tuple[str, str]

#: Flows and tree edges allocated less than this rate are blocked.
MIN_RATE_GBPS = 1e-3


def traced_schedule(
    method: Callable[..., "TaskSchedule"]
) -> Callable[..., "TaskSchedule"]:
    """Wrap a ``schedule`` implementation with out-of-band telemetry.

    While :mod:`repro.obs` is enabled each call runs inside a
    ``schedule`` span labelled with the scheduler's name and bumps a
    ``schedule.accepted`` / ``schedule.rejected`` counter; while
    telemetry is off the wrapper is a single attribute check around the
    undisturbed method.  Telemetry never alters the outcome — the
    original exception propagates unchanged.
    """

    @functools.wraps(method)
    def wrapper(self: "Scheduler", task: AITask, network: Network) -> "TaskSchedule":
        registry = obs.active()
        if registry is None:
            return method(self, task, network)
        try:
            with registry.span("schedule", scheduler=self.name):
                schedule = method(self, task, network)
        except SchedulingError:
            registry.inc("schedule.rejected", scheduler=self.name)
            raise
        registry.inc("schedule.accepted", scheduler=self.name)
        return schedule

    return wrapper


@dataclass(frozen=True)
class TaskSchedule:
    """The outcome of scheduling one task.

    Exactly one of two shapes is populated, each reserved by one routine:

    * **path-based** (fixed and ksp-lb schedulers, reserved by
      :func:`~repro.core.fixed.reserve_flows`): ``broadcast_routes`` /
      ``upload_routes`` map each local node to its end-to-end path, with
      per-local rates in ``broadcast_flow_rates`` / ``upload_flow_rates``;
    * **tree-based** (flexible and chain schedulers, reserved by
      :func:`~repro.core.flexible.reserve_trees`): ``broadcast_tree``
      carries the broadcast tree and ``upload_plan`` the upload tree's
      :class:`~repro.tasks.aggregation.UploadAggregationPlan`, built
      once when the upload tree was reserved (``upload_tree`` reads the
      tree through it).

    Both shapes record the rate reserved on every directed edge in
    ``broadcast_edge_rates`` / ``upload_edge_rates``.

    ``consumed_bandwidth_gbps`` — the paper's Fig. 3b metric — is the sum
    of reserved rate over every directed edge either shape occupies.
    """

    task: AITask
    scheduler: str
    broadcast_routes: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    upload_routes: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    broadcast_flow_rates: Dict[str, float] = field(default_factory=dict)
    upload_flow_rates: Dict[str, float] = field(default_factory=dict)
    broadcast_tree: Optional[TreeResult] = None
    upload_plan: Optional[UploadAggregationPlan] = None
    broadcast_edge_rates: Dict[Edge, float] = field(default_factory=dict)
    upload_edge_rates: Dict[Edge, float] = field(default_factory=dict)

    @property
    def owner(self) -> str:
        """The reservation owner tag in the network."""
        return self.task.task_id

    @property
    def upload_tree(self) -> Optional[TreeResult]:
        """The upload tree (tree-based schedules), read from the plan."""
        return None if self.upload_plan is None else self.upload_plan.tree

    @property
    def is_tree_based(self) -> bool:
        """True for flexible (tree) schedules."""
        return self.broadcast_tree is not None

    @property
    def consumed_bandwidth_gbps(self) -> float:
        """Summed reserved rate across all directed edges (both procedures)."""
        total = sum(self.broadcast_edge_rates.values()) + sum(
            self.upload_edge_rates.values()
        )
        return total

    def broadcast_path_of(self, local: str) -> Tuple[str, ...]:
        """Route global -> ``local`` for the broadcast procedure."""
        if self.broadcast_tree is not None:
            nodes = self.broadcast_tree.path_to_root(local)
            return tuple(reversed(nodes))
        try:
            return self.broadcast_routes[local]
        except KeyError:
            raise SchedulingError(
                f"schedule of {self.task.task_id!r} has no broadcast route "
                f"for {local!r}"
            ) from None

    def upload_path_of(self, local: str) -> Tuple[str, ...]:
        """Route ``local`` -> global for the upload procedure."""
        if self.upload_tree is not None:
            return tuple(self.upload_tree.path_to_root(local))
        try:
            return self.upload_routes[local]
        except KeyError:
            raise SchedulingError(
                f"schedule of {self.task.task_id!r} has no upload route "
                f"for {local!r}"
            ) from None

    def occupied_edges(self) -> Dict[Edge, float]:
        """Every directed edge the schedule reserves, with its rate."""
        merged: Dict[Edge, float] = {}
        for rates in (self.broadcast_edge_rates, self.upload_edge_rates):
            for edge, rate in rates.items():
                merged[edge] = merged.get(edge, 0.0) + rate
        return merged


class Scheduler(abc.ABC):
    """Interface every scheduling strategy implements.

    Concrete schedulers must reserve capacity on the network as part of
    :meth:`schedule`, tagged with the task id, so that a later
    :meth:`release` (or :meth:`Network.release_owner`) frees it exactly.

    Args:
        min_rate_gbps: admission floor; scheduling fails if any flow or
            tree edge would receive less than this.
    """

    #: short name used in reports ("fixed-spff", "flexible-mst", ...).
    name: str = "scheduler"

    def __init__(self, min_rate_gbps: float = MIN_RATE_GBPS) -> None:
        if min_rate_gbps <= 0:
            raise SchedulingError(
                f"min_rate_gbps must be > 0, got {min_rate_gbps}"
            )
        self._min_rate = min_rate_gbps

    @abc.abstractmethod
    def schedule(self, task: AITask, network: Network) -> TaskSchedule:
        """Decide routes/trees and reserve capacity for ``task``.

        Raises:
            SchedulingError: when the task cannot be accommodated.
        """

    def release(self, schedule: TaskSchedule, network: Network) -> float:
        """Free every reservation the schedule holds.

        Returns:
            Total directed-edge rate released.
        """
        return network.release_owner(schedule.owner)
