"""The contribution: flexible MST-based scheduler with multi-aggregation.

Per the poster: "the flexible scheduler finds a suitable connectivity set
[...] and further schedules routing paths and aggregation operations.  We
first build auxiliary graphs for broadcast and upload procedures,
respectively.  We initialize each link of the broadcast/upload graphs
according to bandwidth consumption and latency, and then find MSTs between
the global model and local models.  The links of MSTs are considered as
routing paths, and the aggregation operations happen in the middle and
final nodes of upload procedure."

Implementation:

1. build the **broadcast auxiliary graph**
   (:class:`~repro.network.auxiliary.AuxiliaryGraphBuilder`) over the live
   network — edges already reserved by this task are discounted, loaded
   edges penalised, infeasible edges infinite;
2. find the **terminal tree** (MST on the metric closure of
   ``{G} ∪ locals``) and reserve the demand once per tree edge in the
   root-to-leaf direction;
3. rebuild the auxiliary graph for the **upload** procedure (reservations
   from step 2 now count as load; reuse discounts apply to this task's own
   edges) and find the upload tree; reserve leaf-to-root;
4. derive the **multi-aggregation plan**: merges run at every
   aggregation-capable node of the upload tree with two or more incoming
   payloads, so each tree edge carries a single aggregated payload
   (``k - 1`` merges total, distributed over the tree instead of
   serialised at G).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import NoPathError, SchedulingError
from ..network import routing
from ..network.auxiliary import AuxiliaryGraphBuilder, AuxiliaryWeights
from ..network.graph import Network
from ..network.paths import TreeResult
from ..tasks.aggregation import UploadAggregationPlan
from ..tasks.aitask import AITask
from .base import Edge, Scheduler, TaskSchedule, traced_schedule

#: Edges allocated less than this rate are considered blocked.
MIN_RATE_GBPS = 1e-3


class FlexibleScheduler(Scheduler):
    """MST-over-auxiliary-graph scheduler with in-network aggregation.

    Trees are built through the network's epoch-keyed
    :class:`~repro.network.routing.PathCache` on the CSR kernel.

    Args:
        weights: auxiliary-graph blending coefficients; the defaults
            balance bandwidth saving against latency as in the poster.
        min_rate_gbps: admission floor per tree edge.
    """

    name = "flexible-mst"

    def __init__(
        self,
        weights: Optional[AuxiliaryWeights] = None,
        min_rate_gbps: float = MIN_RATE_GBPS,
    ) -> None:
        if min_rate_gbps <= 0:
            raise SchedulingError(
                f"min_rate_gbps must be > 0, got {min_rate_gbps}"
            )
        self._weights = weights or AuxiliaryWeights()
        self._min_rate = min_rate_gbps

    @property
    def weights(self) -> AuxiliaryWeights:
        return self._weights

    def _build_tree(self, task: AITask, network: Network) -> TreeResult:
        builder = AuxiliaryGraphBuilder(
            network,
            demand_gbps=task.demand_gbps,
            owner=task.task_id,
            weights=self._weights,
        )
        try:
            return routing.get_cache(network).terminal_tree(
                task.global_node, list(task.local_nodes), builder
            )
        except NoPathError as exc:
            raise SchedulingError(f"task {task.task_id!r}: {exc}") from exc

    def _reserve_tree(
        self,
        task: AITask,
        network: Network,
        tree: TreeResult,
        *,
        towards_root: bool,
        edge_multiplicity: Optional[Dict[str, int]] = None,
    ) -> Dict[Edge, float]:
        """Reserve the demanded rate on each tree edge, one direction.

        ``towards_root=False`` reserves parent->child (broadcast),
        ``towards_root=True`` reserves child->parent (upload).

        ``edge_multiplicity`` maps a child node to the number of payloads
        its parent edge carries (> 1 below non-aggregating branch points);
        the reservation scales with it so multi-payload edges are honestly
        accounted.  Edges where this task already holds the needed rate
        (path reuse across procedures/rescheduling) are not re-reserved.
        """
        rates: Dict[Edge, float] = {}
        for child, parent in tree.edges:
            payloads = (edge_multiplicity or {}).get(child, 1)
            demand = task.demand_gbps * payloads
            edge: Edge = (child, parent) if towards_root else (parent, child)
            link = network.link(*edge)
            held = link.owner_gbps(edge[0], edge[1], task.task_id)
            if held >= demand - 1e-9:
                rates[edge] = held
                continue
            rate = min(demand - held, link.residual_gbps(*edge))
            if held + rate < self._min_rate:
                network.release_owner(task.task_id)
                raise SchedulingError(
                    f"task {task.task_id!r}: tree edge {edge} has no residual "
                    "capacity"
                )
            if rate > 0:
                link.reserve(edge[0], edge[1], rate, task.task_id)
            rates[edge] = held + rate
        return rates

    @traced_schedule
    def schedule(self, task: AITask, network: Network) -> TaskSchedule:
        broadcast_tree = self._build_tree(task, network)
        broadcast_rates = self._reserve_tree(
            task, network, broadcast_tree, towards_root=False
        )
        # Upload gets its own auxiliary graph: the broadcast reservations
        # now shape congestion, and the task's own edges are discounted,
        # which is what lets upload reuse the broadcast tree's fibre in
        # the opposite direction when that remains the best choice.
        upload_tree = self._build_tree(task, network)
        plan = UploadAggregationPlan(network, upload_tree, task.local_nodes)
        multiplicity = {
            child: plan.payloads_on_edge(child)
            for child, _parent in upload_tree.edges
        }
        upload_rates = self._reserve_tree(
            task,
            network,
            upload_tree,
            towards_root=True,
            edge_multiplicity=multiplicity,
        )
        return TaskSchedule(
            task=task,
            scheduler=self.name,
            broadcast_tree=broadcast_tree,
            upload_tree=upload_tree,
            broadcast_edge_rates=broadcast_rates,
            upload_edge_rates=upload_rates,
        )
