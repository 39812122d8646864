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
4. the same reservation derives the **multi-aggregation plan**
   (:class:`~repro.tasks.aggregation.UploadAggregationPlan`, built once
   per upload tree before its edges are reserved): merges run at every
   aggregation-capable node of the upload tree with two or more incoming
   payloads, so each tree edge carries a single aggregated payload
   (``k - 1`` merges total, distributed over the tree instead of
   serialised at G).  Edges below a node that cannot aggregate carry one
   payload per descendant source and reserve that multiple of the
   demand.  The schedule carries the plan, so evaluation and round
   execution never derive it again.

:func:`reserve_trees` is the one tree reservation: the chain baseline
(:class:`~repro.core.baselines.ChainScheduler`) reserves through it too.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Tuple

from ..errors import NoPathError, SchedulingError
from ..network import routing
from ..network.auxiliary import AuxiliaryGraphBuilder, AuxiliaryWeights
from ..network.graph import Network
from ..network.paths import TreeResult
from ..tasks.aggregation import UploadAggregationPlan
from ..tasks.aitask import AITask
from .base import MIN_RATE_GBPS, Edge, Scheduler, TaskSchedule, traced_schedule


def reserve_trees(
    name: str,
    task: AITask,
    network: Network,
    min_rate: float,
    broadcast_tree: TreeResult,
    upload_tree: Callable[[], TreeResult],
) -> TaskSchedule:
    """Reserve a tree schedule: broadcast root-to-leaf, then upload.

    ``upload_tree`` is called once the broadcast tree is reserved, so a
    scheduler may route upload over the load that reservation left.  The
    upload tree's aggregation plan is built here, once: each upload edge
    reserves the demand times the payloads it carries, and the returned
    schedule (named ``name``) carries the plan.

    Raises:
        SchedulingError: when a tree edge cannot get ``min_rate``;
            everything the task holds is released first.
    """
    broadcast_rates = _reserve_edges(
        task,
        network,
        min_rate,
        [((parent, child), 1) for child, parent in broadcast_tree.edges],
    )
    tree = upload_tree()
    plan = UploadAggregationPlan.build(network, tree, task.local_nodes)
    upload_rates = _reserve_edges(
        task,
        network,
        min_rate,
        [
            ((child, parent), plan.edge_payloads[child])
            for child, parent in tree.edges
        ],
    )
    return TaskSchedule(
        task=task,
        scheduler=name,
        broadcast_tree=broadcast_tree,
        upload_plan=plan,
        broadcast_edge_rates=broadcast_rates,
        upload_edge_rates=upload_rates,
    )


def _reserve_edges(
    task: AITask,
    network: Network,
    min_rate: float,
    edges: Iterable[Tuple[Edge, int]],
) -> Dict[Edge, float]:
    """Reserve the demand times ``payloads`` on each directed edge, in order.

    Rate the task already holds on an edge (path reuse across procedures)
    counts towards the demand; only the shortfall is reserved.  An edge
    that carries a payload but is left below ``min_rate`` — no residual
    capacity, or a demand under the floor — blocks the task.  An upload
    edge under a branch without sources carries none: it reserves
    nothing and is recorded at the rate already held.
    """
    rates: Dict[Edge, float] = {}
    for edge, payloads in edges:
        demand = task.demand_gbps * payloads
        link = network.link(*edge)
        held = link.owner_gbps(edge[0], edge[1], task.task_id)
        if held >= demand - 1e-9:
            rate = 0.0
        else:
            rate = min(demand - held, link.residual_gbps(*edge))
        if payloads and held + rate < min_rate:
            network.release_owner(task.task_id)
            raise SchedulingError(
                f"task {task.task_id!r}: tree edge {edge} has no residual "
                "capacity"
            )
        if rate > 0:
            link.reserve(edge[0], edge[1], rate, task.task_id)
        rates[edge] = held + rate
    return rates


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
        super().__init__(min_rate_gbps)
        self._weights = weights or AuxiliaryWeights()

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

    @traced_schedule
    def schedule(self, task: AITask, network: Network) -> TaskSchedule:
        # Upload gets its own auxiliary graph: the broadcast reservations
        # now shape congestion, and the task's own edges are discounted,
        # which is what lets upload reuse the broadcast tree's fibre in
        # the opposite direction when that remains the best choice.
        return reserve_trees(
            self.name,
            task,
            network,
            self._min_rate,
            self._build_tree(task, network),
            lambda: self._build_tree(task, network),
        )
