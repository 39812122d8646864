"""Aggregation cost model and the multi-aggregation plan over upload trees.

Aggregating two weight vectors is an element-wise average: the cost model
charges time proportional to the model size per *merge* (combining one more
input into the running aggregate).  The flexible scheduler performs these
merges at the "middle and final nodes of the upload procedure" (the
poster), i.e. at every aggregation-capable branch node of the upload tree.

:class:`UploadAggregationPlan` is a frozen record of one routed upload
tree's aggregation: the merges at each node, the payloads crossing each
tree edge, and the nodes that merge.  Nodes that cannot aggregate (e.g.
ROADMs) relay all incoming payloads unchanged, which costs upstream
bandwidth — exactly the behaviour that makes aggregation-point choice
matter.  The tree reservation builds each plan exactly once (it sizes the
upload reservation from ``edge_payloads``) and the schedule carries it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..errors import ConfigurationError, TaskError
from ..network.graph import Network
from ..network.paths import TreeResult


@dataclass(frozen=True)
class AggregationModel:
    """Time to merge model replicas at a node.

    Attributes:
        merge_ms_per_mb: milliseconds to fold one extra replica into the
            running aggregate, per megabit of model size (memory-bandwidth
            bound in practice).
        fixed_overhead_ms: per-merge bookkeeping time.
    """

    merge_ms_per_mb: float = 0.002
    fixed_overhead_ms: float = 0.05

    def __post_init__(self) -> None:
        if self.merge_ms_per_mb < 0:
            raise ConfigurationError(
                f"merge_ms_per_mb must be >= 0, got {self.merge_ms_per_mb}"
            )
        if self.fixed_overhead_ms < 0:
            raise ConfigurationError(
                f"fixed_overhead_ms must be >= 0, got {self.fixed_overhead_ms}"
            )

    def merge_ms(self, size_mb: float, n_merges: int = 1) -> float:
        """Time for ``n_merges`` sequential merges of a ``size_mb`` model."""
        if size_mb < 0:
            raise ConfigurationError(f"size must be >= 0 Mb, got {size_mb}")
        if n_merges < 0:
            raise ConfigurationError(f"n_merges must be >= 0, got {n_merges}")
        if n_merges == 0:
            return 0.0
        return n_merges * (self.fixed_overhead_ms + self.merge_ms_per_mb * size_mb)


@dataclass(frozen=True)
class UploadAggregationPlan:
    """Bottom-up aggregation schedule over one upload tree.

    A merge runs at every aggregation-capable node that receives two or
    more payloads (its children's plus its own local model, if it hosts
    one) and forwards a single aggregate; a node that cannot aggregate
    relays every payload unchanged.  The tree reservation builds the plan
    once with :meth:`build` and the :class:`~repro.core.base.TaskSchedule`
    carries it, so evaluation and round execution read these fields
    instead of walking the tree again.

    Attributes:
        tree: the upload tree (root = global node).
        merges: node -> merges executed there, for every tree node.
        edge_payloads: child -> model replicas crossing its
            ``child -> parent`` tree edge (> 1 below a relay that cannot
            aggregate).
        aggregation_nodes: nodes executing at least one merge, in name
            order.
    """

    tree: TreeResult
    merges: Dict[str, int]
    edge_payloads: Dict[str, int]
    aggregation_nodes: Tuple[str, ...]

    @classmethod
    def build(
        cls, network: Network, tree: TreeResult, sources: Sequence[str]
    ) -> "UploadAggregationPlan":
        """Walk ``tree`` bottom-up from the ``sources`` holding a payload.

        Raises:
            TaskError: if a source is not part of the tree.
        """
        own = set(sources)
        missing = own - tree.nodes
        if missing:
            raise TaskError(
                f"sources {sorted(missing)} are not in the upload tree"
            )
        children = tree.children()
        # Post-order traversal (iterative, deterministic child order).
        order: List[str] = []
        stack = [tree.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(children.get(node, []))
        merges: Dict[str, int] = {}
        edge_payloads: Dict[str, int] = {}
        for node in reversed(order):
            payloads = sum(edge_payloads[child] for child in children.get(node, []))
            if node in own:
                payloads += 1
            if payloads >= 2 and network.node(node).can_aggregate:
                merges[node] = payloads - 1
                payloads = 1
            else:
                merges[node] = 0
            if node != tree.root:
                edge_payloads[node] = payloads
        return cls(
            tree=tree,
            merges=merges,
            edge_payloads=edge_payloads,
            aggregation_nodes=tuple(
                sorted(node for node, count in merges.items() if count)
            ),
        )
