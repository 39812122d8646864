"""Reproducible workload generation.

The paper evaluates with "30 AI tasks" whose local-model count is swept.
:func:`generate_workload` builds such mixes on any topology: it draws the
global/local placement among server nodes, a model from a configurable
catalogue subset, Poisson arrivals, and optional per-local utility scores
for the client-selection ablation — all from named random streams so each
component is independently reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import ConfigurationError
from ..network.graph import Network
from ..sim.rng import RandomStreams
from .aitask import AITask
from .models import get_model


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of a synthetic task mix.

    Attributes:
        n_tasks: number of AI tasks (paper: 30).
        n_locals: local models per task; an int for a fixed count or a
            (low, high) range sampled uniformly.
        model_names: catalogue subset to draw from (uniformly).
        demand_gbps: per-flow rate request of every task.
        rounds: training rounds per task.
        mean_interarrival_ms: Poisson arrival spacing (0 = all at time 0).
        with_utility: attach uniform(0,1) data-usefulness per local.
    """

    n_tasks: int = 30
    n_locals: "int | Tuple[int, int]" = 5
    model_names: Tuple[str, ...] = ("resnet18", "resnet50", "bert-base")
    demand_gbps: float = 10.0
    rounds: int = 5
    mean_interarrival_ms: float = 0.0
    with_utility: bool = False

    def __post_init__(self) -> None:
        if self.n_tasks < 1:
            raise ConfigurationError(f"n_tasks must be >= 1, got {self.n_tasks}")
        if isinstance(self.n_locals, tuple):
            low, high = self.n_locals
            if low < 1 or high < low:
                raise ConfigurationError(
                    f"invalid n_locals range {self.n_locals}"
                )
        elif self.n_locals < 1:
            raise ConfigurationError(
                f"n_locals must be >= 1, got {self.n_locals}"
            )
        if not self.model_names:
            raise ConfigurationError("model_names must be non-empty")
        for name in self.model_names:
            get_model(name)  # validates existence
        if self.demand_gbps <= 0:
            raise ConfigurationError(
                f"demand must be > 0 Gbps, got {self.demand_gbps}"
            )
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {self.rounds}")
        if self.mean_interarrival_ms < 0:
            raise ConfigurationError(
                f"mean_interarrival_ms must be >= 0, got {self.mean_interarrival_ms}"
            )


@dataclass(frozen=True)
class TaskWorkload:
    """A generated task mix ready to feed the orchestrator."""

    tasks: Tuple[AITask, ...]
    config: WorkloadConfig

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)


def generate_workload(
    network: Network,
    config: WorkloadConfig,
    streams: Optional[RandomStreams] = None,
    *,
    prefix: str = "task",
) -> TaskWorkload:
    """Generate a reproducible task mix over the network's servers.

    Placement draws ``1 + k`` distinct server nodes per task (global
    first).  The topology must host enough servers for the largest task.

    Raises:
        ConfigurationError: when the topology has too few server nodes.
    """
    if streams is None:
        streams = RandomStreams(0)
    placement_rng = streams.stream("workload/placement")
    model_rng = streams.stream("workload/model")
    arrival_rng = streams.stream("workload/arrivals")
    utility_rng = streams.stream("workload/utility")
    size_rng = streams.stream("workload/locals")

    servers = network.servers()
    tasks: List[AITask] = []
    clock = 0.0
    for index in range(config.n_tasks):
        if isinstance(config.n_locals, tuple):
            k = size_rng.randint(config.n_locals[0], config.n_locals[1])
        else:
            k = config.n_locals
        if len(servers) < k + 1:
            raise ConfigurationError(
                f"topology offers {len(servers)} server nodes; task needs "
                f"{k + 1} (1 global + {k} locals)"
            )
        chosen = placement_rng.sample(servers, k + 1)
        model = get_model(model_rng.choice(list(config.model_names)))
        if config.mean_interarrival_ms > 0:
            clock += arrival_rng.expovariate(1.0 / config.mean_interarrival_ms)
        utility = None
        if config.with_utility:
            utility = tuple(round(utility_rng.random(), 6) for _ in range(k))
        tasks.append(
            AITask(
                task_id=f"{prefix}-{index:03d}",
                model=model,
                global_node=chosen[0],
                local_nodes=tuple(chosen[1:]),
                rounds=config.rounds,
                demand_gbps=config.demand_gbps,
                local_utility=utility,
                arrival_ms=clock,
            )
        )
    return TaskWorkload(tasks=tuple(tasks), config=config)
