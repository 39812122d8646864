"""repro — flexible scheduling of network and computing resources for
distributed AI tasks.

A laptop-scale, fully-software reproduction of the SIGCOMM 2024 poster
"Flexible Scheduling of Network and Computing Resources for Distributed AI
Tasks" (Wang et al., arXiv:2407.04845): the fixed SPFF baseline, the
MST-based flexible scheduler with in-network multi-aggregation, and every
substrate the paper's testbed provides physically — capacitated optical
topologies, WDM/lightpath/grooming machinery, servers and containers, a
TCP/RDMA transport model, background traffic, and the Fig. 2 orchestrator.

Quickstart::

    from repro import (
        AITask, FlexibleScheduler, Orchestrator, get_model, metro_mesh,
    )

    network = metro_mesh(n_sites=8, servers_per_site=2)
    orchestrator = Orchestrator(network, FlexibleScheduler())
    task = AITask(
        task_id="demo",
        model=get_model("resnet18"),
        global_node="SRV-0-0",
        local_nodes=("SRV-2-0", "SRV-4-0", "SRV-6-0"),
    )
    orchestrator.admit(task)
    print(orchestrator.evaluate("demo").as_row())
"""

from .core import (
    ChainScheduler,
    EvaluationConfig,
    FixedScheduler,
    FlexibleScheduler,
    IterationEstimate,
    IterationPredictor,
    KspLoadBalancedScheduler,
    ReschedulingDecision,
    ReschedulingPolicy,
    RoundLatency,
    ScheduleEvaluator,
    Scheduler,
    TaskReport,
    TaskSchedule,
)
from .errors import (
    CapacityError,
    ConfigurationError,
    NoPathError,
    OrchestrationError,
    PlacementError,
    ReproError,
    SchedulingError,
    SimulationError,
    TaskError,
    TopologyError,
    TransportError,
    WavelengthError,
)
from .network import (
    AuxiliaryGraphBuilder,
    AuxiliaryWeights,
    Network,
    NetworkState,
    Node,
    NodeKind,
    metro_mesh,
    fat_tree,
    metro_ring,
    nsfnet,
    random_geometric,
    scale_free,
    spine_leaf,
    toy_triangle,
)
from .orchestrator import Orchestrator, build_servers_for, run_scenario
from .scenarios import (
    LinkFailureModel,
    ScenarioInstance,
    ScenarioSpec,
    SweepConfig,
    get_scenario,
    list_scenarios,
    register,
    run_sweep,
)
from .sim import Process, RandomStreams, Simulator
from .tasks import (
    AITask,
    AggregationModel,
    MLModelSpec,
    MODEL_CATALOGUE,
    TaskWorkload,
    WorkloadConfig,
    generate_workload,
    get_model,
)
from .traffic import TrafficGenerator
from .transport import Channel, RdmaTransport, TcpTransport

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Scheduler",
    "TaskSchedule",
    "FixedScheduler",
    "FlexibleScheduler",
    "KspLoadBalancedScheduler",
    "ChainScheduler",
    "ScheduleEvaluator",
    "EvaluationConfig",
    "RoundLatency",
    "TaskReport",
    "IterationPredictor",
    "IterationEstimate",
    "ReschedulingPolicy",
    "ReschedulingDecision",
    # errors
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "TopologyError",
    "NoPathError",
    "CapacityError",
    "WavelengthError",
    "PlacementError",
    "SchedulingError",
    "TaskError",
    "TransportError",
    "OrchestrationError",
    # network
    "Network",
    "Node",
    "NodeKind",
    "NetworkState",
    "AuxiliaryGraphBuilder",
    "AuxiliaryWeights",
    "toy_triangle",
    "metro_ring",
    "metro_mesh",
    "nsfnet",
    "spine_leaf",
    "random_geometric",
    "scale_free",
    "fat_tree",
    # orchestration
    "Orchestrator",
    "build_servers_for",
    "run_scenario",
    # scenarios
    "ScenarioSpec",
    "ScenarioInstance",
    "LinkFailureModel",
    "SweepConfig",
    "get_scenario",
    "list_scenarios",
    "register",
    "run_sweep",
    # sim
    "Simulator",
    "Process",
    "RandomStreams",
    # tasks
    "AITask",
    "MLModelSpec",
    "MODEL_CATALOGUE",
    "get_model",
    "AggregationModel",
    "WorkloadConfig",
    "TaskWorkload",
    "generate_workload",
    # traffic & transport
    "TrafficGenerator",
    "Channel",
    "TcpTransport",
    "RdmaTransport",
]
