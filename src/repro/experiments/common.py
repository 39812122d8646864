"""Set-up shared by the experiment harnesses."""

from __future__ import annotations

from typing import Sequence, Tuple

from ..network.graph import Network
from ..sim.rng import RandomStreams
from ..tasks.workload import TaskWorkload, WorkloadConfig, generate_workload
from ..traffic.generator import TrafficGenerator


def seeded_workload(
    network: Network,
    seed: int,
    config: WorkloadConfig,
    *,
    background_flows: int = 0,
    traffic_rate_gbps: float = 5.0,
) -> Tuple[TaskWorkload, TrafficGenerator]:
    """Load ``network`` with background flows and draw its task mix.

    Both draw from named streams of ``RandomStreams(seed)`` (``traffic``
    and ``workload/*``), so neither perturbs the other.  Returns the
    workload and the traffic generator, whose flows a harness may clear
    later to change the network conditions.
    """
    streams = RandomStreams(seed)
    traffic = TrafficGenerator(network, streams, rate_gbps=traffic_rate_gbps)
    traffic.inject_static(background_flows)
    return generate_workload(network, config, streams), traffic


def rounded_mean(values: Sequence[float]) -> float:
    """Mean of ``values`` rounded to 4 decimals, the rows' precision."""
    return round(sum(values) / len(values), 4)
