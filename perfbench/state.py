"""Correctness checks and counters read from public state after a round.

The boundary probe keeps every :class:`ScenarioInstance` a round
instantiates (one per run key and scheduler).  Once ``run_sweep`` has
returned, their networks are scanned through the public ``Network`` and
``Link`` accessors, and their path caches are read through
``routing.peek_cache``.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Dict, List, Sequence

from repro.network.routing import peek_cache

#: Tolerance of the capacity invariant, as in ``Link.reserve``.
CAPACITY_EPS_GBPS = 1e-9


def scan_networks(instances: Sequence[Any]) -> List[str]:
    """Problems in the final state: over-capacity links, task residue."""
    problems: List[str] = []
    for instance in instances:
        task_ids = {task.task_id for task in instance.workload}
        where = f"{instance.spec.name} seed {instance.seed}"
        for link in instance.network.links():
            u, v = link.endpoints
            for src, dst in ((u, v), (v, u)):
                used = link.used_gbps(src, dst)
                if used > link.capacity_gbps + CAPACITY_EPS_GBPS:
                    problems.append(
                        f"{where}: {src}->{dst} carries {used} Gbps over "
                        f"{link.capacity_gbps} Gbps capacity"
                    )
                residue = [
                    r.owner for r in link.reservations(src, dst) if r.owner in task_ids
                ]
                if residue:
                    problems.append(
                        f"{where}: {src}->{dst} still reserved by tasks {residue}"
                    )
    return problems


def check_rows(
    rows: Sequence[Dict[str, Any]], instances: Sequence[Any], attempts: int
) -> List[str]:
    """Problems in the sink rows against the instances they came from.

    The serial backend instantiates once per row, in row order.  Every
    workload task must be offered to ``admit`` exactly once, and a row
    cannot serve or block more tasks than its workload holds.
    """
    problems: List[str] = []
    if len(rows) != len(instances):
        return [f"{len(rows)} sink rows for {len(instances)} instances"]
    offered = sum(len(instance.workload) for instance in instances)
    if offered != attempts:
        problems.append(f"{attempts} admissions for {offered} workload tasks")
    for row, instance in zip(rows, instances):
        tasks = len(instance.workload)
        settled = row["served"] + row["blocked"]
        protocol = "bandwidth_gbps" in row
        if settled > tasks or (protocol and settled != tasks):
            problems.append(
                f"{row['scenario']} seed {row['seed']} {row['scheduler']}: "
                f"served+blocked {settled} of {tasks} tasks"
            )
        for column, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                problems.append(
                    f"{row['scenario']} seed {row['seed']}: {column} is {value}"
                )
    return problems


def cache_counters(instances: Sequence[Any]) -> Counter:
    """``PathCache.stats`` summed over the instances' networks."""
    total: Counter = Counter()
    for instance in instances:
        cache = peek_cache(instance.network)
        if cache is not None:
            total.update(cache.stats.as_dict())
    return total
