"""Benchmark fig3a: total latency vs number of local models (paper Fig. 3a).

Regenerates the latency panel and asserts the paper's claims:

* both schedulers' latency grows with the number of local models;
* the flexible scheduler finishes training with lower latency;
* the saving at the largest point is in the paper's ballpark (the paper
  reports 2.3 ms vs 1.9 ms at 15 locals, a ~17% saving; ``FLOORS``
  holds ``latency_saving_pct`` to 5-60% since our substrate is a
  simulator, not their testbed).

``transfer_calls_per_path`` (shape, floored ``<= 1.5``) counts the
transport's ``transfer_ms`` calls per evaluated path when both
schedulers' schedules for one 8-local task on a metro mesh are
evaluated.  The evaluator prices each distinct ``(size, rate)`` stage
of a path once, so uniform-rate paths cost one call; pricing every hop
costs one call per hop.
"""

import dataclasses

from repro.bench import bench_suite
from repro.core.evaluation import EvaluationConfig, ScheduleEvaluator
from repro.core.fixed import FixedScheduler
from repro.core.flexible import FlexibleScheduler
from repro.experiments.fig3 import Fig3Config, run_fig3
from repro.network.topology import metro_mesh
from repro.tasks.aitask import AITask
from repro.tasks.models import get_model
from repro.transport.protocols import TcpTransport

from benchmarks.conftest import assert_floors, run_once, series

CONFIG = Fig3Config(n_locals_values=(3, 9, 15), n_tasks=15, seed=7)


@dataclasses.dataclass
class _CountingTcp(TcpTransport):
    """TCP that counts its ``transfer_ms`` calls."""

    calls: int = 0

    def transfer_ms(self, size_mb, raw_rate_gbps, rtt_ms):
        self.calls += 1
        return super().transfer_ms(size_mb, raw_rate_gbps, rtt_ms)


def transfer_calls_per_path() -> float:
    """``transfer_ms`` calls per evaluated path, both schedulers."""
    network = metro_mesh(n_sites=8, servers_per_site=2)
    servers = network.servers()
    task = AITask(
        task_id="probe",
        model=get_model("resnet18"),
        global_node=servers[0],
        local_nodes=tuple(servers[1:9]),
        demand_gbps=5.0,
    )
    transport = _CountingTcp()
    config = EvaluationConfig(transport=transport)
    paths = 0
    for scheduler in (FixedScheduler(), FlexibleScheduler()):
        fabric = network.copy_topology()
        schedule = scheduler.schedule(task, fabric)
        ScheduleEvaluator(fabric, config).report(schedule)
        paths += 2 * task.n_locals  # one broadcast + one upload per local
    return transport.calls / paths


@bench_suite("fig3a", headline="latency_saving_pct")
def suite(smoke: bool = False) -> dict:
    """Fig. 3a latency panel: flexible saves 5-60% at 15 locals."""
    result = run_fig3(CONFIG)

    fixed = series(result, "fixed-spff", "round_ms")
    flexible = series(result, "flexible-mst", "round_ms")

    # Latency grows with locals for both schedulers.
    assert fixed[-1] > fixed[0]
    assert flexible[-1] >= flexible[0]

    # Flexible wins at the paper's operating point (15 locals).
    assert flexible[-1] < fixed[-1]
    saving = (fixed[-1] - flexible[-1]) / fixed[-1]
    return {
        "fixed_round_ms_at_15": round(fixed[-1], 4),
        "flexible_round_ms_at_15": round(flexible[-1], 4),
        "latency_saving_pct": round(100.0 * saving, 2),
        "transfer_calls_per_path": round(transfer_calls_per_path(), 3),
    }


def test_fig3a_latency_vs_locals(benchmark):
    assert_floors("fig3a", None, run_once(benchmark, suite), smoke=False)
