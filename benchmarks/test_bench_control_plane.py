"""Benchmark control-plane: per-admission reservation and rule bookkeeping.

No figure of the paper: this suite pins what serving one task costs the
control plane, as counts, on the Fig. 3 protocol (admit -> evaluate ->
complete, one task at a time) with the fixed scheduler over the pinned
``metro-mesh-uniform`` instance (seed 0, its background flows injected).
Every metric is a shape floor:

* ``fixed.reserves_per_edge`` (floored ``<= 1.0``): ``Link.reserve``
  calls inside admitted fixed schedules per distinct directed edge they
  reserve.  A path schedule sums its flows' rates per edge and reserves
  each edge once; per-flow, per-hop reserves make one call per hop of
  every flow (about 1.6 per edge on the catalogue scenarios).
* ``sdn.flow_rules_built_per_install`` (floored ``<= 0``): ``FlowRule``
  objects built while serving, per SDN install.  The controller keeps
  the schedule as its rule table and builds rules only when read.
* ``ledger.sums_per_reserve`` (floored ``<= 1.0``): owner-bucket
  ``sum()`` calls per ``Link.reserve`` (the one write of the
  direction's ledger slot).
* ``csr.idle_refresh_regathers`` (floored ``<= 0``): directed edges the
  CSR overlay re-gathers in ``refresh`` calls made at an unchanged
  ledger epoch.
* ``csr.refresh_link_reads`` (floored ``<= 0``): ``Link`` state reads
  (``used_gbps``, ``failed``, ``capacity_gbps``) made inside
  ``refresh``; the overlay gathers the ledger slots, not the links.
* ``closure.path_results_per_tree`` (floored ``<= 0``): the same
  instance served again by the flexible scheduler, counting
  ``PathResult`` objects built inside ``FlexibleScheduler._build_tree``
  per tree built.  The terminal-tree finisher reads pair weights off
  the terminals' shortest-path trees and walks only the chosen closure
  edges' predecessor chains.  A closure dict of paths builds one per
  terminal pair (10 at four locals) plus one per closure edge expanded
  in reverse: 11.2 per tree on this instance.
"""

import builtins

from repro.bench import bench_suite
from repro.core.fixed import FixedScheduler
from repro.core.flexible import FlexibleScheduler
from repro.network import link as link_module
from repro.network.csr.snapshot import CsrSnapshot
from repro.network.link import Link
from repro.network.paths import PathResult
from repro.orchestrator import sdn
from repro.orchestrator.campaign import orchestrator_for, serve_sequential
from repro.scenarios import get_scenario

from benchmarks.conftest import run_once

SCENARIO = "metro-mesh-uniform"
SEED = 0


class _Counts:
    """Counting wrappers around the control-plane calls, undone on exit."""

    def __init__(self) -> None:
        self.fixed_reserves = 0
        self.fixed_edges = 0
        self.reserves = 0
        self.reserve_sums = 0
        self.rules_built = 0
        self.installs = 0
        self.idle_regathers = 0
        self.refresh_link_reads = 0
        self.trees = 0
        self.tree_path_results = 0
        self._in_fixed = False
        self._in_tree = False
        self._in_refresh = False
        self._saved = []

    def _patch(self, owner, name, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "_Counts":
        counts = self
        reserve = Link.reserve
        schedule = FixedScheduler.schedule
        rule_init = sdn.FlowRule.__init__
        install = sdn.SdnController.install
        refresh = CsrSnapshot.refresh
        build_tree = FlexibleScheduler._build_tree
        path_init = PathResult.__init__

        def counted_sum(values, start=0):
            counts.reserve_sums += 1
            return builtins.sum(values, start)

        def counted_reserve(self, *args, **kwargs):
            counts.reserves += 1
            counts.fixed_reserves += counts._in_fixed
            link_module.sum = counted_sum
            try:
                return reserve(self, *args, **kwargs)
            finally:
                del link_module.sum

        def counted_schedule(self, task, network):
            before = counts.fixed_reserves
            counts._in_fixed = True
            try:
                task_schedule = schedule(self, task, network)
            except Exception:
                # A blocked attempt rolls its reservation back.
                counts.fixed_reserves = before
                raise
            finally:
                counts._in_fixed = False
            counts.fixed_edges += len(
                task_schedule.broadcast_edge_rates.keys()
                | task_schedule.upload_edge_rates.keys()
            )
            return task_schedule

        def counted_rule_init(self, *args, **kwargs):
            counts.rules_built += 1
            rule_init(self, *args, **kwargs)

        def counted_install(self, task_schedule):
            counts.installs += 1
            return install(self, task_schedule)

        def counted_refresh(self):
            idle = self.network.ledger.epoch == self._synced_epoch
            counts._in_refresh = True
            try:
                gathered = refresh(self)
            finally:
                counts._in_refresh = False
            if idle:
                counts.idle_regathers += gathered
            return gathered

        def counted_build_tree(self, task, network):
            counts.trees += 1
            counts._in_tree = True
            try:
                return build_tree(self, task, network)
            finally:
                counts._in_tree = False

        def counted_path_init(self, *args, **kwargs):
            counts.tree_path_results += counts._in_tree
            path_init(self, *args, **kwargs)

        self._patch(Link, "reserve", counted_reserve)
        self._patch(FlexibleScheduler, "_build_tree", counted_build_tree)
        self._patch(PathResult, "__init__", counted_path_init)
        self._patch(FixedScheduler, "schedule", counted_schedule)
        self._patch(sdn.FlowRule, "__init__", counted_rule_init)
        self._patch(sdn.SdnController, "install", counted_install)
        self._patch(CsrSnapshot, "refresh", counted_refresh)
        used_gbps = Link.used_gbps

        def counted_used(self, src, dst):
            counts.refresh_link_reads += counts._in_refresh
            return used_gbps(self, src, dst)

        self._patch(Link, "used_gbps", counted_used)
        for name in ("failed", "capacity_gbps"):
            prop = Link.__dict__[name]

            def counted(self, fget=prop.fget):
                counts.refresh_link_reads += counts._in_refresh
                return fget(self)

            self._patch(Link, name, property(counted, prop.fset))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)


def _serve(scheduler) -> tuple:
    """Serve the pinned instance with ``scheduler`` under fresh counters."""
    instance = get_scenario(SCENARIO).instantiate(seed=SEED)
    with _Counts() as counts:
        orchestrator = orchestrator_for(instance, scheduler)
        served, _blocked = serve_sequential(orchestrator, instance.workload)
    return served, counts


def control_plane_counts() -> dict:
    """Serve the pinned instance once per leg under the counting wrappers."""
    served, counts = _serve(FixedScheduler())
    assert served and counts.fixed_edges and counts.installs == len(served)
    flexible_served, flexible = _serve(FlexibleScheduler())
    assert flexible_served and flexible.trees
    return {
        "served": len(served),
        "fixed": {
            "reserve_calls": counts.fixed_reserves,
            "edges": counts.fixed_edges,
            "reserves_per_edge": round(
                counts.fixed_reserves / counts.fixed_edges, 3
            ),
        },
        "sdn": {
            "installs": counts.installs,
            "flow_rules_built_per_install": round(
                counts.rules_built / counts.installs, 3
            ),
        },
        "ledger": {
            "sums_per_reserve": round(counts.reserve_sums / counts.reserves, 3),
        },
        "csr": {
            "idle_refresh_regathers": counts.idle_regathers,
            "refresh_link_reads": counts.refresh_link_reads,
        },
        "closure": {
            "trees": flexible.trees,
            "path_results_per_tree": round(
                flexible.tree_path_results / flexible.trees, 3
            ),
        },
    }


@bench_suite("control_plane", headline="fixed.reserves_per_edge")
def suite(smoke: bool = False) -> dict:
    """Per-admission control-plane work, counted on the Fig. 3 protocol."""
    return control_plane_counts()


def test_control_plane_counts(benchmark):
    run_once(benchmark, suite)
