"""Registry-backed scenario topologies and the new-family scenarios.

The byte-identity matrix is the PR's acceptance check: every scenario
built on a new topology family must produce identical sweep rows on the
serial, process-pool, and socket backends, with the routing cache on
and off.
"""

import json
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    FamilyTopology,
    ProcessPoolBackend,
    SerialBackend,
    SocketQueueBackend,
    SweepConfig,
    get_scenario,
    list_scenarios,
    run_sweep,
)
from tests.oracle import object_oracle

#: One small sweep per new topology family (the acceptance matrix).
NEW_FAMILY_CONFIGS = {
    "waxman-wan": SweepConfig(
        scenarios=("waxman-wan",),
        grid={"n_tasks": [3], "n_locals": [2], "n_routers": [10]},
        seeds=(0,),
    ),
    "clos-oversub": SweepConfig(
        scenarios=("clos-oversub",),
        grid={"n_tasks": [3], "n_locals": [2]},
        seeds=(0,),
    ),
    "isp-telstra": SweepConfig(
        scenarios=("isp-telstra",),
        grid={"n_tasks": [3], "n_locals": [2]},
        seeds=(0,),
    ),
    "isp-ebone-pareto": SweepConfig(
        scenarios=("isp-ebone-pareto",),
        grid={"n_tasks": [3], "n_locals": [2]},
        seeds=(0,),
    ),
    "multi-metro-wan": SweepConfig(
        scenarios=("multi-metro-wan",),
        grid={
            "n_tasks": [3],
            "n_locals": [2],
            "sites_per_region": [3],
            "backbone_routers": [4],
        },
        seeds=(0,),
    ),
    "multi-metro-wan-flaky": SweepConfig(
        scenarios=("multi-metro-wan-flaky",),
        grid={
            "n_tasks": [3],
            "n_locals": [2],
            "sites_per_region": [3],
            "backbone_routers": [4],
            "horizon_ms": [30_000.0],
        },
        seeds=(0,),
    ),
}


class TestFamilyTopology:
    def test_builds_same_network_as_registry(self):
        from repro.network.topology import build_topology

        topo = FamilyTopology("waxman", rename=(("topology_seed", "seed"),))
        net = topo({"n_routers": 8, "topology_seed": 5, "n_tasks": 99})
        direct = build_topology("waxman", {"n_routers": 8}, seed=5)
        assert [l.u for l in net.links()] == [l.u for l in direct.links()]

    def test_non_schema_params_ignored(self):
        topo = FamilyTopology("nsfnet")
        net = topo({"n_tasks": 10, "demand_gbps": 5.0, "servers_per_site": 1})
        assert net.node_count == 28

    def test_rename_reverses_in_family_defaults(self):
        topo = FamilyTopology(
            "waxman",
            rename=(("topology_seed", "seed"), ("waxman_alpha", "alpha")),
        )
        defaults = topo.family_defaults()
        assert "topology_seed" in defaults
        assert "waxman_alpha" in defaults
        assert "seed" not in defaults
        assert "alpha" not in defaults

    def test_pickle_round_trip(self):
        topo = FamilyTopology("clos")
        clone = pickle.loads(pickle.dumps(topo))
        assert clone == topo
        assert clone({"n_pods": 2}).node_count == topo({"n_pods": 2}).node_count

    def test_unknown_family_surfaces_on_build(self):
        topo = FamilyTopology("not-a-family")
        with pytest.raises(ConfigurationError, match="unknown topology family"):
            topo({})

    def test_bounds_enforced_through_scenario_params(self):
        spec = get_scenario("clos-oversub")
        with pytest.raises(ConfigurationError, match=">= 1"):
            spec.instantiate({"oversubscription": 0.5}, seed=0)


class TestFamilyTags:
    def test_every_builtin_scenario_is_family_backed(self):
        for spec in list_scenarios():
            assert isinstance(spec.topology, FamilyTopology), spec.name
            assert f"family:{spec.topology.family}" in spec.tags

    def test_family_tag_filter_finds_scenarios(self):
        names = {spec.name for spec in list_scenarios(tag="family:waxman")}
        assert names == {"waxman-wan"}
        composite = {
            spec.name for spec in list_scenarios(tag="family:multi-metro-wan")
        }
        assert composite == {"multi-metro-wan", "multi-metro-wan-flaky"}

    def test_multi_tag_filter_is_conjunctive(self):
        specs = list_scenarios(tags=("composite", "resilience"))
        assert {spec.name for spec in specs} == {"multi-metro-wan-flaky"}

    def test_catalogue_covers_all_new_families(self):
        covered = {spec.topology.family for spec in list_scenarios()}
        assert {
            "waxman",
            "clos",
            "isp-as1221-telstra",
            "isp-as1755-ebone",
            "multi-metro-wan",
        } <= covered


class TestNewScenarios:
    def test_all_new_scenarios_instantiate(self):
        for name in NEW_FAMILY_CONFIGS:
            instance = get_scenario(name).instantiate(seed=0)
            assert instance.network.is_connected()
            assert len(instance.workload.tasks) > 0

    def test_composite_instance_has_region_metadata(self):
        from repro.network.topology import regions_of

        instance = get_scenario("multi-metro-wan").instantiate(seed=0)
        regions = {
            label for label in regions_of(instance.network) if label
        }
        assert "wan" in regions
        assert {"m0", "m1", "m2"} <= regions

    def test_topology_param_sweep_changes_rows(self):
        """Gridding a fabric knob must actually change the outcome."""
        config = SweepConfig(
            scenarios=("clos-oversub",),
            grid={"n_tasks": [4], "oversubscription": [1.0, 8.0]},
            seeds=(0,),
        )
        result = run_sweep(config)
        by_ratio = {}
        for row in result.rows:
            by_ratio.setdefault(row["oversubscription"], []).append(row)
        assert set(by_ratio) == {1.0, 8.0}
        assert json.dumps(by_ratio[1.0], default=str) != json.dumps(
            by_ratio[8.0], default=str
        )

    def test_waxman_seed_param_is_sweepable(self):
        config = SweepConfig(
            scenarios=("waxman-wan",),
            grid={"n_tasks": [3], "n_routers": [10], "topology_seed": [1, 2]},
            seeds=(0,),
        )
        result = run_sweep(config)
        seeds = {row["topology_seed"] for row in result.rows}
        assert seeds == {1, 2}


@pytest.mark.parametrize("name", sorted(NEW_FAMILY_CONFIGS))
class TestNewFamilyBackendByteIdentity:
    """Acceptance: rows identical across backends and to the oracle.

    The oracle is a serial run with every routing query answered by the
    uncached object kernel (``tests/oracle.py``) instead of the cached
    CSR path.
    """

    def _run(self, config, backend):
        return run_sweep(config, backend=backend).to_json()

    def test_backends_and_cache_agree(self, name):
        config = NEW_FAMILY_CONFIGS[name]
        outputs = [
            self._run(config, SerialBackend()),
            self._run(config, ProcessPoolBackend(2)),
            self._run(
                config, SocketQueueBackend(local_workers=2, timeout=120.0)
            ),
        ]
        with object_oracle():
            outputs.append(self._run(config, SerialBackend()))
        assert all(output == outputs[0] for output in outputs[1:])
