"""Tests for the scenario registry: registration, validation, determinism."""

import pytest

from repro.errors import ConfigurationError
from repro.network.topology import build_topology, fat_tree, scale_free, toy_triangle
from repro.scenarios import (
    LinkFailureModel,
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    register,
    unregister,
)
from repro.scenarios.spec import SIZE_MAXIMA
from repro.scenarios.workloads import bursty, pareto, uniform
from repro.sim.rng import RandomStreams


def _toy_topology(params):
    return toy_triangle()


def _spec(name="unit-spec", **kwargs):
    defaults = {
        "n_tasks": 2,
        "n_locals": 2,
        "demand_gbps": 5.0,
        "background_flows": 0,
    }
    defaults.update(kwargs.pop("defaults", {}))
    return ScenarioSpec(
        name=name,
        description="unit-test scenario",
        topology=_toy_topology,
        workload=uniform,
        defaults=defaults,
        **kwargs,
    )


@pytest.fixture
def scratch_spec():
    spec = register(_spec())
    yield spec
    unregister(spec.name)


class TestRegistry:
    def test_register_and_get(self, scratch_spec):
        assert get_scenario("unit-spec") is scratch_spec

    def test_duplicate_name_rejected(self, scratch_spec):
        with pytest.raises(ConfigurationError, match="already registered"):
            register(_spec())

    def test_replace_overwrites(self, scratch_spec):
        replacement = _spec(defaults={"n_tasks": 3})
        register(replacement, replace=True)
        assert get_scenario("unit-spec").defaults["n_tasks"] == 3

    def test_unknown_name_lists_known(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            get_scenario("does-not-exist")

    def test_list_is_name_sorted(self):
        names = [spec.name for spec in list_scenarios()]
        assert names == sorted(names)

    def test_list_filters_by_tag(self):
        wan = list_scenarios(tag="wan")
        assert wan and all("wan" in spec.tags for spec in wan)

    def test_builtin_catalogue_size(self):
        assert len(list_scenarios()) >= 10

    def test_bad_name_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                name="has space",
                description="",
                topology=_toy_topology,
                workload=uniform,
            )


class TestParameterValidation:
    def test_unknown_parameter_rejected(self, scratch_spec):
        with pytest.raises(ConfigurationError, match="no parameter"):
            scratch_spec.merge_params({"nope": 1})

    def test_type_mismatch_rejected(self, scratch_spec):
        with pytest.raises(ConfigurationError, match="expects a number"):
            scratch_spec.merge_params({"n_tasks": "three"})

    def test_numeric_widening_allowed(self, scratch_spec):
        merged = scratch_spec.merge_params({"demand_gbps": 8})
        assert merged["demand_gbps"] == 8
        assert merged["n_tasks"] == 2  # untouched default

    def test_defaults_not_mutated(self, scratch_spec):
        scratch_spec.merge_params({"n_tasks": 9})
        assert scratch_spec.defaults["n_tasks"] == 2

    def test_fractional_float_for_int_param_rejected(self, scratch_spec):
        with pytest.raises(ConfigurationError, match="expects an integer"):
            scratch_spec.merge_params({"n_tasks": 2.5})

    def test_integral_float_for_int_param_coerced(self, scratch_spec):
        merged = scratch_spec.merge_params({"n_tasks": 3.0})
        assert merged["n_tasks"] == 3
        assert isinstance(merged["n_tasks"], int)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_number_rejected(self, scratch_spec, value):
        with pytest.raises(ConfigurationError, match="must be finite"):
            scratch_spec.merge_params({"demand_gbps": value})

    def test_non_finite_topology_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="must be finite"):
            build_topology("waxman", {"beta": float("inf")})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_tasks", 100_001),
            ("n_locals", 3_000_000_000),
            ("rounds", 100_001),
            ("background_flows", 3_000_000_000),
            ("trace_epochs", 3_000_000_000),
            ("horizon_ms", 1.1e8),
        ],
    )
    def test_sizes_bounded_above(self, key, value):
        spec = _spec(
            defaults={"rounds": 3, "trace_epochs": 24, "horizon_ms": 16_000.0}
        )
        with pytest.raises(ConfigurationError, match="must be <="):
            spec.merge_params({key: value})
        limit = SIZE_MAXIMA[key]
        assert spec.merge_params({key: limit})[key] == limit

    def test_size_maxima_admit_every_builtin_default(self):
        specs = list_scenarios()
        sized = [spec for spec in specs if set(SIZE_MAXIMA) & set(spec.defaults)]
        assert {key for spec in sized for key in spec.defaults} >= set(SIZE_MAXIMA)
        for spec in sized:
            assert spec.merge_params(dict(spec.defaults)) == dict(spec.defaults)

    def test_size_maxima_admit_the_long_replay(self):
        spec = get_scenario("trace-srlg-campaign")
        merged = spec.merge_params({"trace_epochs": 2000, "horizon_ms": 1.6e6})
        assert (merged["trace_epochs"], merged["horizon_ms"]) == (2000, 1.6e6)

    def test_size_maxima_admit_the_hub_workload(self):
        sizes = {"n_tasks": 100, "n_locals": 4, "rounds": 3, "background_flows": 50}
        merged = get_scenario("scale-free-hubs").merge_params(sizes)
        assert {key: merged[key] for key in sizes} == sizes

    def test_serve_mode_validated(self):
        with pytest.raises(ConfigurationError, match="serve"):
            _spec(name="bad-serve", serve="sometimes")


class TestInstantiationDeterminism:
    @pytest.mark.parametrize(
        "name", ["metro-mesh-uniform", "scale-free-pareto", "fat-tree-bursty"]
    )
    def test_same_seed_same_instance(self, name):
        spec = get_scenario(name)
        a = spec.instantiate({"n_tasks": 4}, seed=11)
        b = spec.instantiate({"n_tasks": 4}, seed=11)
        assert a.failed_links == b.failed_links
        assert [
            (t.task_id, t.global_node, t.local_nodes, t.demand_gbps, t.arrival_ms)
            for t in a.workload
        ] == [
            (t.task_id, t.global_node, t.local_nodes, t.demand_gbps, t.arrival_ms)
            for t in b.workload
        ]

    def test_different_seed_different_placement(self):
        spec = get_scenario("metro-mesh-uniform")
        a = spec.instantiate({"n_tasks": 6}, seed=0)
        b = spec.instantiate({"n_tasks": 6}, seed=1)
        assert [t.local_nodes for t in a.workload] != [
            t.local_nodes for t in b.workload
        ]

    def test_every_builtin_instantiates(self):
        for spec in list_scenarios():
            instance = spec.instantiate(seed=0)
            assert len(instance.workload) >= 1
            assert instance.network.servers()


class TestWorkloadFamilies:
    def test_pareto_demands_heavy_tailed_and_capped(self):
        net = scale_free(20, seed=2, servers_per_site=1)
        params = {
            "n_tasks": 40,
            "n_locals": 3,
            "demand_gbps": 10.0,
            "pareto_alpha": 1.6,
            "demand_cap_gbps": 50.0,
        }
        workload = pareto(net, params, RandomStreams(5))
        demands = [t.demand_gbps for t in workload]
        assert len(set(demands)) > 1
        assert max(demands) <= 50.0
        assert min(demands) > 0

    def test_pareto_needs_finite_mean(self):
        net = toy_triangle()
        with pytest.raises(ConfigurationError, match="pareto_alpha"):
            pareto(
                net,
                {"n_tasks": 1, "n_locals": 3, "demand_gbps": 1.0, "pareto_alpha": 0.9},
                RandomStreams(0),
            )

    def test_bursty_arrivals_cluster(self):
        net = fat_tree(4)
        params = {
            "n_tasks": 12,
            "n_locals": 3,
            "demand_gbps": 5.0,
            "burst_size": 4,
            "mean_burst_gap_ms": 10_000.0,
            "intra_burst_ms": 1.0,
        }
        workload = bursty(net, params, RandomStreams(3))
        arrivals = [t.arrival_ms for t in workload]
        assert arrivals == sorted(arrivals)
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        # Burst boundaries (every 4th gap) dwarf the intra-burst spacing.
        intra = [g for i, g in enumerate(gaps) if (i + 1) % 4 != 0]
        inter = [g for i, g in enumerate(gaps) if (i + 1) % 4 == 0]
        assert max(intra) < min(inter)


class TestFailureModel:
    def test_fails_requested_count(self):
        net = scale_free(16, seed=1)
        model = LinkFailureModel(n_failures=2)
        failed = model.apply(net, RandomStreams(4).stream("failures"))
        assert len(failed) == 2
        assert len(net.failed_links()) == 2

    def test_never_fails_server_links(self):
        net = toy_triangle()
        model = LinkFailureModel(n_failures=50)  # more than candidates
        with pytest.warns(RuntimeWarning, match="inter-switch links"):
            failed = model.apply(net, RandomStreams(0).stream("failures"))
        for u, v in failed:
            assert not u.startswith("S-") and not v.startswith("S-")

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ConfigurationError):
            LinkFailureModel(n_failures=0)
