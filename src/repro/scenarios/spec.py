"""Scenario specifications: named topology × workload × failure bundles.

A :class:`ScenarioSpec` is the unit the registry stores and the sweep
engine expands: a topology builder, a workload builder, an optional
failure model, and a dict of default parameters.  ``instantiate`` turns
a spec plus overrides plus a seed into a concrete, fully deterministic
:class:`ScenarioInstance` — same (spec, params, seed) always yields the
same network, failures, and task mix, in any process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..errors import ConfigurationError
from ..network.graph import Network
from ..params import coerce_override
from ..resilience.processes import FaultTimeline, build_timeline
from ..resilience.profile import FaultProfile
from ..sim.rng import RandomStreams
from ..tasks.workload import TaskWorkload
from .failures import LinkFailureModel

#: Builds the fabric from the merged parameter dict.
TopologyBuilder = Callable[[Dict[str, Any]], Network]
#: Builds the task mix on that fabric from params + named streams.
WorkloadBuilder = Callable[[Network, Dict[str, Any], RandomStreams], TaskWorkload]


@dataclass(frozen=True)
class FamilyTopology:
    """A registry-backed topology reference usable as a spec's builder.

    Instead of a bespoke closure per scenario, a spec names a registered
    :class:`~repro.network.topology.family.TopologyFamily` and this
    adapter forwards the scenario's merged parameters to it: every
    scenario parameter whose (optionally renamed) key appears in the
    family's schema is passed through, the rest — workload knobs, fault
    numbers — are ignored.  Because family parameters ride on the
    scenario's own parameter dict, ``scenarios sweep --set`` can grid
    over topology structure (Waxman ``alpha``, Clos oversubscription)
    exactly like any workload knob, and the family's schema validates
    bounds on every build.

    Attributes:
        family: a registered topology-family name.
        rename: ``(scenario_key, family_key)`` pairs mapping scenario
            parameter names onto schema names (e.g. ``topology_seed``
            -> ``seed``); stored as a tuple so the spec stays hashable
            and picklable for spawn-started sweep workers.
    """

    family: str
    rename: Tuple[Tuple[str, str], ...] = ()

    def __call__(self, params: Dict[str, Any]) -> Network:
        # Imported here to keep repro.network.topology free to import
        # nothing from the scenario layer.
        from ..network.topology import get_family

        fam = get_family(self.family)
        rename = dict(self.rename)
        schema_keys = {spec.name for spec in fam.schema}
        overrides = {}
        for key, value in params.items():
            target = rename.get(key, key)
            if target in schema_keys:
                overrides[target] = value
        return fam.build(overrides)

    def family_defaults(self) -> Dict[str, Any]:
        """The family's schema defaults under *scenario* parameter names.

        Convenience for catalogue authors: seeds a spec's ``defaults``
        with every topology knob so each one is sweepable, with the
        rename map applied in reverse.
        """
        from ..network.topology import get_family

        reverse = {dst: src for src, dst in self.rename}
        return {
            reverse.get(spec.name, spec.name): spec.default
            for spec in get_family(self.family).schema
        }


@dataclass(frozen=True)
class ScenarioInstance:
    """One concrete realisation of a scenario.

    Attributes:
        spec: the originating spec.
        params: the merged (defaults + overrides) parameters.
        seed: the seed the instance was derived from.
        network: the built (and possibly failure-degraded) fabric.
        workload: the generated task mix.
        streams: the instance's random streams (for background traffic).
        failed_links: links the failure model took down, if any.
        fault_timeline: the drawn fail/repair schedule when the spec
            carries a :class:`~repro.resilience.profile.FaultProfile`.
        metadata: instance bookkeeping (e.g. requested vs applied static
            failures, drawn fault-event count).
    """

    spec: "ScenarioSpec"
    params: Dict[str, Any]
    seed: int
    network: Network
    workload: TaskWorkload
    streams: RandomStreams
    failed_links: Tuple[Tuple[str, str], ...] = ()
    fault_timeline: Optional[FaultTimeline] = None
    metadata: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, parameterized scenario.

    Attributes:
        name: unique registry key.
        description: one-line summary shown by ``repro scenarios list``.
        topology: builder mapping params -> Network.
        workload: builder mapping (network, params, streams) -> workload.
        failures: optional failure model applied right after topology
            construction (before traffic and tasks).
        fault_profile: optional time-driven fault processes (MTBF/MTTR
            link and node failures) played while a campaign serves the
            workload; requires ``serve="campaign"``.  Profile fields
            named in the parameter dict (``link_mtbf_ms``, ...) are
            swept like any other parameter.
        defaults: every legal parameter with its default value; overrides
            naming any other key are rejected.
        serve: how the sweep engine plays the workload — "sequential"
            admits tasks one at a time (the Fig. 3 protocol, arrival
            times ignored), "campaign" plays the full arrival timeline
            on the simulation engine so bursts and contention matter.
        tags: free-form labels (topology family, workload family).
    """

    name: str
    description: str
    topology: TopologyBuilder
    workload: WorkloadBuilder
    failures: Optional[LinkFailureModel] = None
    fault_profile: Optional[FaultProfile] = None
    defaults: Mapping[str, Any] = field(default_factory=dict)
    serve: str = "sequential"
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name or " " in self.name:
            raise ConfigurationError(
                f"scenario name must be non-empty without '/' or spaces, "
                f"got {self.name!r}"
            )
        if self.serve not in ("sequential", "campaign"):
            raise ConfigurationError(
                f"serve must be 'sequential' or 'campaign', got {self.serve!r}"
            )
        if self.fault_profile is not None and self.serve != "campaign":
            raise ConfigurationError(
                f"scenario {self.name!r}: a fault_profile is time-driven "
                "and requires serve='campaign'"
            )
        # Registry-backed topologies advertise their family as a tag, so
        # `repro scenarios list --tag family:waxman` finds every scenario
        # on a given fabric without catalogue authors hand-tagging.
        family_tag = (
            f"family:{self.topology.family}"
            if isinstance(self.topology, FamilyTopology)
            else None
        )
        if family_tag is not None and family_tag not in self.tags:
            object.__setattr__(self, "tags", tuple(self.tags) + (family_tag,))

    def merge_params(self, overrides: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Defaults overlaid with ``overrides``; unknown keys rejected.

        Coercion follows the shared policy in :mod:`repro.params`: a
        numeric default accepts any numeric override, a None default
        accepts numbers or None, anything else must match the default's
        type.
        """
        merged = dict(self.defaults)
        for key, value in (overrides or {}).items():
            if key not in merged:
                raise ConfigurationError(
                    f"scenario {self.name!r} has no parameter {key!r}; "
                    f"valid: {sorted(merged)}"
                )
            merged[key] = coerce_override(
                value,
                merged[key],
                where=f"scenario {self.name!r}: parameter {key!r}",
            )
        return merged

    def instantiate(
        self,
        params: Optional[Mapping[str, Any]] = None,
        *,
        seed: int = 0,
    ) -> ScenarioInstance:
        """Build the deterministic instance for (params, seed)."""
        merged = self.merge_params(params)
        streams = RandomStreams(seed).fork(f"scenario:{self.name}")
        network = self.topology(merged)
        metadata: Dict[str, Any] = {}
        failed: Tuple[Tuple[str, str], ...] = ()
        if self.failures is not None:
            failed = self.failures.apply(network, streams.stream("failures"))
            metadata["failures_requested"] = self.failures.n_failures
            metadata["failures_applied"] = len(failed)
        workload = self.workload(network, merged, streams)
        timeline: Optional[FaultTimeline] = None
        if self.fault_profile is not None:
            profile = self.fault_profile.resolved(merged)
            timeline = build_timeline(
                profile, network, streams.stream("fault-timeline")
            )
            metadata["fault_events_drawn"] = timeline.fail_count
        return ScenarioInstance(
            spec=self,
            params=merged,
            seed=seed,
            network=network,
            workload=workload,
            streams=streams,
            failed_links=failed,
            fault_timeline=timeline,
            metadata=metadata,
        )
