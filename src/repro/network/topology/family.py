"""The topology-family registry: named, schema-checked, seeded builders.

A :class:`TopologyFamily` is to networks what a
:class:`~repro.scenarios.spec.ScenarioSpec` is to experiments: a named
entry in a process-global registry carrying a parameter schema
(defaults, bounds, documentation), free-form tags, and a deterministic
builder.  ``build(params)`` with the same merged parameters always
yields byte-identical node and link sets, in any process — randomised
families draw every coin flip from a ``seed`` parameter, never from
global state — which is what lets scenario sweeps grid over topology
parameters and stay byte-identical across every sweep backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ...errors import ConfigurationError
from ...params import coerce_override
from ..graph import Network

#: Maps the merged parameter dict to a freshly built network.
FamilyBuilder = Callable[[Dict[str, Any]], Network]


@dataclass(frozen=True)
class ParamSpec:
    """One parameter of a topology family.

    Attributes:
        name: parameter key as accepted by the family builder.
        default: value used when the caller omits the parameter; its
            type (int vs float vs str) drives override coercion via
            :func:`repro.params.coerce_override` (a ``None`` default
            marks an optional numeric knob).
        doc: one-line description shown by ``repro topologies describe``.
        minimum: inclusive lower bound for numeric parameters.
        maximum: inclusive upper bound for numeric parameters.
        choices: closed set of legal values (e.g. dataset names).
    """

    name: str
    default: Any
    doc: str = ""
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    choices: Optional[Tuple[Any, ...]] = None

    def validate(self, value: Any, *, family: str) -> Any:
        """Coerce and range-check one override; returns the final value."""
        where = f"family {family!r}: parameter {self.name!r}"
        value = coerce_override(
            value, self.default, where=where, maximum=self.maximum
        )
        if value is None:
            return value
        if self.minimum is not None and value < self.minimum:
            raise ConfigurationError(
                f"{where} must be >= {self.minimum}, got {value!r}"
            )
        if self.choices is not None and value not in self.choices:
            raise ConfigurationError(
                f"{where} must be one of {list(self.choices)}, got {value!r}"
            )
        return value


@dataclass(frozen=True)
class TopologyFamily:
    """A named, parameterized, deterministic topology generator.

    Attributes:
        name: unique registry key (kebab-case).
        description: one-line summary shown by ``repro topologies list``.
        builder: maps the merged parameter dict to a fresh network.
        schema: every legal parameter with default/bounds/doc; overrides
            naming any other key are rejected.
        tags: free-form labels (``wan``, ``datacenter``, ``composite``,
            ``seeded`` is implied by a ``seed`` parameter).
    """

    name: str
    description: str
    builder: FamilyBuilder
    schema: Tuple[ParamSpec, ...] = ()
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name or " " in self.name:
            raise ConfigurationError(
                f"family name must be non-empty without '/' or spaces, "
                f"got {self.name!r}"
            )
        seen = set()
        for spec in self.schema:
            if spec.name in seen:
                raise ConfigurationError(
                    f"family {self.name!r}: duplicate parameter {spec.name!r}"
                )
            seen.add(spec.name)

    @property
    def seeded(self) -> bool:
        """True when the family draws randomness from a ``seed`` parameter."""
        return any(spec.name == "seed" for spec in self.schema)

    def param(self, name: str) -> ParamSpec:
        """The schema entry for one parameter name."""
        for spec in self.schema:
            if spec.name == name:
                return spec
        raise ConfigurationError(
            f"family {self.name!r} has no parameter {name!r}; "
            f"valid: {sorted(s.name for s in self.schema)}"
        )

    def defaults(self) -> Dict[str, Any]:
        """Every parameter at its default, in schema order."""
        return {spec.name: spec.default for spec in self.schema}

    def merge_params(
        self, overrides: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        """Defaults overlaid with validated ``overrides``.

        Raises:
            ConfigurationError: on unknown keys, type mismatches, or
                out-of-bounds values.
        """
        merged = self.defaults()
        for key, value in (overrides or {}).items():
            if key not in merged:
                raise ConfigurationError(
                    f"family {self.name!r} has no parameter {key!r}; "
                    f"valid: {sorted(merged)}"
                )
            merged[key] = self.param(key).validate(value, family=self.name)
        return merged

    def build(
        self,
        overrides: Optional[Mapping[str, Any]] = None,
        *,
        seed: Optional[int] = None,
    ) -> Network:
        """Build the deterministic instance for (overrides, seed).

        ``seed`` is sugar for overriding the family's ``seed`` parameter;
        passing it to an unseeded family is rejected rather than silently
        ignored.
        """
        merged = self.merge_params(overrides)
        if seed is not None:
            if not self.seeded:
                raise ConfigurationError(
                    f"family {self.name!r} is deterministic and takes no seed"
                )
            merged["seed"] = self.param("seed").validate(seed, family=self.name)
        return self.builder(merged)


_FAMILIES: Dict[str, TopologyFamily] = {}


def register_family(family: TopologyFamily, *, replace: bool = False) -> TopologyFamily:
    """Add ``family`` under its name.

    Raises:
        ConfigurationError: on a duplicate name unless ``replace=True``.
    """
    if not replace and family.name in _FAMILIES:
        raise ConfigurationError(
            f"topology family {family.name!r} is already registered; "
            "pass replace=True to overwrite"
        )
    _FAMILIES[family.name] = family
    return family


def unregister_family(name: str) -> None:
    """Remove a family; unknown names are ignored."""
    _FAMILIES.pop(name, None)


def get_family(name: str) -> TopologyFamily:
    """Look up a registered family.

    Raises:
        ConfigurationError: for unknown names (with the known list).
    """
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown topology family {name!r}; registered: "
            f"{sorted(_FAMILIES) or '(none)'}"
        ) from None


def list_families(tag: Optional[str] = None) -> List[TopologyFamily]:
    """Registered families in name order, optionally filtered by tag."""
    families = (family for _, family in sorted(_FAMILIES.items()))
    if tag is None:
        return list(families)
    return [family for family in families if tag in family.tags]


def build_topology(
    name: str,
    overrides: Optional[Mapping[str, Any]] = None,
    *,
    seed: Optional[int] = None,
) -> Network:
    """Build a registered family by name — the one-call convenience."""
    return get_family(name).build(overrides, seed=seed)
