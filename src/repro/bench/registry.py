"""Suite registration and discovery for the ``repro bench`` harness.

A benchmark module registers itself by decorating one plain function::

    from repro.bench import bench_suite

    @bench_suite("scheduler", headline="scale_free_200.speedup")
    def suite(smoke: bool = False) -> dict:
        ...
        return {"scale_free_200": {...}, "elapsed_s": 1.23}

The function takes one keyword — ``smoke`` — and returns a JSON-safe
metrics mapping.  It must also *assert* the benchmark's qualitative
shape (the same assertions the module's pytest tests check), so a suite
run is a correctness check, not just a stopwatch.  The pytest tests
keep working untouched: they call the same function under the
``benchmark`` fixture, so ``pytest benchmarks`` and ``repro bench run``
exercise identical code.

Discovery imports every ``benchmarks/test_bench_*.py`` module found
under the benchmarks directory (repo checkout layout: ``benchmarks/``
beside ``src/``), which fills the registry as a side effect of each
module's decorator running at import time.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError

#: A suite body: ``fn(smoke=...) -> metrics dict``.
SuiteFn = Callable[..., Dict[str, Any]]

#: name -> registered suite, in registration order.
_SUITES: Dict[str, "BenchSuite"] = {}


@dataclass(frozen=True)
class BenchSuite:
    """One registered benchmark suite.

    Attributes:
        name: short CLI name (``repro bench run --suite NAME``).
        fn: the body; called as ``fn(smoke=smoke)``.
        description: one line for ``repro bench list`` (defaults to the
            first line of the body's docstring).
        headline: dotted path into the returned metrics naming the one
            number the trend report tracks for this suite.
    """

    name: str
    fn: SuiteFn = field(repr=False)
    description: str = ""
    headline: Optional[str] = None

    def run(self, *, smoke: bool = False) -> Dict[str, Any]:
        return self.fn(smoke=smoke)


def bench_suite(
    name: str,
    *,
    headline: Optional[str] = None,
    description: Optional[str] = None,
) -> Callable[[SuiteFn], SuiteFn]:
    """Register ``fn`` as benchmark suite ``name``; returns ``fn`` unchanged."""

    def decorate(fn: SuiteFn) -> SuiteFn:
        doc = description
        if doc is None:
            doc = (fn.__doc__ or "").strip().splitlines()[0:1]
            doc = doc[0] if doc else ""
        _SUITES[name] = BenchSuite(
            name=name, fn=fn, description=doc, headline=headline
        )
        return fn

    return decorate


def clear_registry() -> None:
    """Forget every registered suite (test isolation helper)."""
    _SUITES.clear()


def default_benchmarks_dir() -> Optional[Path]:
    """The repo's ``benchmarks/`` directory, if this is a checkout.

    Resolution order: the directory next to this package's repo root
    (``src/repro/bench`` -> repo root), then ``$PWD/benchmarks``.
    """
    candidates = [
        Path(__file__).resolve().parents[3] / "benchmarks",
        Path.cwd() / "benchmarks",
    ]
    for candidate in candidates:
        if candidate.is_dir() and list(candidate.glob("test_bench_*.py")):
            return candidate
    return None


def discover_suites(bench_dir: Optional[str] = None) -> List[BenchSuite]:
    """Import every ``test_bench_*.py`` module and return the registry.

    Importing a benchmark module runs its ``@bench_suite`` decorators,
    which is what fills the registry; modules that register nothing are
    reported so a forgotten decorator is loud, not silent.
    """
    directory = Path(bench_dir) if bench_dir else default_benchmarks_dir()
    if directory is None or not directory.is_dir():
        raise ConfigurationError(
            "cannot find a benchmarks/ directory; run from the repo root "
            "or pass --bench-dir"
        )
    directory = directory.resolve()
    parent = str(directory.parent)
    if parent not in sys.path:
        sys.path.insert(0, parent)
    package = directory.name
    unregistered: List[str] = []
    for module_path in sorted(directory.glob("test_bench_*.py")):
        module = importlib.import_module(f"{package}.{module_path.stem}")
        if not any(
            suite.fn.__module__ == module.__name__ for suite in _SUITES.values()
        ):
            unregistered.append(module_path.name)
    if unregistered:
        raise ConfigurationError(
            "benchmark modules without a @bench_suite registration: "
            + ", ".join(unregistered)
        )
    return list_suites()


def list_suites() -> List[BenchSuite]:
    """Registered suites, in registration (module import) order."""
    return list(_SUITES.values())


def get_suite(name: str) -> BenchSuite:
    try:
        return _SUITES[name]
    except KeyError:
        known = ", ".join(sorted(_SUITES)) or "(none discovered)"
        raise ConfigurationError(
            f"unknown bench suite {name!r}; known: {known}"
        ) from None


def metric_at(metrics: Dict[str, Any], dotted: str) -> Any:
    """Resolve a dotted path (``scale_free_200.speedup``) in a metrics dict."""
    node: Any = metrics
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def suites_matching(names: Tuple[str, ...]) -> List[BenchSuite]:
    """The named suites (every name validated), or all when empty."""
    if not names:
        return list_suites()
    return [get_suite(name) for name in names]
