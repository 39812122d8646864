"""Out-of-band probes: boundary timers and per-layer self-time wrappers.

Both probes work from outside the program.  For the duration of a
``with Patches()`` block they replace public attributes of the ``repro``
package (module functions and class methods) with wrappers that time the
call, pass the arguments through unchanged and return the original
result.  On exit the originals are put back.  Nothing under ``src/`` is
edited, and the sink rows stay byte-identical with or without the
wrappers (``runner.py`` checks this on every traced run).

* :class:`BoundaryProbe` is the only instrumentation of an untraced
  (end-to-end) run.  It wraps ``Orchestrator.admit``, the six fault
  handlers, ``ScenarioSpec.instantiate`` and the sweep engine's
  ``orchestrator_for`` / ``campaign_runner_for``, and takes the
  host-speed reference samples (``speed.py``) between those calls.
* :class:`LayerTracer` is installed on top of it in a traced run.  It
  wraps every layer in :data:`LAYERS` and keeps, per layer, the call
  count and the *self* time: inclusive time minus the inclusive time of
  wrapped calls made inside it.

Several layers are bound under more than one name, and each binding is
wrapped.  ``tree_from_metric_closure`` is imported into both
``repro.network.routing`` and ``repro.network.csr.kernel``.
``orchestrator_for`` and ``campaign_runner_for`` are imported into the
sweep engine.  The CSR entry points are looked up on the
``repro.network.csr`` package by ``routing``, but ``csr/kernel.py``
calls its own module-level names.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.network.csr as csr_pkg
import repro.network.csr.kernel as csr_kernel
import repro.network.routing as routing
import repro.scenarios.sweep.backends as sweep_backends
import repro.scenarios.sweep.engine as sweep_engine
from repro.compute.manager import ComputingManager
from repro.core.evaluation import ScheduleEvaluator
from repro.core.fixed import FixedScheduler
from repro.core.flexible import FlexibleScheduler
from repro.errors import PlacementError, SchedulingError
from repro.network.csr.snapshot import CsrSnapshot
from repro.network.link import Link
from repro.orchestrator.database import Database, TaskStatus
from repro.orchestrator.orchestrator import Orchestrator
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.sweep.sinks import JsonlSink
from repro.sim.engine import Simulator
from repro.traffic.generator import TrafficGenerator

from speed import SpeedGauge

#: The scheduler whose admission and fault latencies are reported.
FLEXIBLE = FlexibleScheduler.name

#: Orchestrator methods that handle a fault and re-route affected tasks.
FAULT_HANDLERS = (
    "handle_link_failure",
    "handle_link_drain",
    "handle_link_restore",
    "handle_node_failure",
    "handle_node_restore",
    "handle_link_capacity",
)

perf_counter = time.perf_counter


class Patches:
    """Attribute replacements, undone in reverse order on exit."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(current value)``."""
        raw = owner.__dict__[attr]
        setattr(owner, attr, make(getattr(owner, attr)))
        self._saved.append((owner, attr, raw))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# The end-to-end boundary probe
# ---------------------------------------------------------------------------

@dataclass
class RoundStats:
    """What the boundary probe saw during one ``run_sweep`` call.

    Times are kept as ``(start, end)`` perf-counter spans, so that they
    can be scaled by the host speed around them once the round is over.
    """

    attempts: int = 0
    blocked: int = 0
    admit_spans: List[Tuple[float, float]] = field(default_factory=list)
    fault_spans: List[Tuple[float, float]] = field(default_factory=list)
    setup_spans: List[Tuple[float, float]] = field(default_factory=list)
    instances: List[Any] = field(default_factory=list)


class BoundaryProbe:
    """Times admissions, fault handling and set-up at their boundaries.

    While ``sampling`` is set, it lets ``gauge`` take a reference sample
    after each outermost boundary call when one is due, outside every
    timed span.
    """

    def __init__(self, gauge: SpeedGauge) -> None:
        self.gauge = gauge
        self.sampling = True
        self.current = RoundStats()
        self._depth = 0

    def start_round(self) -> RoundStats:
        self.current = RoundStats()
        return self.current

    def install(self, patches: Patches) -> None:
        patches.wrap(Orchestrator, "admit", self._admit)
        for handler in FAULT_HANDLERS:
            patches.wrap(Orchestrator, handler, self._fault)
        patches.wrap(ScenarioSpec, "instantiate", self._instantiate)
        patches.wrap(sweep_engine, "orchestrator_for", self._setup)
        patches.wrap(sweep_engine, "campaign_runner_for", self._setup)

    def _timed(self, call: Callable[[], Any]) -> Tuple[Any, Tuple[float, float]]:
        self._depth += 1
        try:
            t0 = perf_counter()
            result = call()
            span = (t0, perf_counter())
        finally:
            self._depth -= 1
        if self.sampling and not self._depth:
            self.gauge.tick()
        return result, span

    def _admit(self, original: Callable) -> Callable:
        def admit(orchestrator: Orchestrator, task: Any) -> Any:
            record, span = self._timed(lambda: original(orchestrator, task))
            stats = self.current
            stats.attempts += 1
            if record.status is not TaskStatus.RUNNING:
                stats.blocked += 1
            if orchestrator.scheduler.name == FLEXIBLE:
                stats.admit_spans.append(span)
            return record

        return admit

    def _fault(self, original: Callable) -> Callable:
        def handler(orchestrator: Orchestrator, *args: Any) -> Any:
            outcome, span = self._timed(lambda: original(orchestrator, *args))
            if orchestrator.scheduler.name == FLEXIBLE:
                self.current.fault_spans.append(span)
            return outcome

        return handler

    def _instantiate(self, original: Callable) -> Callable:
        def instantiate(spec: ScenarioSpec, *args: Any, **kwargs: Any) -> Any:
            instance, span = self._timed(lambda: original(spec, *args, **kwargs))
            self.current.setup_spans.append(span)
            self.current.instances.append(instance)
            return instance

        return instantiate

    def _setup(self, original: Callable) -> Callable:
        def wire(*args: Any, **kwargs: Any) -> Any:
            result, span = self._timed(lambda: original(*args, **kwargs))
            self.current.setup_spans.append(span)
            return result

        return wire


# ---------------------------------------------------------------------------
# The traced run's layer wrappers
# ---------------------------------------------------------------------------

def _inplace_refresh(touched: int) -> Optional[str]:
    return "network.csr.inplace_refreshes" if touched else None


def _tree_kept(unaffected: bool) -> Optional[str]:
    return "network.csr.tree_unaffected.passes" if unaffected else None


@dataclass(frozen=True)
class Layer:
    """One measured layer and every binding through which it is called.

    ``errors`` are counted (then re-raised) under ``error_event``;
    ``on_result`` maps a return value to an event name to count, or None.
    """

    name: str
    targets: Tuple[Tuple[Any, str], ...]
    errors: Tuple[type, ...] = ()
    error_event: str = ""
    on_result: Optional[Callable[[Any], Optional[str]]] = None


LAYERS: Tuple[Layer, ...] = (
    Layer(
        "network.csr.sssp_tree",
        ((csr_pkg, "sssp_tree"), (csr_kernel, "sssp_tree")),
    ),
    Layer("network.csr.terminal_tree_csr", ((csr_pkg, "terminal_tree_csr"),)),
    Layer(
        "network.csr.weight_array",
        ((csr_pkg, "weight_array"), (csr_kernel, "weight_array")),
    ),
    Layer(
        "network.csr.refresh",
        ((CsrSnapshot, "refresh"),),
        on_result=_inplace_refresh,
    ),
    Layer("network.csr.snapshot_build", ((CsrSnapshot, "__init__"),)),
    Layer(
        "network.csr.tree_unaffected",
        ((csr_pkg, "tree_unaffected"),),
        on_result=_tree_kept,
    ),
    Layer("network.routing.terminal_tree", ((routing.PathCache, "terminal_tree"),)),
    Layer("network.routing.sssp", ((routing.PathCache, "sssp"),)),
    Layer("network.routing.shortest_path", ((routing.PathCache, "shortest_path"),)),
    Layer(
        "network.routing.k_shortest_paths",
        ((routing.PathCache, "k_shortest_paths"),),
    ),
    Layer("network.routing.prune", ((routing.PathCache, "prune"),)),
    Layer(
        "network.paths.closure_mst",
        (
            (routing, "tree_from_metric_closure"),
            (csr_kernel, "tree_from_metric_closure"),
        ),
    ),
    Layer("network.link.reserve", ((Link, "reserve"),)),
    Layer("network.link.release", ((Link, "release"), (Link, "release_owner"))),
    Layer(
        "compute.deploy",
        ((ComputingManager, "deploy"),),
        errors=(PlacementError,),
        error_event="compute.placement_errors",
    ),
    Layer("compute.destroy", ((ComputingManager, "destroy"),)),
    Layer(
        "core.flexible.schedule",
        ((FlexibleScheduler, "schedule"),),
        errors=(SchedulingError,),
        error_event="core.flexible.scheduling_errors",
    ),
    Layer(
        "core.fixed.schedule",
        ((FixedScheduler, "schedule"),),
        errors=(SchedulingError,),
        error_event="core.fixed.scheduling_errors",
    ),
    Layer("core.evaluation.report", ((ScheduleEvaluator, "report"),)),
    Layer("orchestrator.admit", ((Orchestrator, "admit"),)),
    Layer("orchestrator.complete", ((Orchestrator, "complete"),)),
    Layer(
        "orchestrator.fault",
        tuple((Orchestrator, handler) for handler in FAULT_HANDLERS),
    ),
    Layer("orchestrator.running_scan", ((Database, "running"),)),
    Layer("scenarios.instantiate", ((ScenarioSpec, "instantiate"),)),
    Layer("traffic.inject_static", ((TrafficGenerator, "inject_static"),)),
    Layer(
        "orchestrator.wire",
        (
            (sweep_engine, "orchestrator_for"),
            (sweep_engine, "campaign_runner_for"),
        ),
    ),
    Layer("sim.run", ((Simulator, "run"),)),
    Layer("sweep.execute_run", ((sweep_backends, "execute_run"),)),
    Layer("sweep.sink_write", ((JsonlSink, "write_run"),)),
)

#: Counted events besides calls, all reported (zero when never seen).
EVENTS: Tuple[str, ...] = (
    "network.csr.inplace_refreshes",
    "network.csr.tree_unaffected.passes",
    "compute.placement_errors",
    "core.flexible.scheduling_errors",
    "core.fixed.scheduling_errors",
)


class LayerTracer:
    """Per-layer call counts and self time, kept in memory.

    ``_stack`` holds, per open wrapped call, the inclusive time of the
    wrapped calls made inside it so far; its bottom element collects the
    inclusive time of the outermost wrapped calls.  The sum of all self
    times must equal that bottom element, which :meth:`attributed_s`
    returns for the reconciliation.
    """

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.events: Counter = Counter()
        self._stack: List[float] = [0.0]

    def attributed_s(self) -> float:
        return self._stack[0]

    def install(self, patches: Patches) -> None:
        for layer in LAYERS:
            for owner, attr in layer.targets:
                patches.wrap(
                    owner, attr, lambda original, layer=layer: self._timed(layer, original)
                )

    def _timed(self, layer: Layer, original: Callable) -> Callable:
        name = layer.name
        errors = layer.errors
        on_result = layer.on_result
        calls = self.calls
        self_s = self.self_s
        events = self.events
        stack = self._stack

        def timed(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            except errors:
                events[layer.error_event] += 1
                raise
            finally:
                elapsed = perf_counter() - t0
                children = stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - children
            if on_result is not None:
                event = on_result(result)
                if event is not None:
                    events[event] += 1
            return result

        return timed
