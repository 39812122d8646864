"""The fault injector: plays a timeline against a live orchestrator.

``attach`` schedules every timeline transition on the simulation engine.
When a transition fires, the injector drives the data plane *through the
orchestrator's failure handlers* — not by flipping network flags — so
affected running tasks are released, re-scheduled onto the degraded
fabric, or blocked, exactly as the controller would react on the
testbed.  Every transition and task outcome is reported to the
:class:`~repro.resilience.accounting.AvailabilityAccountant`.

Routing through the handlers also keeps the epoch-keyed
:class:`~repro.network.routing.PathCache` honest: each handler moves the
network's epoch (via ``fail_link``/``restore_link``/``fail_node``/
``restore_node``), so the next lookup of every entry validates it
against the post-fault weights and the re-schedule storm right after a
fault never consumes a shortest-path tree computed on the pre-fault
fabric.  A node failure also prunes the entries anchored at the node.

Beyond independent link/node processes the injector plays three
correlated-failure shapes:

* **SRLG cuts** (``component="srlg"``) — one conduit cut downs every
  member span of a :class:`~repro.resilience.srlg.SharedRiskGroup` at
  once; the matching repair restores exactly the spans this cut downed.
* **Partial degradation** (``component="degrade"``) — a span drops to a
  fraction of its nominal rate instead of to zero, evicting only the
  tasks that no longer fit.
* **Forecasts** (``kind="forecast"``) — advance warnings of upcoming
  link/SRLG failures, dispatched to
  :meth:`~repro.orchestrator.orchestrator.Orchestrator.handle_link_drain`
  so the controller moves traffic off the doomed spans *before* the
  fault lands.  Drained spans are administratively down; when the real
  failure arrives the injector recognises them and charges downtime
  from the true failure instant.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from .. import obs
from ..errors import SimulationError
from ..orchestrator.orchestrator import Orchestrator
from ..sim.engine import Simulator
from .accounting import AvailabilityAccountant
from .processes import FAIL, FORECAST, FaultEvent, FaultTimeline
from .srlg import SharedRiskGroup


class FaultInjector:
    """Schedules a :class:`FaultTimeline` onto a simulator.

    Args:
        timeline: the pre-drawn fault schedule.
        accountant: metrics collector; a fresh one covering the
            timeline's population (with the timeline's extra processes
            tracked) is created when omitted.
    """

    def __init__(
        self,
        timeline: FaultTimeline,
        accountant: Optional[AvailabilityAccountant] = None,
    ) -> None:
        self.timeline = timeline
        self.accountant = accountant or AvailabilityAccountant(
            link_population=timeline.link_candidates,
            node_population=timeline.node_candidates,
            horizon_ms=timeline.horizon_ms,
            track_srlg=bool(timeline.srlg_groups),
            track_degrade=timeline.degrade_candidates > 0,
            track_forecast=timeline.forecast_lead_ms is not None,
        )
        self._groups: Dict[str, SharedRiskGroup] = {
            group.name: group for group in timeline.srlg_groups
        }
        self._reset_play_state()

    def _reset_play_state(self) -> None:
        #: Links this injector administratively downed via a drain; the
        #: next real FAIL for such a link is applied to the books even
        #: though the span is already out of service.
        self._drained: Set[Tuple[str, str]] = set()
        #: SRLG name -> member spans the *cut* actually downed (spans
        #: already down for another reason are skipped and must not be
        #: restored by this group's repair).
        self._cut_members: Dict[str, Tuple[Tuple[str, str], ...]] = {}
        #: Degraded span -> its nominal capacity, for restoration.
        self._nominal_gbps: Dict[Tuple[str, str], float] = {}

    def attach(self, sim: Simulator, orchestrator: Orchestrator) -> None:
        """Schedule every transition onto ``sim``; one run at a time.

        Attaching starts a fresh accounting epoch (the accountant is
        reset), so a re-invokable campaign runner can replay the same
        timeline against a fresh simulator without accumulating stale
        downtime from the previous run.
        """
        self.accountant.reset()
        self._reset_play_state()
        for event in self.timeline.events:
            sim.schedule(
                event.time_ms,
                lambda e=event: self._apply(e, sim, orchestrator),
                name=f"fault:{event.kind}:{event.label()}",
            )

    def finalize(self, end_ms: float) -> None:
        """Close the books: charge still-down components until ``end_ms``."""
        self.accountant.finalize(end_ms)

    # ------------------------------------------------------------------
    def _apply(
        self, event: FaultEvent, sim: Simulator, orchestrator: Orchestrator
    ) -> None:
        orchestrator.advance_clock(sim.now)
        obs.event(
            f"fault.{event.kind}",
            sim_ms=sim.now,
            component=event.component,
            subject=event.label(),
        )
        if event.kind == FORECAST:
            self._apply_forecast(event, orchestrator)
        elif event.component == "link":
            self._apply_link(event, sim, orchestrator)
        elif event.component == "srlg":
            self._apply_srlg(event, sim, orchestrator)
        elif event.component == "degrade":
            self._apply_degrade(event, sim, orchestrator)
        else:
            self._apply_node(event, sim, orchestrator)

    # -- independent processes -----------------------------------------
    def _apply_link(
        self, event: FaultEvent, sim: Simulator, orchestrator: Orchestrator
    ) -> None:
        u, v = event.subject
        if event.kind == FAIL:
            self._fail_span(orchestrator, u, v, sim.now)
        else:
            orchestrator.handle_link_restore(u, v)
            self.accountant.on_repair("link", event.subject, sim.now)

    def _apply_node(
        self, event: FaultEvent, sim: Simulator, orchestrator: Orchestrator
    ) -> None:
        (name,) = event.subject
        if event.kind == FAIL:
            outcomes = orchestrator.handle_node_failure(name)
            self.accountant.on_fail("node", event.subject, sim.now)
            self.accountant.on_task_outcomes(outcomes)
        else:
            orchestrator.handle_node_restore(name)
            self.accountant.on_repair("node", event.subject, sim.now)

    def _fail_span(
        self, orchestrator: Orchestrator, u: str, v: str, now_ms: float
    ) -> None:
        """Apply one span failure, drain-aware.

        A drained span is already administratively down with nothing
        left on it; the handler is still dispatched (it is a cheap
        no-op re-fail) and the downtime clock starts *here*, at the
        real failure — the drain window is planned outage, not fault
        downtime.
        """
        self._drained.discard((u, v))
        outcomes = orchestrator.handle_link_failure(u, v)
        self.accountant.on_fail("link", (u, v), now_ms)
        self.accountant.on_task_outcomes(outcomes)

    # -- correlated processes ------------------------------------------
    def _apply_srlg(
        self, event: FaultEvent, sim: Simulator, orchestrator: Orchestrator
    ) -> None:
        (name,) = event.subject
        group = self._groups.get(name)
        if group is None:
            raise SimulationError(f"timeline names unknown SRLG {name!r}")
        if event.kind == FAIL:
            self.accountant.on_srlg_cut()
            downed = []
            for u, v in group.members:
                link = orchestrator.network.link(u, v)
                if link.failed and (u, v) not in self._drained:
                    # Already down for an unrelated reason (e.g. an
                    # endpoint outage); this cut neither downs nor —
                    # crucially — later restores it.
                    continue
                self._fail_span(orchestrator, u, v, sim.now)
                downed.append((u, v))
            self._cut_members[name] = tuple(downed)
        else:
            for u, v in self._cut_members.pop(name, ()):
                orchestrator.handle_link_restore(u, v)
                self.accountant.on_repair("link", (u, v), sim.now)

    def _apply_degrade(
        self, event: FaultEvent, sim: Simulator, orchestrator: Orchestrator
    ) -> None:
        u, v = event.subject
        subject = (u, v)
        link = orchestrator.network.link(u, v)
        if event.kind == FAIL:
            self._nominal_gbps[subject] = link.capacity_gbps
            orchestrator.handle_link_capacity(
                u, v, link.capacity_gbps * self.timeline.degraded_fraction
            )
            self.accountant.on_degrade(subject, sim.now)
        else:
            nominal = self._nominal_gbps.pop(subject, None)
            if nominal is None:
                raise SimulationError(
                    f"degrade repair for {u}-{v} without a matching degrade"
                )
            orchestrator.handle_link_capacity(u, v, nominal)
            self.accountant.on_degrade_end(subject, sim.now)

    # -- forecasts ------------------------------------------------------
    def _apply_forecast(
        self, event: FaultEvent, orchestrator: Orchestrator
    ) -> None:
        if event.component == "srlg":
            (name,) = event.subject
            group = self._groups.get(name)
            if group is None:
                raise SimulationError(f"timeline names unknown SRLG {name!r}")
            spans = group.members
        else:
            spans = (tuple(event.subject),)
        for u, v in spans:
            if orchestrator.network.link(u, v).failed:
                continue
            outcomes = orchestrator.handle_link_drain(u, v)
            self._drained.add((u, v))
            self.accountant.on_forecast_outcomes(outcomes)
