"""``repro.obs``: out-of-band telemetry — counters, spans, trace export.

The sweep engine, the schedulers, the routing kernel, the distributed
coordinator, and the fault injector are all instrumented through this
facade.  Telemetry is **off by default** and strictly out-of-band:
result rows, golden files, and result-sink contents are byte-identical
whether it is on, off, or never imported, and the disabled path is a
near-zero-cost no-op — each instrumentation site costs one function
call that checks a single module attribute and returns::

    from repro import obs

    with obs.session(trace="trace.jsonl"):          # enable + TraceSink
        result = run_sweep(config)                   # spans/counters flow
    # disabled again; the trace file holds the telemetry

    print(obs.report("trace.jsonl"))                 # aggregate it

Hot-path usage (what the instrumented modules do)::

    with obs.span("run.schedule", scheduler=name):   # no-op when off
        ...
    obs.inc("pathcache.hits", delta)                 # no-op when off

The active :class:`Telemetry` registry is process-local; forked worker
processes start with telemetry disabled (an ``os.register_at_fork``
guard) so a shared trace file is never written from two processes.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Union

import numpy as np

from ..errors import ConfigurationError
from .log import (
    LOG_LEVEL_ENV,
    LOG_LEVELS,
    configure_logging,
    get_logger,
)
from .registry import DEFAULT_BUCKETS, Histogram, Span, Telemetry
from .report import aggregate_trace, format_record, render_summary, report
from .trace import MemorySink, TraceSink, follow_trace, iter_trace, trace_files

__all__ = [
    "Telemetry",
    "TraceSink",
    "MemorySink",
    "Histogram",
    "Span",
    "DEFAULT_BUCKETS",
    "active",
    "enable",
    "disable",
    "session",
    "enabled",
    "disabled",
    "thread_session",
    "span",
    "inc",
    "gauge",
    "observe",
    "event",
    "observe_network",
    "aggregate_trace",
    "render_summary",
    "report",
    "format_record",
    "iter_trace",
    "follow_trace",
    "trace_files",
    "collect_run",
    "TraceCollector",
    "TraceContext",
    "get_logger",
    "configure_logging",
    "LOG_LEVELS",
    "LOG_LEVEL_ENV",
]

#: The active registry — ``None`` means telemetry is off.  Every no-op
#: guard below is exactly one check of this attribute (plus one
#: thread-local read for the per-thread capture override).
_active: Optional[Telemetry] = None


class _ThreadState(threading.local):
    """Per-thread registry override (distributed trace capture)."""

    registry: Optional[Telemetry] = None


_tls = _ThreadState()


def active() -> Optional[Telemetry]:
    """The active :class:`Telemetry` registry, or ``None`` when off.

    A per-thread capture registry (:func:`thread_session` — how
    :func:`repro.obs.collect.collect_run` isolates one run's records)
    shadows the process-global one on its thread only.
    """
    return _tls.registry or _active


def enable(
    trace: Union[str, TraceSink, None] = None,
    *,
    registry: Optional[Telemetry] = None,
) -> Telemetry:
    """Turn telemetry on for this process.

    Args:
        trace: a path (a rotating :class:`TraceSink` is created) or a
            ready sink; ``None`` keeps telemetry in-memory only.
        registry: adopt an existing registry instead of a fresh one
            (``trace`` must then be ``None`` — the registry owns its
            sink).

    Raises:
        ConfigurationError: when telemetry is already enabled — an
            accidental double-enable would silently drop a trace.  Use
            :func:`enabled` for nested scopes.
    """
    global _active
    if _active is not None:
        raise ConfigurationError(
            "telemetry is already enabled; disable() it first or use the "
            "obs.enabled() context manager for nested scopes"
        )
    if registry is not None:
        if trace is not None:
            raise ConfigurationError(
                "pass trace or registry, not both — the registry already "
                "owns its trace sink"
            )
        _active = registry
    else:
        sink = TraceSink(trace) if isinstance(trace, str) else trace
        _active = Telemetry(trace=sink)
    return _active


def disable() -> Optional[Telemetry]:
    """Turn telemetry off; flushes and closes the trace.  Idempotent.

    Returns the registry that was active (its aggregates remain
    readable after disable), or ``None`` if telemetry was already off.
    """
    global _active
    registry, _active = _active, None
    if registry is not None:
        registry.close()
    return registry


@contextmanager
def session(
    trace: Union[str, TraceSink, None] = None
) -> Iterator[Telemetry]:
    """``enable()`` on entry, ``disable()`` on exit (exception-safe)."""
    registry = enable(trace)
    try:
        yield registry
    finally:
        if _active is registry:
            disable()


@contextmanager
def enabled(
    trace: Union[str, TraceSink, None] = None
) -> Iterator[Telemetry]:
    """A nest-safe telemetry scope: stash the current registry, install
    a fresh one, restore on exit.  Used where telemetry may already be
    on (the bench runner, the overhead benchmark)."""
    global _active
    previous = _active
    _active = None
    registry = enable(trace)
    try:
        yield registry
    finally:
        if _active is registry:
            registry.close()
        _active = previous


@contextmanager
def disabled() -> Iterator[None]:
    """Force telemetry off inside the scope, restoring it after.

    Clears both the process-global registry and this thread's capture
    override — inside the scope every facade call is a true no-op.
    """
    global _active
    previous, _active = _active, None
    previous_tls, _tls.registry = _tls.registry, None
    try:
        yield
    finally:
        _active = previous
        _tls.registry = previous_tls


@contextmanager
def thread_session(registry: Telemetry) -> Iterator[Telemetry]:
    """Install ``registry`` for the *current thread only*.

    The distributed-collection capture scope: while active, facade
    calls and :func:`active` on this thread route to ``registry``
    (shadowing any process-global session), other threads are
    untouched, and the previous override is restored on exit.  Unlike
    :func:`session` the registry is **not** closed on exit — the caller
    owns it and typically drains its :class:`MemorySink` afterwards.
    """
    previous = _tls.registry
    _tls.registry = registry
    try:
        yield registry
    finally:
        _tls.registry = previous


# ---------------------------------------------------------------------------
# The no-op-when-off facade
# ---------------------------------------------------------------------------

class _NullSpan:
    """The shared do-nothing span returned while telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, **labels: Any) -> Union[Span, _NullSpan]:
    """A timed region; the shared no-op span while telemetry is off."""
    registry = _tls.registry or _active
    if registry is None:
        return _NULL_SPAN
    return registry.span(name, **labels)


def inc(name: str, value: float = 1, **labels: Any) -> None:
    registry = _tls.registry or _active
    if registry is not None:
        registry.inc(name, value, **labels)


def gauge(name: str, value: float, **labels: Any) -> None:
    registry = _tls.registry or _active
    if registry is not None:
        registry.gauge(name, value, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    registry = _tls.registry or _active
    if registry is not None:
        registry.observe(name, value, **labels)


def event(name: str, *, sim_ms: Optional[float] = None, **labels: Any) -> None:
    registry = _tls.registry or _active
    if registry is not None:
        registry.event(name, sim_ms=sim_ms, **labels)


# ---------------------------------------------------------------------------
# Reservation-pressure measurement
# ---------------------------------------------------------------------------

def observe_network(network: Any, *, top: int = 5, **labels: Any) -> None:
    """Record per-link reservation pressure for one network snapshot.

    For every live link the *peak-direction* utilisation (reserved /
    capacity, the hotter of the two directions) feeds the
    ``link.utilization`` histogram; summary gauges capture the max and
    mean, ``net.saturated_links`` counts links above 95%, and the
    ``top`` hottest links get individual ``link.pressure`` gauges keyed
    by endpoint pair — the hotspot-congestion measurement for
    scale-free hubs.  No-op while telemetry is off.

    One numpy pass over the network's ledger slots (``2·ordinal`` is a
    link's ``u -> v`` direction, the next its ``v -> u``) computes what
    ``1 - residual_gbps / capacity_gbps`` gives per direction, in link
    order; link objects are read only to name the top-k.
    """
    registry = _tls.registry or _active
    if registry is None:
        return
    ledger = network.ledger
    used = np.frombuffer(ledger.used)
    capacity = np.frombuffer(ledger.capacity)[0::2]
    forward = 1.0 - (capacity - used[0::2]) / capacity
    backward = 1.0 - (capacity - used[1::2]) / capacity
    failed = np.frombuffer(ledger.failed, dtype=np.int8)[0::2]
    live = np.flatnonzero(failed == 0)
    values = np.maximum(forward, backward)[live]
    if not values.size:
        return
    registry.observe_many(
        "link.utilization",
        values,
        buckets=(0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0),
        **labels,
    )
    registry.gauge(
        "net.max_link_utilization", round(float(values.max()), 6), **labels
    )
    registry.gauge(
        "net.mean_link_utilization",
        round(sum(values.tolist()) / values.size, 6),
        **labels,
    )
    registry.gauge(
        "net.saturated_links", int(np.count_nonzero(values > 0.95)), **labels
    )
    # The top-k by (-pressure, name) among positive pressures: every
    # link at or above the k-th largest value is a candidate, so ties
    # on that value still break by name.
    if top <= 0:
        return
    hot = np.flatnonzero(values > 0)
    if hot.size > top:
        kth = np.partition(values[hot], hot.size - top)[hot.size - top]
        hot = hot[values[hot] >= kth]
    if not hot.size:
        return
    links = list(network.links())
    pressures = [
        (pressure, f"{links[ordinal].u}-{links[ordinal].v}")
        for pressure, ordinal in zip(values[hot].tolist(), live[hot].tolist())
    ]
    pressures.sort(key=lambda item: (-item[0], item[1]))
    for pressure, name in pressures[:top]:
        registry.gauge("link.pressure", round(pressure, 6), link=name)


def _disable_after_fork() -> None:
    """Children of an instrumented process must not share the trace."""
    global _active
    _active = None
    _tls.registry = None


if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(after_in_child=_disable_after_fork)


# Collection imports last: repro.obs.collect uses the facade above
# (``thread_session``) via a deferred import, but its public names are
# part of the obs surface.
from .collect import TraceCollector, TraceContext, collect_run  # noqa: E402
