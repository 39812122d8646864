"""The telemetry registry: counters, gauges, histograms, and spans.

One :class:`Telemetry` instance aggregates everything a process records
between ``enable()`` and ``disable()``.  Counters and gauges are keyed
by ``(name, sorted labels)``; histograms use fixed bucket edges with
**half-open** ``[lo, hi)`` buckets (see :class:`Histogram` — a value
exactly on an edge always lands in the bucket above, in the direct path
and the flush-delta path alike) so two registries (or two flush deltas)
merge by plain addition; spans aggregate per *name* (labels ride only
on the trace lines, keeping the in-memory footprint independent of run
count).

Spans record wall time always and simulated time whenever a simulator
clock is bound (:meth:`Telemetry.bind_sim_clock` — the campaign runner
binds ``lambda: sim.now`` for the duration of a run), so one trace
answers both "where did the wall-clock go" and "where did sim time go".

Everything is out-of-band by construction: recording mutates only this
registry and the optional :class:`~repro.obs.trace.TraceSink`; nothing
here can reach result rows or result sinks.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from .trace import TraceSink

#: Sorted ``(key, value)`` label pairs — the hashable label identity.
LabelItems = Tuple[Tuple[str, Any], ...]

#: Default histogram bucket edges (milliseconds-flavoured, but unitless).
DEFAULT_BUCKETS = (0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0)


def label_key(labels: Mapping[str, Any]) -> LabelItems:
    return tuple(sorted(labels.items()))


def label_text(items: LabelItems) -> str:
    """Human form of a label key: ``{a=1,b=x}`` (empty string for none)."""
    if not items:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in items) + "}"


class Histogram:
    """Fixed-edge histogram: ``len(edges) + 1`` buckets plus sum/count.

    Buckets are **half-open intervals** ``[lo, hi)``: bucket ``i``
    counts observations with ``edges[i-1] <= value < edges[i]`` (the
    first bucket is ``(-inf, edges[0])``, the final bucket is the
    ``>= edges[-1]`` overflow).  A value exactly equal to an edge lands
    in the bucket *above* it, everywhere — direct :meth:`observe`, the
    flush-delta trace encoding, and ``repro obs report`` all agree, so
    merged traces never disagree with in-process aggregates on boundary
    values.  Fixed edges make histograms mergeable by adding bucket
    counts — the property the trace's flush-delta encoding relies on.
    """

    __slots__ = ("edges", "counts", "total", "count")

    def __init__(self, edges: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ConfigurationError(
                f"histogram edges must be strictly increasing, got {edges}"
            )
        self.edges = tuple(float(e) for e in edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = 0
        for index, edge in enumerate(self.edges):
            if value < edge:  # half-open [lo, hi): edge values go above
                break
        else:
            index = len(self.edges)
        self.counts[index] += 1
        self.total += value
        self.count += 1

    def observe_many(self, values: np.ndarray) -> None:
        """:meth:`observe` each float64 of ``values``, in order.

        Same buckets and the same running total: the cumulative sum adds
        one value at a time, as repeated :meth:`observe` calls would.
        """
        slots = np.searchsorted(self.edges, values, side="right")
        added = np.bincount(slots, minlength=len(self.counts))
        for index, more in enumerate(added.tolist()):
            self.counts[index] += more
        self.total = float(np.cumsum(np.append(self.total, values))[-1])
        self.count += int(values.size)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "total": self.total,
            "count": self.count,
        }


class Span:
    """One in-flight timed region; created by :meth:`Telemetry.span`.

    Context manager: wall time runs from ``__enter__`` to ``__exit__``;
    simulated time is captured when the owning registry has a simulator
    clock bound at both ends.  When the registry carries a collection
    context (distributed trace capture) the span additionally gets a
    registry-unique id, a parent id from the per-thread span stack, and
    a ``t0_s`` wall-epoch start stamp so the coordinator can skew-align
    and tree-assemble spans from many workers.
    """

    __slots__ = (
        "_telemetry", "name", "labels", "_wall0", "_sim0",
        "_span_id", "_parent", "_t0_s",
    )

    def __init__(
        self, telemetry: "Telemetry", name: str, labels: LabelItems
    ) -> None:
        self._telemetry = telemetry
        self.name = name
        self.labels = labels
        self._wall0 = 0.0
        self._sim0: Optional[float] = None
        self._span_id: Optional[str] = None
        self._parent: Optional[str] = None
        self._t0_s: Optional[float] = None

    def __enter__(self) -> "Span":
        telemetry = self._telemetry
        clock = telemetry._sim_clock
        self._sim0 = clock() if clock is not None else None
        if telemetry.context is not None:
            self._span_id, self._parent = telemetry._enter_span()
            self._t0_s = time.time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        wall_ms = (time.perf_counter() - self._wall0) * 1000.0
        sim_ms: Optional[float] = None
        clock = self._telemetry._sim_clock
        if clock is not None and self._sim0 is not None:
            sim_ms = clock() - self._sim0
        self._telemetry._record_span(
            self.name, self.labels, wall_ms, sim_ms,
            span_id=self._span_id, parent=self._parent, t0_s=self._t0_s,
        )
        return False


class Telemetry:
    """A process-local telemetry registry (thread-safe).

    Args:
        trace: optional trace sink (any object with ``write``/``flush``/
            ``close``, e.g. :class:`TraceSink` or
            :class:`~repro.obs.trace.MemorySink`) receiving every
            span/event as it happens and counter/gauge/histogram deltas
            on flush.
        context: optional collection-context stamp (``campaign``,
            ``run``, ...).  When set, every trace record carries it as
            ``ctx``, spans gain ids/parents/epoch starts, and events
            gain wall stamps — the extra fields distributed trace
            merging needs.  ``None`` (the default) keeps records in
            their compact process-local form.
        parent_span: the collector-side span id adopted as the parent
            of this registry's root spans.
    """

    def __init__(
        self,
        trace: Optional[TraceSink] = None,
        *,
        context: Optional[Mapping[str, Any]] = None,
        parent_span: Optional[str] = None,
    ) -> None:
        self.trace = trace
        self.context: Optional[Dict[str, Any]] = (
            dict(context) if context else None
        )
        self.parent_span = parent_span
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelItems], float] = {}
        self._gauges: Dict[Tuple[str, LabelItems], float] = {}
        self._histograms: Dict[Tuple[str, LabelItems], Histogram] = {}
        self._spans: Dict[str, Dict[str, float]] = {}
        self._flushed_counters: Dict[Tuple[str, LabelItems], float] = {}
        self._flushed_hist_counts: Dict[Tuple[str, LabelItems], List[int]] = {}
        self._sim_clock: Optional[Callable[[], float]] = None
        self._span_seq = 0
        self._span_stack = threading.local()
        #: Instrumentation call count — the obs overhead benchmark uses
        #: this to bound what the *disabled* guard would have cost.
        self.touches = 0

    # -- sim-time binding --------------------------------------------------

    def bind_sim_clock(
        self, clock: Optional[Callable[[], float]]
    ) -> Optional[Callable[[], float]]:
        """Install a simulated-time source; returns the previous one.

        Spans opened while a clock is bound record ``sim_ms`` alongside
        wall time.  Callers restore the returned previous clock when
        their scope ends (the campaign runner does this in a finally).
        """
        previous = self._sim_clock
        self._sim_clock = clock
        return previous

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        key = (name, label_key(labels))
        with self._lock:
            self.touches += 1
            self._counters[key] = self._counters.get(key, 0) + value

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        key = (name, label_key(labels))
        with self._lock:
            self.touches += 1
            self._gauges[key] = value

    def observe(
        self,
        name: str,
        value: float,
        *,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> None:
        with self._lock:
            self.touches += 1
            self._histogram(name, buckets, labels).observe(value)

    def observe_many(
        self,
        name: str,
        values: np.ndarray,
        *,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> None:
        """:meth:`observe` every value of a float64 array as one touch."""
        with self._lock:
            self.touches += 1
            self._histogram(name, buckets, labels).observe_many(values)

    def _histogram(
        self, name: str, buckets: Tuple[float, ...], labels: Mapping[str, Any]
    ) -> Histogram:
        """The histogram keyed by ``name`` and ``labels`` (lock held)."""
        key = (name, label_key(labels))
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(buckets)
        return histogram

    def event(
        self, name: str, *, sim_ms: Optional[float] = None, **labels: Any
    ) -> None:
        """A point occurrence: counted, and a trace line when tracing."""
        items = label_key(labels)
        with self._lock:
            self.touches += 1
            key = (name, items)
            self._counters[key] = self._counters.get(key, 0) + 1
            if self.trace is not None:
                # The event line itself carries this occurrence; marking
                # it flushed keeps the counter delta from re-counting it.
                self._flushed_counters[key] = (
                    self._flushed_counters.get(key, 0) + 1
                )
            if sim_ms is None and self._sim_clock is not None:
                sim_ms = self._sim_clock()
        if self.trace is not None:
            record: Dict[str, Any] = {"type": "event", "name": name}
            if labels:
                record["labels"] = dict(items)
            if sim_ms is not None:
                record["sim_ms"] = round(sim_ms, 6)
            if self.context is not None:
                record["ctx"] = self.context
                record["t_s"] = round(time.time(), 6)
            self.trace.write(record)

    def span(self, name: str, **labels: Any) -> Span:
        return Span(self, name, label_key(labels))

    def _enter_span(self) -> Tuple[str, Optional[str]]:
        """Allocate a span id and resolve its parent (context mode only).

        Parents come from a per-thread stack of open spans, so nested
        spans on one thread form a tree; a thread's outermost span
        adopts :attr:`parent_span` (the collector's campaign root).
        """
        stack = getattr(self._span_stack, "ids", None)
        if stack is None:
            stack = self._span_stack.ids = []
        with self._lock:
            self._span_seq += 1
            span_id = f"s{self._span_seq}"
        parent = stack[-1] if stack else self.parent_span
        stack.append(span_id)
        return span_id, parent

    def _record_span(
        self,
        name: str,
        labels: LabelItems,
        wall_ms: float,
        sim_ms: Optional[float],
        *,
        span_id: Optional[str] = None,
        parent: Optional[str] = None,
        t0_s: Optional[float] = None,
    ) -> None:
        if span_id is not None:
            stack = getattr(self._span_stack, "ids", None)
            if stack and stack[-1] == span_id:
                stack.pop()
        with self._lock:
            self.touches += 1
            stats = self._spans.get(name)
            if stats is None:
                stats = self._spans[name] = {
                    "count": 0,
                    "total_ms": 0.0,
                    "max_ms": 0.0,
                    "total_sim_ms": 0.0,
                }
            stats["count"] += 1
            stats["total_ms"] += wall_ms
            if wall_ms > stats["max_ms"]:
                stats["max_ms"] = wall_ms
            if sim_ms is not None:
                stats["total_sim_ms"] += sim_ms
        if self.trace is not None:
            record: Dict[str, Any] = {
                "type": "span",
                "name": name,
                "ms": round(wall_ms, 6),
            }
            if labels:
                record["labels"] = dict(labels)
            if sim_ms is not None:
                record["sim_ms"] = round(sim_ms, 6)
            if span_id is not None:
                record["span_id"] = span_id
                if parent is not None:
                    record["parent"] = parent
                if t0_s is not None:
                    record["t0_s"] = round(t0_s, 6)
            if self.context is not None:
                record["ctx"] = self.context
            self.trace.write(record)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Everything recorded so far, as one JSON-able dict."""
        with self._lock:
            return {
                "counters": {
                    f"{name}{label_text(items)}": value
                    for (name, items), value in sorted(self._counters.items())
                },
                "gauges": {
                    f"{name}{label_text(items)}": value
                    for (name, items), value in sorted(self._gauges.items())
                },
                "histograms": {
                    f"{name}{label_text(items)}": histogram.as_dict()
                    for (name, items), histogram in sorted(
                        self._histograms.items()
                    )
                },
                "spans": {
                    name: dict(stats)
                    for name, stats in sorted(self._spans.items())
                },
            }

    def summary(self) -> Dict[str, Any]:
        """A compact roll-up (per-name totals, labels folded away).

        This is what the bench runner stores into ``BENCH_HISTORY``
        records: small, stable keys, no per-run label cardinality.
        """
        with self._lock:
            counters: Dict[str, float] = {}
            for (name, _items), value in self._counters.items():
                counters[name] = counters.get(name, 0) + value
            spans = {
                name: {
                    "count": stats["count"],
                    "total_ms": round(stats["total_ms"], 3),
                }
                for name, stats in sorted(self._spans.items())
            }
            return {
                "counters": {k: counters[k] for k in sorted(counters)},
                "spans": spans,
                "touches": self.touches,
            }

    def flush(self) -> None:
        """Write counter/gauge/histogram state to the trace as deltas.

        Counter and histogram lines carry the change since the previous
        flush, so an aggregator sums lines without double counting;
        gauges carry current values.  No-op without a trace sink.
        """
        if self.trace is None:
            return
        with self._lock:
            counter_lines = []
            for (name, items), value in sorted(self._counters.items()):
                delta = value - self._flushed_counters.get((name, items), 0)
                if delta:
                    counter_lines.append((name, items, delta))
                self._flushed_counters[(name, items)] = value
            gauge_lines = [
                (name, items, value)
                for (name, items), value in sorted(self._gauges.items())
            ]
            hist_lines = []
            for (name, items), histogram in sorted(self._histograms.items()):
                seen = self._flushed_hist_counts.get(
                    (name, items), [0] * len(histogram.counts)
                )
                delta_counts = [
                    now - before for now, before in zip(histogram.counts, seen)
                ]
                if any(delta_counts):
                    hist_lines.append(
                        (name, items, histogram.edges, delta_counts)
                    )
                self._flushed_hist_counts[(name, items)] = list(
                    histogram.counts
                )
        for name, items, delta in counter_lines:
            record: Dict[str, Any] = {
                "type": "counter",
                "name": name,
                "value": delta,
            }
            if items:
                record["labels"] = dict(items)
            if self.context is not None:
                record["ctx"] = self.context
            self.trace.write(record)
        for name, items, value in gauge_lines:
            record = {"type": "gauge", "name": name, "value": value}
            if items:
                record["labels"] = dict(items)
            if self.context is not None:
                record["ctx"] = self.context
            self.trace.write(record)
        for name, items, edges, delta_counts in hist_lines:
            record = {
                "type": "hist",
                "name": name,
                "edges": list(edges),
                "counts": delta_counts,
            }
            if items:
                record["labels"] = dict(items)
            if self.context is not None:
                record["ctx"] = self.context
            self.trace.write(record)
        self.trace.flush()

    def close(self) -> None:
        """Flush pending deltas and close the trace sink (if any)."""
        self.flush()
        if self.trace is not None:
            self.trace.close()
