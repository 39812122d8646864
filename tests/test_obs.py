"""Tests for ``repro.obs``: registry, trace, report, logging, facade,
CLI, and the distributed coordinator's worker-churn accounting."""

import json
import logging
import os
import socket as socketlib
import threading
import time

import pytest

from repro import obs
from repro.cli import main
from repro.errors import ConfigurationError
from repro.network.routing import CacheStats
from repro.scenarios import SocketQueueBackend, SweepConfig, run_sweep
from repro.scenarios.sweep.distributed import run_worker

#: 2 runs, 4 servings: the cheapest sweep that still exercises caching,
#: both schedulers, and every instrumented code path.
TOY = SweepConfig(
    scenarios=("toy-triangle",), grid={"demand_gbps": [5.0]}, seeds=(0, 1)
)


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with telemetry disabled."""
    obs.disable()
    yield
    obs.disable()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_counters_keyed_by_labels_folded_in_summary(self):
        registry = obs.Telemetry()
        registry.inc("hits", 2, scheduler="a")
        registry.inc("hits", 3, scheduler="b")
        snapshot = registry.snapshot()
        assert snapshot["counters"]["hits{scheduler=a}"] == 2
        assert snapshot["counters"]["hits{scheduler=b}"] == 3
        assert registry.summary()["counters"]["hits"] == 5

    def test_gauge_last_write_wins(self):
        registry = obs.Telemetry()
        registry.gauge("depth", 3)
        registry.gauge("depth", 7)
        assert registry.snapshot()["gauges"]["depth"] == 7

    def test_histogram_buckets_and_mean(self):
        histogram = obs.Histogram((1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1]
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(55.5 / 3)

    def test_histogram_rejects_unsorted_edges(self):
        with pytest.raises(ConfigurationError):
            obs.Histogram((5.0, 1.0))

    def test_span_records_wall_and_sim_time(self):
        registry = obs.Telemetry()
        now = {"t": 100.0}
        assert registry.bind_sim_clock(lambda: now["t"]) is None
        with registry.span("region", scheduler="x"):
            now["t"] = 350.0
        stats = registry.snapshot()["spans"]["region"]
        assert stats["count"] == 1
        assert stats["total_ms"] >= 0.0
        assert stats["total_sim_ms"] == pytest.approx(250.0)

    def test_touches_counts_every_instrumentation_hit(self):
        registry = obs.Telemetry()
        registry.inc("a")
        registry.gauge("b", 1)
        registry.observe("c", 1.0)
        registry.event("d")
        with registry.span("e"):
            pass
        assert registry.touches == 5

    def test_event_not_double_counted_through_trace(self, tmp_path):
        """An event is one trace line AND one counter bump; the flush
        delta must not re-count it when aggregating the trace."""
        trace = str(tmp_path / "trace.jsonl")
        with obs.session(trace=trace) as registry:
            obs.event("fault.fail", component="link")
            obs.event("fault.fail", component="link")
        assert registry.summary()["counters"]["fault.fail"] == 2
        summary = obs.aggregate_trace(obs.iter_trace(trace))
        assert summary["counters"]["fault.fail{component=link}"] == 2

    def test_flush_deltas_sum_to_aggregate(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        sink = obs.TraceSink(trace)
        registry = obs.Telemetry(trace=sink)
        registry.inc("work", 3)
        registry.flush()
        registry.inc("work", 4)
        registry.close()
        summary = obs.aggregate_trace(obs.iter_trace(trace))
        assert summary["counters"]["work"] == 7


# ---------------------------------------------------------------------------
# Trace sink
# ---------------------------------------------------------------------------

class TestTraceSink:
    def test_rotation_keeps_bounded_backups(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        sink = obs.TraceSink(trace, max_bytes=4096, backups=2)
        for index in range(600):
            sink.write({"type": "event", "name": f"e{index:04d}"})
        sink.close()
        files = obs.trace_files(trace)
        assert 2 <= len(files) <= 3
        names = [
            r["name"]
            for r in obs.iter_trace(trace)
            if r.get("type") == "event"
        ]
        # Oldest rotations drop, but the surviving files read oldest
        # first and end with the most recent record.
        assert names == sorted(names)
        assert names[-1] == "e0599"

    def test_sessions_append_with_meta_lines(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        for _ in range(2):
            with obs.session(trace=trace):
                obs.inc("runs")
        summary = obs.aggregate_trace(obs.iter_trace(trace))
        assert summary["sessions"] == 2
        assert summary["counters"]["runs"] == 2

    def test_partial_final_line_tolerated(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            json.dumps({"type": "event", "name": "ok"})
            + "\n"
            + '{"type": "event", "na'
        )
        records = list(obs.iter_trace(str(trace)))
        assert [r["name"] for r in records] == ["ok"]

    def test_malformed_interior_line_raises_when_strict(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            "not json\n" + json.dumps({"type": "event", "name": "ok"}) + "\n"
        )
        with pytest.raises(ConfigurationError):
            list(obs.iter_trace(str(trace), strict=True))
        assert len(list(obs.iter_trace(str(trace), strict=False))) == 1

    def test_missing_trace_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            list(obs.iter_trace(str(tmp_path / "absent.jsonl")))


# ---------------------------------------------------------------------------
# Facade
# ---------------------------------------------------------------------------

class TestFacade:
    def test_off_by_default_and_noop(self):
        assert obs.active() is None
        obs.inc("ignored")
        obs.gauge("ignored", 1)
        obs.observe("ignored", 1.0)
        obs.event("ignored")
        assert obs.span("ignored") is obs.span("other")  # shared null span

    def test_double_enable_raises(self):
        obs.enable()
        with pytest.raises(ConfigurationError):
            obs.enable()

    def test_disable_returns_registry_and_is_idempotent(self):
        registry = obs.enable()
        registry.inc("a")
        assert obs.disable() is registry
        assert obs.disable() is None
        assert registry.summary()["counters"]["a"] == 1

    def test_enabled_scope_nests_and_restores(self):
        outer = obs.enable()
        with obs.enabled() as inner:
            assert obs.active() is inner
            obs.inc("inner.only")
        assert obs.active() is outer
        assert "inner.only" not in outer.summary()["counters"]
        assert inner.summary()["counters"]["inner.only"] == 1

    def test_disabled_scope_suppresses_and_restores(self):
        registry = obs.enable()
        with obs.disabled():
            obs.inc("suppressed")
            assert obs.active() is None
        assert obs.active() is registry
        assert "suppressed" not in registry.summary()["counters"]

    def test_observe_network_records_link_pressure(self):
        from repro.scenarios.registry import get_scenario

        instance = get_scenario("toy-triangle").instantiate({}, seed=0)
        registry = obs.enable()
        obs.observe_network(instance.network)
        gauges = registry.snapshot()["gauges"]
        assert "net.max_link_utilization" in gauges
        assert "net.mean_link_utilization" in gauges
        assert gauges["net.saturated_links"] >= 0
        hist = registry.snapshot()["histograms"]["link.utilization"]
        assert hist["count"] == sum(
            1 for link in instance.network.links() if not link.failed
        )

    @staticmethod
    def _observe_per_link(registry, network, *, top=5, **labels):
        """``observe_network`` as one observe per live link, in link order."""
        pressures = []
        for link in network.links():
            if link.failed:
                continue
            capacity = link.capacity_gbps
            forward = 1.0 - link.residual_gbps(link.u, link.v) / capacity
            backward = 1.0 - link.residual_gbps(link.v, link.u) / capacity
            pressures.append((max(forward, backward), f"{link.u}-{link.v}"))
        if not pressures:
            return
        values = [pressure for pressure, _name in pressures]
        for value in values:
            registry.observe(
                "link.utilization",
                value,
                buckets=(0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0),
                **labels,
            )
        registry.gauge(
            "net.max_link_utilization", round(max(values), 6), **labels
        )
        registry.gauge(
            "net.mean_link_utilization",
            round(sum(values) / len(values), 6),
            **labels,
        )
        registry.gauge(
            "net.saturated_links",
            sum(1 for value in values if value > 0.95),
            **labels,
        )
        pressures.sort(key=lambda item: (-item[0], item[1]))
        for pressure, name in pressures[: max(0, top)]:
            if pressure > 0:
                registry.gauge("link.pressure", round(pressure, 6), link=name)

    @pytest.mark.parametrize("top", [0, 1, 5, 40, 1000])
    def test_observe_network_matches_the_per_link_loop(self, top):
        import random

        from repro.network.topology import scale_free

        network = scale_free(n_routers=80, m_links=2, seed=3, servers_per_site=1)
        links = list(network.links())
        rng = random.Random(7)
        links[4].capacity_gbps = 40.0
        for index, link in enumerate(links[:120]):
            # Repeated rates put many links on equal pressures, so the
            # top-k boundary falls inside a tie broken by name.
            gbps = rng.choice([0.1, 3.3, 25.0, 40.0, 0.7 * link.capacity_gbps])
            src, dst = rng.choice([(link.u, link.v), (link.v, link.u)])
            network.reserve_edge(src, dst, gbps, f"o{index}")
            if index % 3 == 0:
                network.reserve_edge(dst, src, gbps / 3, f"o{index}")
        network.fail_link(links[9].u, links[9].v)
        network.fail_link(links[10].u, links[10].v)
        rounds = 3  # a histogram that already holds values keeps adding
        expected = obs.Telemetry()
        for _ in range(rounds):
            self._observe_per_link(expected, network, top=top, scheduler="x")
        registry = obs.enable()
        for _ in range(rounds):
            obs.observe_network(network, top=top, scheduler="x")
        got = registry.snapshot()
        want = expected.snapshot()
        assert got == want
        total = got["histograms"]["link.utilization{scheduler=x}"]["total"]
        assert total.hex() == want["histograms"][
            "link.utilization{scheduler=x}"
        ]["total"].hex()
        # One histogram touch per call, not one per link.
        hot = sum(key.startswith("link.pressure") for key in got["gauges"])
        assert registry.touches == rounds * (4 + hot)

    def test_observe_network_skips_an_all_failed_network(self):
        from repro.network.graph import Network

        network = Network("down")
        for name in "ab":
            network.add_node(name)
        network.add_link("a", "b", 10.0)
        network.fail_link("a", "b")
        registry = obs.enable()
        obs.observe_network(network)
        assert registry.snapshot()["histograms"] == {}
        assert registry.snapshot()["gauges"] == {}


# ---------------------------------------------------------------------------
# Logging
# ---------------------------------------------------------------------------

class TestLogging:
    def test_get_logger_namespaced_under_repro(self):
        assert obs.get_logger("cli").name == "repro.cli"

    def test_configure_logging_idempotent(self):
        logger = logging.getLogger("repro")
        obs.configure_logging("info")
        first = list(logger.handlers)
        obs.configure_logging("debug")
        assert len(logger.handlers) == len(first)
        assert logger.level == logging.DEBUG

    def test_log_writes_to_current_stderr(self, capsys):
        obs.configure_logging("warning")
        obs.get_logger("test").warning("something odd happened")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "WARNING repro.test: something odd happened" in captured.err

    def test_invalid_level_rejected(self):
        with pytest.raises(ConfigurationError):
            obs.configure_logging("loud")

    def test_env_level_applies(self, monkeypatch, capsys):
        monkeypatch.setenv(obs.LOG_LEVEL_ENV, "debug")
        obs.configure_logging()
        obs.get_logger("test").debug("deep detail")
        assert "deep detail" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Report / CLI
# ---------------------------------------------------------------------------

class TestReportAndCli:
    def _write_trace(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        with obs.session(trace=trace):
            with obs.span("run.schedule", scheduler="fixed-spff"):
                pass
            obs.inc("pathcache.hits", 5)
            obs.gauge("net.max_link_utilization", 0.5)
            obs.observe("latency", 3.0, buckets=(1.0, 10.0))
        return trace

    def test_report_renders_all_sections(self, tmp_path):
        text = obs.report(self._write_trace(tmp_path))
        assert "trace sessions: 1" in text
        assert "run.schedule" in text
        assert "pathcache.hits" in text
        assert "net.max_link_utilization" in text
        assert "latency" in text

    def test_report_split_by_span_label(self, tmp_path):
        text = obs.report(
            self._write_trace(tmp_path), span_labels=("scheduler",)
        )
        assert "run.schedule[scheduler=fixed-spff]" in text

    def test_cli_report(self, tmp_path, capsys):
        trace = self._write_trace(tmp_path)
        assert main(["obs", "report", trace, "--by", "scheduler"]) == 0
        out = capsys.readouterr().out
        assert "run.schedule[scheduler=fixed-spff]" in out

    def test_cli_tail(self, tmp_path, capsys):
        trace = self._write_trace(tmp_path)
        assert main(["obs", "tail", trace, "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 3

    def test_cli_report_missing_trace_fails(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.jsonl")
        assert main(["obs", "report", missing]) == 2
        assert "absent.jsonl" in capsys.readouterr().err

    def test_cli_rejects_bad_log_level(self, capsys):
        assert main(["--log-level", "loud", "list"]) == 2
        assert "loud" in capsys.readouterr().err

    def test_cli_sweep_trace_flag_writes_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        assert (
            main(
                [
                    "scenarios",
                    "sweep",
                    "toy-triangle",
                    "--seeds",
                    "0",
                    "--trace",
                    trace,
                ]
            )
            == 0
        )
        assert obs.active() is None  # session closed after the sweep
        summary = obs.aggregate_trace(obs.iter_trace(trace))
        executed = [
            value
            for key, value in summary["counters"].items()
            if key.startswith("sweep.runs_executed")
        ]
        assert sum(executed) == 1
        assert "run.schedule" in summary["spans"]


# ---------------------------------------------------------------------------
# CacheStats snapshot/delta
# ---------------------------------------------------------------------------

class TestCacheStats:
    def test_snapshot_is_immutable_point_in_time(self):
        stats = CacheStats()
        stats.hits = 3
        before = stats.snapshot()
        stats.hits = 10
        assert before["hits"] == 3
        with pytest.raises(TypeError):
            before["hits"] = 99

    def test_delta_measures_one_phase(self):
        stats = CacheStats(hits=2, misses=5)
        before = stats.snapshot()
        stats.hits += 4
        stats.evictions += 1
        assert stats.delta(before) == {
            "hits": 4,
            "misses": 0,
            "revalidations": 0,
            "invalidations": 0,
            "evictions": 1,
            "repairs": 0,
        }

    def test_delta_from_empty_is_absolute(self):
        stats = CacheStats(hits=7, invalidations=2)
        delta = stats.delta({})
        assert delta["hits"] == 7
        assert delta["invalidations"] == 2


# ---------------------------------------------------------------------------
# Instrumented subsystems
# ---------------------------------------------------------------------------

class TestInstrumentation:
    def test_sweep_records_spans_counters_and_scheduler_stats(self):
        with obs.enabled() as registry:
            run_sweep(TOY, workers=1)
        summary = registry.summary()
        assert summary["counters"]["sweep.runs_total"] == 2
        assert summary["counters"]["sweep.runs_executed"] == 2
        assert summary["counters"]["schedule.accepted"] >= 4
        assert summary["counters"]["orchestrator.admitted"] >= 4
        assert summary["counters"]["pathcache.misses"] > 0
        for span in ("sweep", "run.build", "run.schedule", "run.drain",
                     "schedule"):
            assert summary["spans"][span]["count"] >= 1

    def test_campaign_span_carries_sim_time(self):
        from repro.orchestrator import run_scenario

        with obs.enabled() as registry:
            run_scenario("toy-triangle", seed=0)
        stats = registry.snapshot()["spans"]["campaign"]
        assert stats["total_sim_ms"] > 0.0

    def test_fault_events_recorded_with_sim_time(self, tmp_path):
        from repro.orchestrator import run_scenario

        trace = str(tmp_path / "trace.jsonl")
        with obs.session(trace=trace) as registry:
            run_scenario("metro-mesh-flaky-links", seed=0)
        counters = registry.summary()["counters"]
        assert counters["fault.fail"] > 0
        events = [
            r
            for r in obs.iter_trace(trace)
            if r.get("type") == "event"
            and str(r.get("name", "")).startswith("fault.")
        ]
        assert events
        assert all("sim_ms" in record for record in events)
        assert all(
            record["labels"]["component"] in ("link", "node")
            for record in events
        )


# ---------------------------------------------------------------------------
# Distributed coordinator churn accounting
# ---------------------------------------------------------------------------

def _drain_with_doomed_worker(config, backend, address_box):
    """Run the sweep while one fake worker checks out a run and dies."""
    result_box = {}

    def coordinate():
        result_box["result"] = run_sweep(config, backend=backend)

    thread = threading.Thread(target=coordinate)
    thread.start()
    deadline = time.monotonic() + 10.0
    while not address_box and time.monotonic() < deadline:
        time.sleep(0.01)
    assert address_box, "coordinator never announced its address"
    host, port = address_box[0]

    # A protocol-speaking client that checks out one run, then vanishes.
    conn = socketlib.create_connection((host, port), timeout=10.0)
    reader = conn.makefile("r", encoding="utf-8")
    writer = conn.makefile("w", encoding="utf-8")
    writer.write(json.dumps({"type": "hello", "worker": "doomed"}) + "\n")
    writer.flush()
    assert json.loads(reader.readline())["type"] == "welcome"
    writer.write(json.dumps({"type": "next"}) + "\n")
    writer.flush()
    assert json.loads(reader.readline())["type"] == "run"
    # Mid-run death: shutdown forces the FIN out even though the
    # makefile() wrappers still hold references to the socket.
    conn.shutdown(socketlib.SHUT_RDWR)
    reader.close()
    writer.close()
    conn.close()

    # A real worker joins afterwards and drains everything.
    run_worker(host, port, worker_name="survivor")
    thread.join(timeout=30.0)
    assert not thread.is_alive()
    return result_box["result"]


class TestWorkerDisconnect:
    def test_disconnect_requeues_warns_and_keeps_results_identical(self):
        serial = run_sweep(TOY, workers=1)

        captured = []

        class _Capture(logging.Handler):
            def emit(self, record):
                captured.append(record)

        handler = _Capture(level=logging.WARNING)
        target = logging.getLogger("repro.sweep.distributed")
        target.addHandler(handler)
        addresses = []
        backend = SocketQueueBackend(
            local_workers=0, timeout=60.0, announce=addresses.append
        )
        try:
            with obs.enabled() as registry:
                result = _drain_with_doomed_worker(TOY, backend, addresses)
        finally:
            target.removeHandler(handler)

        assert result.to_json() == serial.to_json()
        stats = backend.worker_stats
        assert stats["requeues"] == 1
        assert stats["connects"] == 2
        assert stats["disconnects"] == 2
        assert stats["results"] == 2
        counters = registry.summary()["counters"]
        assert counters["coordinator.requeue"] == 1
        assert counters["coordinator.disconnects"] == 2
        warnings_seen = [
            record
            for record in captured
            if record.levelno == logging.WARNING
            and "re-queued" in record.getMessage()
        ]
        assert len(warnings_seen) == 1
        assert "doomed" in warnings_seen[0].getMessage()

    def test_clean_run_counts_results_without_requeues(self):
        backend = SocketQueueBackend(local_workers=1, timeout=60.0)
        run_sweep(TOY, backend=backend)
        stats = backend.worker_stats
        assert stats["results"] == 2
        assert stats["requeues"] == 0
        assert stats["connects"] == 1


# ---------------------------------------------------------------------------
# Half-open histogram buckets
# ---------------------------------------------------------------------------

class TestHalfOpenHistogram:
    def test_edge_values_land_in_bucket_above(self):
        from repro.obs.registry import Histogram

        histogram = Histogram(edges=(1.0, 10.0))
        for value in (0.5, 1.0, 9.99, 10.0, 50.0):
            histogram.observe(value)
        # [lo, hi): 1.0 belongs to [1, 10), 10.0 to the >=10 overflow.
        assert histogram.counts == [1, 2, 2]

    def test_direct_and_flush_delta_paths_agree_on_boundaries(self):
        from repro.obs.registry import Histogram
        from repro.obs.report import aggregate_trace

        values = (0.0, 1.0, 5.0, 10.0, 10.0)
        direct = Histogram(edges=(1.0, 10.0))
        for value in values:
            direct.observe(value)
        sink = obs.MemorySink()
        registry = obs.Telemetry(trace=sink)
        for value in values:
            registry.observe("lat", value, buckets=(1.0, 10.0))
        registry.close()
        merged = aggregate_trace(sink.records)["histograms"]["lat"]
        assert merged["counts"] == direct.counts == [1, 2, 2]

    def test_report_labels_spell_out_the_convention(self):
        from repro.obs.report import aggregate_trace, render_summary

        sink = obs.MemorySink()
        registry = obs.Telemetry(trace=sink)
        registry.observe("lat", 1.0, buckets=(1.0, 10.0))
        registry.observe("lat", 10.0, buckets=(1.0, 10.0))
        registry.close()
        text = render_summary(aggregate_trace(sink.records))
        assert "<10" in text
        assert ">=10" in text


# ---------------------------------------------------------------------------
# Rotation-safe tailing
# ---------------------------------------------------------------------------

class TestFollowTrace:
    def test_follow_loses_nothing_across_rotations(self, tmp_path):
        """The regression this guards: a byte-offset tail silently
        dropped every record between the last poll and a rotation."""
        path = str(tmp_path / "trace.jsonl")
        sink = obs.TraceSink(path, max_bytes=4096, backups=2)
        total = 60
        done = threading.Event()

        def write():
            for index in range(total):
                sink.write(
                    {
                        "type": "counter",
                        "name": "n",
                        "value": index,
                        "pad": "x" * 120,
                    }
                )
                sink.flush()
                time.sleep(0.002)
            sink.close()
            done.set()

        thread = threading.Thread(target=write)
        seen = []
        thread.start()
        try:
            for record in obs.follow_trace(
                path, poll_s=0.01, stop=done.is_set
            ):
                seen.append(record)
        finally:
            thread.join(timeout=10.0)
        values = [r["value"] for r in seen if r.get("type") == "counter"]
        assert values == list(range(total))  # nothing lost, nothing reordered
        assert os.path.exists(path + ".1")  # the file really rotated

    def test_follow_stops_cleanly_on_missing_then_created_file(self, tmp_path):
        path = str(tmp_path / "late.jsonl")
        done = threading.Event()

        def write():
            time.sleep(0.05)
            sink = obs.TraceSink(path)
            sink.write({"type": "counter", "name": "n", "value": 1})
            sink.close()
            done.set()

        thread = threading.Thread(target=write)
        seen = []
        thread.start()
        try:
            for record in obs.follow_trace(
                path, poll_s=0.01, stop=done.is_set
            ):
                seen.append(record)
        finally:
            thread.join(timeout=10.0)
        assert [
            r["value"] for r in seen if r.get("type") == "counter"
        ] == [1]
