"""Backend equivalence: serial, process pool, and socket queue.

The engine's core guarantee after the backend split: the same
``SweepConfig`` produces byte-identical rows on every backend,
including the cached-resume and campaign-serving paths.  Plus the
distributed specifics — external workers over real sockets, work
re-queued when a worker dies, worker-side cache writes.
"""

import json
import socket as socketlib
import threading

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    ProcessPoolBackend,
    RunKey,
    SerialBackend,
    SocketQueueBackend,
    SweepConfig,
    run_sweep,
    run_worker,
)
from repro.scenarios.sweep import OrderedRecorder, resolve_backend
from repro.scenarios import sweep as sweep_module
from tests.oracle import object_oracle

TOY_CONFIG = SweepConfig(
    scenarios=("toy-triangle",),
    grid={"demand_gbps": [5.0, 10.0]},
    seeds=(0, 1),
)

CAMPAIGN_CONFIG = SweepConfig(
    scenarios=("toy-triangle",),
    grid={"demand_gbps": [5.0, 10.0]},
    seeds=(0,),
    serving="campaign",
)


def socket_backend(workers=2, timeout=120.0):
    return SocketQueueBackend(local_workers=workers, timeout=timeout)


class TestBackendEquivalence:
    def test_all_backends_byte_identical(self):
        serial = run_sweep(TOY_CONFIG, backend=SerialBackend())
        pool = run_sweep(TOY_CONFIG, backend=ProcessPoolBackend(2))
        sock = run_sweep(TOY_CONFIG, backend=socket_backend())
        assert serial.to_json() == pool.to_json()
        assert serial.to_json() == sock.to_json()

    def test_backend_names_accepted(self):
        serial = run_sweep(TOY_CONFIG, backend="serial")
        sock = run_sweep(TOY_CONFIG, backend="socket", workers=2)
        assert serial.to_json() == sock.to_json()

    def test_campaign_serving_identical_across_backends(self):
        serial = run_sweep(CAMPAIGN_CONFIG, backend="serial")
        pool = run_sweep(CAMPAIGN_CONFIG, backend=ProcessPoolBackend(2))
        sock = run_sweep(CAMPAIGN_CONFIG, backend=socket_backend())
        assert serial.to_json() == pool.to_json()
        assert serial.to_json() == sock.to_json()
        assert all("makespan_ms" in row for row in serial.rows)
        assert all(row["serving"] == "campaign" for row in serial.rows)

    def test_cached_resume_identical_across_backends(self, tmp_path, monkeypatch):
        cache = str(tmp_path / "cache")
        first = run_sweep(TOY_CONFIG, backend="serial", cache_dir=cache)

        def boom(key):
            raise AssertionError(f"cache miss for {key}")

        monkeypatch.setattr(sweep_module.engine, "execute_run", boom)
        monkeypatch.setattr(sweep_module, "execute_run", boom)
        for backend in (SerialBackend(), ProcessPoolBackend(2), socket_backend()):
            again = run_sweep(TOY_CONFIG, backend=backend, cache_dir=cache)
            assert first.to_json() == again.to_json()

    def test_partial_cache_socket_computes_only_missing(self, tmp_path):
        cache = str(tmp_path / "cache")
        small = SweepConfig(
            scenarios=("toy-triangle",), grid={"demand_gbps": [5.0]}, seeds=(0,)
        )
        run_sweep(small, cache_dir=cache)
        full = run_sweep(TOY_CONFIG, backend=socket_backend(), cache_dir=cache)
        assert full.to_json() == run_sweep(TOY_CONFIG).to_json()


class TestRoutingCacheEquivalence:
    """The routing cache must be invisible in sweep output.

    A pinned resilience sweep (campaign serving, fault timeline, node
    and link failures, orchestrator pruning and repair) is the most
    cache-hostile path we have; rows must be byte-identical on every
    backend and equal to a serial run on the uncached object-kernel
    oracle (``tests/oracle.py``).
    """

    RESILIENCE_CONFIG = SweepConfig(
        scenarios=("metro-mesh-flaky-links",),
        grid={"n_tasks": [6], "n_sites": [8]},
        seeds=(0, 1),
    )

    def test_cached_and_uncached_rows_byte_identical(self):
        serial = run_sweep(self.RESILIENCE_CONFIG, backend=SerialBackend())
        pool = run_sweep(self.RESILIENCE_CONFIG, backend=ProcessPoolBackend(2))
        sock = run_sweep(self.RESILIENCE_CONFIG, backend=socket_backend())
        with object_oracle():
            oracle = run_sweep(self.RESILIENCE_CONFIG, backend=SerialBackend())
        assert serial.to_json() == pool.to_json()
        assert serial.to_json() == sock.to_json()
        assert serial.to_json() == oracle.to_json()


class TestSocketBackend:
    def test_external_worker_over_real_socket(self):
        """A worker joining via run_worker (the CLI path) drains the queue."""
        addr = {}
        ready = threading.Event()

        def announce(address):
            addr["value"] = address
            ready.set()

        backend = SocketQueueBackend(
            local_workers=0, timeout=120.0, announce=announce
        )
        results = {}

        def coordinate():
            results["result"] = run_sweep(TOY_CONFIG, backend=backend)

        coordinator = threading.Thread(target=coordinate)
        coordinator.start()
        assert ready.wait(timeout=30.0)
        host, port = addr["value"]
        executed = run_worker(host, port, worker_name="test-worker")
        coordinator.join(timeout=60.0)
        assert not coordinator.is_alive()
        assert executed == 4
        assert results["result"].to_json() == run_sweep(TOY_CONFIG).to_json()

    def test_worker_disconnect_requeues_run(self):
        """A worker that dies mid-run doesn't lose its key."""
        addr = {}
        ready = threading.Event()
        backend = SocketQueueBackend(
            local_workers=0,
            timeout=120.0,
            announce=lambda a: (addr.update(value=a), ready.set()),
        )
        results = {}

        def coordinate():
            results["result"] = run_sweep(TOY_CONFIG, backend=backend)

        coordinator = threading.Thread(target=coordinate)
        coordinator.start()
        assert ready.wait(timeout=30.0)
        host, port = addr["value"]

        # A flaky worker: checks out one run, then drops the connection.
        conn = socketlib.create_connection((host, port), timeout=10.0)
        reader = conn.makefile("r", encoding="utf-8")
        writer = conn.makefile("w", encoding="utf-8")
        writer.write(json.dumps({"type": "hello", "worker": "flaky"}) + "\n")
        writer.flush()
        assert json.loads(reader.readline())["type"] == "welcome"
        writer.write(json.dumps({"type": "next"}) + "\n")
        writer.flush()
        assert json.loads(reader.readline())["type"] == "run"
        # shutdown() sends FIN immediately; close() alone would keep the
        # connection alive through the makefile() wrappers' references.
        conn.shutdown(socketlib.SHUT_RDWR)
        reader.close()
        writer.close()
        conn.close()

        # An honest worker finishes everything, stolen run included.
        executed = run_worker(host, port, worker_name="honest")
        coordinator.join(timeout=60.0)
        assert not coordinator.is_alive()
        assert executed == 4
        assert results["result"].to_json() == run_sweep(TOY_CONFIG).to_json()

    def test_workers_write_shared_cache(self, tmp_path):
        cache = str(tmp_path / "shared")
        run_sweep(
            TOY_CONFIG, backend=socket_backend(), cache_dir=cache
        )
        import os

        assert len(os.listdir(cache)) == 4

    def test_timeout_without_workers_raises(self):
        backend = SocketQueueBackend(local_workers=0, timeout=0.5)
        with pytest.raises(ConfigurationError, match="timed out"):
            run_sweep(TOY_CONFIG, backend=backend)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            SocketQueueBackend(local_workers=-1)
        with pytest.raises(ConfigurationError):
            SocketQueueBackend(timeout=0)


class TestServingOverride:
    def test_protocol_override_on_fault_scenario_rejected(self):
        config = SweepConfig(
            scenarios=("metro-mesh-flaky-links",), serving="protocol"
        )
        with pytest.raises(ConfigurationError, match="fault profile"):
            run_sweep(config)

    def test_invalid_serving_rejected(self):
        with pytest.raises(ConfigurationError, match="serving"):
            SweepConfig(scenarios=("toy-triangle",), serving="bogus")

    def test_matching_override_keeps_cache_identity(self):
        """serving that matches the spec's own mode must not change keys."""
        from repro.scenarios import expand_runs

        default = expand_runs(SweepConfig(scenarios=("fat-tree-bursty",)))
        explicit = expand_runs(
            SweepConfig(scenarios=("fat-tree-bursty",), serving="campaign")
        )
        assert default == explicit
        assert all(key.serving is None for key in explicit)

    def test_changing_override_changes_token(self):
        base = RunKey.make("s", {"a": 1}, 0)
        overridden = RunKey.make("s", {"a": 1}, 0, serving="campaign")
        assert base.token() != overridden.token()
        assert "serving" not in json.loads(base.canonical())


class TestBackendResolution:
    def test_default_derivation(self):
        assert isinstance(resolve_backend(None, workers=1), SerialBackend)
        assert isinstance(resolve_backend(None, workers=4), ProcessPoolBackend)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            resolve_backend("quantum")

    def test_non_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend(42)


class TestOrderedRecorder:
    def test_out_of_order_emissions_flush_in_order(self):
        keys = [RunKey.make("s", {"i": i}, 0) for i in range(3)]
        seen = []
        recorder = OrderedRecorder(keys, lambda k, rows: seen.append(k))
        recorder.emit(keys[2], [])
        recorder.emit(keys[0], [])
        recorder.emit(keys[1], [])
        recorder.check_complete()
        assert seen == keys

    def test_duplicate_emission_ignored(self):
        keys = [RunKey.make("s", {}, 0)]
        seen = []
        recorder = OrderedRecorder(keys, lambda k, rows: seen.append(rows))
        recorder.emit(keys[0], [{"a": 1}])
        recorder.emit(keys[0], [{"a": 2}])
        recorder.check_complete()
        assert seen == [[{"a": 1}]]

    def test_unknown_key_rejected(self):
        recorder = OrderedRecorder([RunKey.make("s", {}, 0)], lambda k, r: None)
        with pytest.raises(ConfigurationError, match="never submitted"):
            recorder.emit(RunKey.make("other", {}, 0), [])

    def test_incomplete_batch_detected(self):
        keys = [RunKey.make("s", {"i": i}, 0) for i in range(2)]
        recorder = OrderedRecorder(keys, lambda k, r: None)
        recorder.emit(keys[1], [])
        with pytest.raises(ConfigurationError, match="without reporting"):
            recorder.check_complete()
