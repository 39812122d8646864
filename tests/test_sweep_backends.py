"""Backend equivalence: serial, process pool, and socket queue.

The engine's core guarantee after the backend split: the same
``SweepConfig`` produces byte-identical rows on every backend,
including the cached-resume and campaign-serving paths.  Plus the
distributed specifics — external workers over real sockets, work
re-queued when a worker dies, worker-side cache writes.
"""

import json
import os
import socket as socketlib
import threading
import time
from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.network.routing import peek_cache
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
from repro.scenarios import spec as spec_module
from repro.scenarios import sweep as sweep_module
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.sweep import distributed
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


class TestOneBuildPerKey:
    """What the end-to-end benchmark reads off a sweep, on every backend.

    ``execute_run`` makes one ``instantiate`` call per row (the
    benchmark times those calls as set-up and reads one instance per
    sink row), but a key builds its scenario once: the second call
    gets the spare clone of the first, in the same thread.  Every row's
    instance is its own, with its own network and path cache.  Calls
    are logged to a file so forked pool workers report too.
    """

    CONFIG = SweepConfig(
        scenarios=("toy-triangle", "metro-mesh-uniform"),
        grid={},
        seeds=(0, 1),
    )

    @pytest.fixture
    def calls(self, monkeypatch, tmp_path):
        path = tmp_path / "calls.jsonl"
        instantiate = ScenarioSpec.instantiate
        build = ScenarioSpec._build
        kept = []

        def log(what, spec, seed, **extra):
            line = {
                "what": what,
                "key": [spec.name, seed],
                "worker": [os.getpid(), threading.get_ident()],
                **extra,
            }
            fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, (json.dumps(line) + "\n").encode())
            finally:
                os.close(fd)

        def counted_instantiate(self, params=None, *, seed=0):
            instance = instantiate(self, params, seed=seed)
            kept.append(instance)  # ids stay unique while all are alive
            log(
                "call", self, seed,
                instance=id(instance),
                network=id(instance.network),
                cold=peek_cache(instance.network) is None,
            )
            return instance

        def counted_build(self, merged, seed):
            log("build", self, seed)
            return build(self, merged, seed)

        monkeypatch.setattr(ScenarioSpec, "instantiate", counted_instantiate)
        monkeypatch.setattr(ScenarioSpec, "_build", counted_build)
        # A spare left by an earlier test would serve a first call.
        spec_module._SPARE.instance = None

        def read():
            return kept, [json.loads(line) for line in path.read_text().splitlines()]

        return read

    def check(self, result, records):
        runs = len(self.CONFIG.scenarios) * len(self.CONFIG.seeds)
        made = [r for r in records if r["what"] == "call"]
        builds = Counter(tuple(r["key"]) for r in records if r["what"] == "build")
        assert len(made) == len(result.rows) == 2 * runs
        assert len(builds) == runs and set(builds.values()) == {1}
        workers = {}
        for record in made:
            workers.setdefault(tuple(record["key"]), set()).add(tuple(record["worker"]))
        assert all(len(seen) == 1 for seen in workers.values())
        for field in ("instance", "network"):
            owned = {(r["worker"][0], r[field]) for r in made}
            assert len(owned) == len(made), f"two rows shared one {field}"
        assert all(r["cold"] for r in made)

    def check_caches(self, kept):
        caches = [peek_cache(instance.network) for instance in kept]
        assert all(cache is not None for cache in caches)
        assert len({id(cache) for cache in caches}) == len(kept)

    def test_serial(self, calls):
        result = run_sweep(self.CONFIG, backend=SerialBackend())
        kept, records = calls()
        self.check(result, records)
        self.check_caches(kept)

    def test_pool(self, calls):
        result = run_sweep(self.CONFIG, backend=ProcessPoolBackend(2))
        _kept, records = calls()
        self.check(result, records)

    def test_socket(self, calls):
        result = run_sweep(self.CONFIG, backend=socket_backend())
        kept, records = calls()
        self.check(result, records)
        self.check_caches(kept)


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

    def test_late_local_worker_error_after_last_result(self, monkeypatch):
        # One local worker drains every run; the other only starts once
        # the coordinator has every result and then meets a reset
        # connection, as a hello to the closed server would.
        coordinators = []

        class Recording(distributed._Coordinator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                coordinators.append(self)

        real_worker = distributed.run_worker

        def worker(host, port, *, worker_name=None, **kwargs):
            if worker_name == "local-0":
                return real_worker(
                    host, port, worker_name=worker_name, **kwargs
                )
            deadline = time.monotonic() + 60.0
            while not (coordinators and coordinators[0].finished):
                assert time.monotonic() < deadline, "the sweep never finished"
                time.sleep(0.01)
            raise ConnectionResetError("hello after the coordinator closed")

        monkeypatch.setattr(distributed, "_Coordinator", Recording)
        monkeypatch.setattr(distributed, "run_worker", worker)
        serial = run_sweep(TOY_CONFIG, backend="serial")
        sock = run_sweep(TOY_CONFIG, backend=socket_backend())
        assert len(sock.rows) == len(serial.rows)
        assert sock.to_json() == serial.to_json()
        assert coordinators[0].failure is None


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
