.PHONY: test bench bench-smoke bench-csr bench-verify perfbench-smoke sink-digest test-only-names smoke sweep-smoke topo-smoke obs-smoke obs-collect-smoke traces-smoke examples-smoke properties all

# Tier-1: the full test suite (pyproject.toml supplies pythonpath/testpaths).
test:
	python -m pytest -q

# Full benchmark run through the unified harness: every registered
# suite asserts its shape, and one machine-tagged record is appended
# to BENCH_HISTORY.jsonl (see BASELINES.md).
bench:
	PYTHONPATH=src python -m repro.cli bench run

# The same suites with heavy workloads shrunk to seconds (what CI runs);
# the record is tagged smoke so verify skips the timing floors.
bench-smoke:
	PYTHONPATH=src python -m repro.cli bench run --smoke

# Gate the tracked per-suite floors against the newest history record.
bench-verify:
	PYTHONPATH=src python -m repro.cli bench verify

# The CSR routing-kernel suite alone (smoke workloads): N=200
# byte-identity against the object-kernel reference, throughput/hub-
# congestion probes, the vectorised-SSSP identity against the heap
# kernel (N=1000 scale-free and the 1,000-node ring), batched solves
# against per-source ones, batched background-flow injection against
# per-flow object Dijkstra, and the N=5000 scale-free build-and-schedule
# smoke, then the floor gate.  The record goes to a temporary history
# file, never to the tracked BENCH_HISTORY.jsonl.
bench-csr:
	history=$$(mktemp); \
	PYTHONPATH=src python -m repro.cli bench run --smoke --suite csr \
		--history $$history \
	&& PYTHONPATH=src python -m repro.cli bench verify --history $$history; \
	status=$$?; rm -f $$history; exit $$status

# A two-second traced pass of every end-to-end benchmark workload.  The
# traced run wraps named attributes of the package layer by layer, so a
# refactor that renames or deletes one of them fails here; the run's own
# per-round checks (byte-identical sinks, capacity, leaks) must pass too.
perfbench-smoke:
	python3 perfbench/run.py --workload all --seed 1 --seconds 2 --trace 1

# One SHA-256 per perfbench sink (three workloads, seeds 3 and 42, rounds
# 0-1, serial backend).  A change that must keep behaviour byte-identical
# prints the same twelve lines as its parent; pass a parent checkout's
# path to hash that one: python3 tools/sink_digest.py ../parent
sink-digest:
	python3 tools/sink_digest.py

# Fail when a function, method or class under src/ is referenced nowhere
# else in src/ and is not listed, with its reason, in the script's KEEP
# table: code that only tests call should not come back unnoticed.
test-only-names:
	python3 tools/test_only_names.py

# The hypothesis property suites under the derandomized CI profile.
properties:
	HYPOTHESIS_PROFILE=ci python -m pytest \
		tests/test_properties.py tests/test_routing_properties.py \
		tests/test_csr_vector.py tests/test_csr_point.py \
		tests/test_network_steiner.py tests/test_evaluation_properties.py \
		tests/test_ledger_properties.py tests/test_compute_properties.py \
		tests/test_control_plane_properties.py tests/test_instance_clone.py \
		tests/test_set_fuzz.py -q

# A fast end-to-end sanity pass over the scenario machinery.
smoke:
	PYTHONPATH=src python -m repro.cli scenarios list
	PYTHONPATH=src python -m repro.cli scenarios sweep toy-triangle \
		--set demand_gbps=5,10 --dry-run

# A tiny sweep executed for real on every backend + the SQLite sink, so
# a backend regression fails fast instead of only failing collect-only.
sweep-smoke:
	PYTHONPATH=src python -m repro.cli scenarios sweep toy-triangle \
		--set demand_gbps=5,10 --backend serial
	PYTHONPATH=src python -m repro.cli scenarios sweep toy-triangle \
		--set demand_gbps=5,10 --backend pool --workers 2
	PYTHONPATH=src python -m repro.cli scenarios sweep toy-triangle \
		--set demand_gbps=5,10 --backend socket --local-workers 2 \
		--timeout 120 --sink sqlite --sink-path .sweep-smoke.db
	PYTHONPATH=src python -m repro.cli scenarios sweep toy-triangle \
		--serving campaign --backend socket --local-workers 2 --timeout 120
	rm -f .sweep-smoke.db

# Telemetry smoke: the same tiny sweep with telemetry off and on (with
# tracing); the result-sink JSONL files must be byte-identical — the
# out-of-band guarantee, checked with cmp — and the trace must render
# through `repro obs report` / `repro obs tail`.
obs-smoke:
	PYTHONPATH=src python -m repro.cli scenarios sweep toy-triangle \
		--set demand_gbps=5,10 --jsonl .obs-smoke-off.jsonl
	PYTHONPATH=src python -m repro.cli --log-level debug scenarios sweep \
		toy-triangle --set demand_gbps=5,10 \
		--jsonl .obs-smoke-on.jsonl --trace .obs-smoke-trace.jsonl
	cmp .obs-smoke-off.jsonl .obs-smoke-on.jsonl
	PYTHONPATH=src python -m repro.cli obs report .obs-smoke-trace.jsonl \
		--by scheduler
	PYTHONPATH=src python -m repro.cli obs tail .obs-smoke-trace.jsonl -n 5
	rm -f .obs-smoke-off.jsonl .obs-smoke-on.jsonl .obs-smoke-trace.jsonl*

# Distributed-collection smoke: the same tiny sweep on the socket
# backend without and with --collect; cmp proves collection is
# out-of-band (result JSONL byte-identical), then the merged campaign
# trace must render through `repro obs analyze` and hold the default
# SLO watchdogs (`repro obs watch` exits non-zero on breach).
obs-collect-smoke:
	PYTHONPATH=src python -m repro.cli scenarios sweep toy-triangle \
		--set demand_gbps=5,10 --backend socket --local-workers 2 \
		--timeout 120 --jsonl .obs-collect-off.jsonl
	PYTHONPATH=src python -m repro.cli scenarios sweep toy-triangle \
		--set demand_gbps=5,10 --backend socket --local-workers 2 \
		--timeout 120 --jsonl .obs-collect-on.jsonl \
		--collect .obs-collect-trace.jsonl
	cmp .obs-collect-off.jsonl .obs-collect-on.jsonl
	PYTHONPATH=src python -m repro.cli obs analyze .obs-collect-trace.jsonl
	PYTHONPATH=src python -m repro.cli obs watch \
		--trace .obs-collect-trace.jsonl
	rm -f .obs-collect-off.jsonl .obs-collect-on.jsonl \
		.obs-collect-trace.jsonl*

# One tiny real sweep per new topology family (Waxman, oversubscribed
# Clos, both Rocketfuel ISP maps, the multi-region composite) plus the
# topologies CLI, so a generator regression fails fast in CI.
topo-smoke:
	PYTHONPATH=src python -m repro.cli topologies list
	PYTHONPATH=src python -m repro.cli topologies describe multi-metro-wan
	PYTHONPATH=src python -m repro.cli topologies build multi-metro-wan \
		--set n_regions=2 --set sites_per_region=3 --set backbone_routers=4
	PYTHONPATH=src python -m repro.cli scenarios sweep waxman-wan \
		--set n_tasks=2 --set n_routers=8
	PYTHONPATH=src python -m repro.cli scenarios sweep clos-oversub \
		--set n_tasks=2 --set oversubscription=1,4
	PYTHONPATH=src python -m repro.cli scenarios sweep isp-telstra \
		--set n_tasks=2
	PYTHONPATH=src python -m repro.cli scenarios sweep isp-ebone-pareto \
		--set n_tasks=2
	PYTHONPATH=src python -m repro.cli scenarios sweep multi-metro-wan \
		--set n_tasks=2 --set sites_per_region=3 --set backbone_routers=4 \
		--sink csv --sink-path .topo-smoke.csv
	PYTHONPATH=src python -m repro.cli scenarios sweep multi-metro-wan-flaky \
		--set n_tasks=2 --set sites_per_region=3 --set backbone_routers=4 \
		--set horizon_ms=20000
	rm -f .topo-smoke.csv

# Trace-workload smoke: synthesise the same MAWI-like trace twice (cmp
# proves the synthesiser is seed-stable), show it, replay it through the
# pinned trace+SRLG campaign twice (cmp proves the whole replay —
# arrivals, deadline columns, forecast drains, SRLG accounting — is
# byte-stable), and sweep the deadline scenario once for the columns.
# A long-horizon leg (400 trace epochs, ~500 fault events per run) then
# replays on the serial and pool backends and cmp proves the fault
# handlers decide identically at a task-history length where a
# per-owner history scan would dominate.
traces-smoke:
	PYTHONPATH=src python -m repro.cli traces synth .traces-smoke-a.json \
		--seed 3 --epochs 12
	PYTHONPATH=src python -m repro.cli traces synth .traces-smoke-b.json \
		--seed 3 --epochs 12
	cmp .traces-smoke-a.json .traces-smoke-b.json
	PYTHONPATH=src python -m repro.cli traces show .traces-smoke-a.json
	PYTHONPATH=src python -m repro.cli scenarios sweep trace-srlg-campaign \
		--set trace_epochs=8 --jsonl .traces-smoke-a.jsonl
	PYTHONPATH=src python -m repro.cli scenarios sweep trace-srlg-campaign \
		--set trace_epochs=8 --jsonl .traces-smoke-b.jsonl
	cmp .traces-smoke-a.jsonl .traces-smoke-b.jsonl
	PYTHONPATH=src python -m repro.cli scenarios sweep interdc-deadlines \
		--set n_tasks=4
	PYTHONPATH=src python -m repro.cli scenarios sweep trace-srlg-campaign \
		--set trace_epochs=400 --set horizon_ms=320000 --seeds 0,1 \
		--backend serial --jsonl .traces-smoke-long-serial.jsonl
	PYTHONPATH=src python -m repro.cli scenarios sweep trace-srlg-campaign \
		--set trace_epochs=400 --set horizon_ms=320000 --seeds 0,1 \
		--backend pool --workers 2 --jsonl .traces-smoke-long-pool.jsonl
	cmp .traces-smoke-long-serial.jsonl .traces-smoke-long-pool.jsonl
	rm -f .traces-smoke-a.json .traces-smoke-b.json \
		.traces-smoke-a.jsonl .traces-smoke-b.jsonl \
		.traces-smoke-long-serial.jsonl .traces-smoke-long-pool.jsonl

# Every runnable walkthrough under examples/, so an API change that breaks
# one fails here; reproduce_figures.py writes examples/results/, which is
# removed afterwards.
examples-smoke:
	set -e; for example in examples/*.py; do \
		echo "== $$example"; PYTHONPATH=src python $$example > /dev/null; \
	done
	rm -rf examples/results

all: test bench
