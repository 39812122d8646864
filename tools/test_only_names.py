"""List code under ``src/`` that nothing else under ``src/`` refers to.

A function, method or class that is defined once under ``src/`` and
whose name appears nowhere else there is either dead or kept alive only
by tests, examples or benchmarks.  Each such name must be listed in
:data:`KEEP` with the reason it stays; any other one fails the check::

    python3 tools/test_only_names.py          # exit 1 on an unlisted name
    python3 tools/test_only_names.py --all    # print every such name

A name counts as referenced when it appears under ``src/`` as a bare
name, an attribute or a string constant (``getattr`` look-ups, option
tables) outside its own definition.  Imports and ``__all__`` entries do
not count: re-exporting a name is not using it.  Dunder methods are
never listed (the interpreter calls them).
"""

from __future__ import annotations

import ast
import os
import sys
from collections import Counter, defaultdict
from typing import Dict, Iterator, List, Set, Tuple

#: name -> why it stays although no other code under src/ refers to it.
KEEP: Dict[str, str] = {
    # Part of the end-to-end benchmark's frozen contract.
    "reservations": "Link.reservations is read by the frozen benchmark contract",
    # Used by examples/.
    "NetworkMonitor": "examples/ drive the periodic network monitor",
    "pessimistic_ms": "examples/ print the predictor's pessimistic bound",
    "run_rounds": "examples/ run multi-round executions with feedback",
    "total_used_gbps": "examples/ report NetworkState.total_used_gbps",
    "OpticalSpineLeaf": "examples/ tour the optical spine-leaf fabric",
    "circuits": "examples/ list the spine-leaf fabric's live circuits",
    "leaf_of": "examples/ read the spine-leaf fabric's leaf mapping",
    "lit_channels": "examples/ read the spine-leaf lit channel count",
    "reconfigurations": "examples/ print the SDN reconfiguration count",
    "read_aggregates": "examples/ read the SQLite sink's running means",
    # Used by examples/ and benchmarks/.
    "run_scenario": "examples/ and benchmarks/ run one scenario campaign",
    "disabled": "examples/ and benchmarks/ scope telemetry off",
    # Used by benchmarks/.
    "bench_suite": "benchmarks/ register every suite with this decorator",
    "is_tree_based": "benchmarks/ classify schedules by shape",
    "node_utilisations": "benchmarks/ read per-node utilisation",
    "HopWeightSpec": "benchmarks/ route on hop counts",
    "build_topology": "benchmarks/ build registered families by name",
    # Test isolation: undo what a test registered.
    "clear_registry": "tests reset the bench suite registry between cases",
    "unregister": "tests remove the scenarios they registered",
    "unregister_family": "tests remove the topology families they registered",
    # Public state tests read in place of deleted helpers.
    "containers": "tests count placed containers from each server",
    "grooming": "tests release an underlay's demands on its grooming layer",
    "occupied": "tests read a link's lit channels",
    "flows": "tests read a traffic generator's live flows",
    # Open design question: which monitoring reads production keeps.
    "latest_snapshot": "open: does a production reader need the monitor's snapshots",
    "snapshot_count": "open: does a production reader need the monitor's snapshots",
    "max_utilisation": "open: does a production reader need NetworkState summaries",
    "hot_links": "open: does a production reader need NetworkState summaries",
    "rules_of": "open: does a production reader need per-task SDN rules",
    "rules_on": "open: does a production reader need per-device SDN rules",
    "total_rules": "open: does a production reader need the SDN rule count",
    # Read by the planned reservation invariant layer.
    "owner_total_gbps": "the planned invariant layer reads per-owner totals",
    "total_reserved_gbps": "the planned invariant layer reads the reserved total",
    # Behaviour question, not a deletion.
    "forget": "open: should campaigns drop a completed task's estimate",
    # The checked form of a one-test path production takes.
    "place": "Server.place tests capacity for callers that pick the server; deploy hosts first-fit's choice",
    # Only tests call these; candidates for the next deletion pass.
    "as_row": "next-pass candidate: only tests flatten a TaskReport",
    "disconnect": "next-pass candidate: only tests tear down a spine-leaf circuit",
    "column": "next-pass candidate: only tests read one result column",
    "Modulated": "next-pass candidate: only tests wrap a workload builder",
    "select_all": "next-pass candidate: only tests use the identity selection",
}


def _src_files(root: str) -> Iterator[str]:
    for directory, _, files in os.walk(os.path.join(root, "src")):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def _is_all(node: ast.AST) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else []
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def scan(root: str) -> List[Tuple[str, str, int]]:
    """``(name, path, line)`` of each once-defined, unreferenced name."""
    defined: Dict[str, List[Tuple[str, int]]] = defaultdict(list)
    used: Counter = Counter()
    for path in _src_files(root):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        skip: Set[int] = set()
        for node in ast.walk(tree):
            if _is_all(node):
                skip.update(id(inner) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                rel = os.path.relpath(path, root)
                defined[node.name].append((rel, node.lineno))
            elif isinstance(node, ast.Name):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in skip
            ):
                used[node.value] += 1
    found = []
    for name, sites in defined.items():
        if len(sites) != 1 or used[name]:
            continue
        if name.startswith("__") and name.endswith("__"):
            continue
        found.append((name, *sites[0]))
    return sorted(found, key=lambda item: (item[1], item[2]))


def main(argv: List[str]) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    found = scan(root)
    if "--all" in argv:
        for name, path, line in found:
            reason = KEEP.get(name, "NOT IN KEEP")
            print(f"{path}:{line}: {name} -- {reason}")
        return 0
    unlisted = [item for item in found if item[0] not in KEEP]
    for name, path, line in unlisted:
        print(
            f"{path}:{line}: {name} is referenced nowhere else in src/; "
            "delete it or add it to KEEP with a reason",
            file=sys.stderr,
        )
    stale = sorted(set(KEEP) - {name for name, _, _ in found})
    for name in stale:
        print(
            f"KEEP entry {name!r} matches no unreferenced name; remove it",
            file=sys.stderr,
        )
    print(f"{len(found)} unreferenced names, {len(unlisted)} not in KEEP")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
