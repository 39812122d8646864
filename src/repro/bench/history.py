"""The benchmark trajectory: machine-tagged ``BENCH_HISTORY.jsonl`` records.

One :func:`run <repro.bench.runner.run_suites>` appends exactly one
record — a single JSON line — so the file is a time series of every
benchmark invocation ever made, mergeable across machines and trivially
greppable::

    {"schema": 1, "timestamp": "...", "host": ..., "python": ...,
     "cpu_count": ..., "git_sha": ..., "machine_class": "reference",
     "smoke": false, "suites": {"scheduler": {...}, ...}}
"""

from __future__ import annotations

import datetime as _datetime
import json
import os
import platform
import socket
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..errors import ConfigurationError

#: Canonical trajectory file name, at the repo root.
HISTORY_FILENAME = "BENCH_HISTORY.jsonl"

#: Environment knob naming the hardware class floors are scaled for.
MACHINE_CLASS_ENV = "REPRO_BENCH_MACHINE_CLASS"

RECORD_SCHEMA = 1


def repo_root() -> Path:
    """The checkout root (parent of ``src/``); cwd as a fallback."""
    root = Path(__file__).resolve().parents[3]
    return root if (root / "src").is_dir() else Path.cwd()


def default_history_path() -> str:
    return str(repo_root() / HISTORY_FILENAME)


def git_sha(root: Optional[Path] = None) -> Optional[str]:
    """Short HEAD SHA of the checkout, or None outside a git repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(root or repo_root()),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def machine_class() -> str:
    """The hardware class verify floors are scaled for (env override)."""
    return os.environ.get(MACHINE_CLASS_ENV, "reference")


def machine_tag() -> Dict[str, Any]:
    """Who/what/when for one benchmark invocation."""
    return {
        "timestamp": _datetime.datetime.now(_datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "machine_class": machine_class(),
    }


def make_record(
    suites: Dict[str, Dict[str, Any]],
    *,
    smoke: bool,
    telemetry: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """A complete history record for one run's per-suite metrics.

    Args:
        suites: per-suite metrics dicts, keyed by suite name.
        smoke: whether this was a smoke (shrunk-grid) run.
        telemetry: optional :meth:`repro.obs.Telemetry.summary` roll-up
            of the run itself — where the runner's wall time went.
    """
    record: Dict[str, Any] = {"schema": RECORD_SCHEMA}
    record.update(machine_tag())
    record["smoke"] = bool(smoke)
    record["suites"] = suites
    if telemetry is not None:
        record["telemetry"] = telemetry
    return record


def append_record(path: str, record: Dict[str, Any]) -> None:
    """Append one record as one JSON line (creating the file if needed)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True, default=str))
        handle.write("\n")


def read_history(path: str) -> List[Dict[str, Any]]:
    """Every record in the trajectory file, oldest first.

    Blank lines are tolerated (hand edits); a malformed line raises with
    its line number — silent skips would hide lost trajectory points.
    """
    if not os.path.exists(path):
        return []
    records: List[Dict[str, Any]] = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ConfigurationError(
                    f"{path}:{number}: malformed history record: {exc}"
                ) from exc
            if not isinstance(record, dict) or "suites" not in record:
                raise ConfigurationError(
                    f"{path}:{number}: history record has no 'suites' field"
                )
            records.append(record)
    return records
