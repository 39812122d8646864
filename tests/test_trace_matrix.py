"""Determinism matrix for the pinned trace + SRLG campaign.

The acceptance bar: one trace-replay campaign with forecast SRLG cuts
must produce byte-identical JSONL rows across every execution backend
(serial, process pool, socket queue).  The rows are pinned to the
committed golden file, so the matrix cannot drift as a group either.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.scenarios import (
    ProcessPoolBackend,
    SerialBackend,
    SocketQueueBackend,
    run_sweep,
)
from tests.test_golden_sweep import GOLDEN_SWEEPS

GOLDEN = (
    Path(__file__).resolve().parent / "golden" / "trace_srlg_campaign.jsonl"
)
CONFIG = GOLDEN_SWEEPS["trace_srlg_campaign"]

BACKENDS = {
    "serial": SerialBackend,
    "pool": lambda: ProcessPoolBackend(2),
    "socket": lambda: SocketQueueBackend(local_workers=2, timeout=120.0),
}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_trace_srlg_campaign_is_byte_identical(backend, tmp_path):
    produced = tmp_path / "rows.jsonl"
    run_sweep(CONFIG, backend=BACKENDS[backend](), jsonl_path=str(produced))
    assert produced.read_bytes() == GOLDEN.read_bytes(), (
        f"trace-srlg-campaign rows drifted on backend={backend}"
    )
