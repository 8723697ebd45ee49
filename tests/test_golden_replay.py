"""The byte contract: one pool entry of each benchmark workload, replayed
through ``perfbench/workloads.py`` (set-up plus record), must reproduce the
digests committed in ``perfbench/golden.json``.

The digests cover the wire bytes of tracks and detections, the score
totals, the tuned thresholds, the converted PPM and every NCC-densified
track, so a change that moves any of them fails here and in tier-1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pool_entry_matches_golden(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    key = workload.pool_keys()[0]
    state = workload.setup([key], tmp_path, None)
    assert workload.record(state) == {key: GOLDEN[name][key]}
