"""The byte contract: benchmark pool entries, replayed through
``perfbench/workloads.py`` (set-up plus record), must reproduce the
digests committed in ``perfbench/golden.json``.

The digests cover the wire bytes of tracks and detections, the score
totals, the tuned thresholds, the converted PPM and every NCC-densified
track, so a change that moves any of them fails here and in tier-1.
Every pool entry of every workload is replayed, one at a time in its own
directory, which is removed once its digests match.
"""

from __future__ import annotations

import json
import shutil
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
    for key in workload.pool_keys():
        workdir = tmp_path / key
        workdir.mkdir()
        state = workload.setup([key], workdir, None)
        assert workload.record(state) == {key: GOLDEN[name][key]}
        shutil.rmtree(workdir)
