"""Frozen per-round logs of the blob benchmark.

``tests/golden/blob_seed0_<arm>.csv`` is the ``write_round_log`` output of
the seed-0 blob benchmark run of each arm.  A refactor must reproduce every
byte; only a deliberate behaviour change may rewrite these files, and its
change note must say so.
"""

from pathlib import Path

import pytest

from fedcoreset.metrics import write_round_log
from fedcoreset.presets import BLOB_BENCHMARK_ARMS

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("arm", [a.label for a in BLOB_BENCHMARK_ARMS])
def test_blob_round_log_matches_golden(benchmark_runs, arm, tmp_path):
    path = tmp_path / f"{arm}.csv"
    write_round_log(str(path), benchmark_runs[0][arm].rounds)
    assert path.read_bytes() == (GOLDEN / f"blob_seed0_{arm}.csv").read_bytes()
