"""The benchmark's smoke runs stay green.

`bench/run.py --smoke` runs every workload at N = 8/10 with tiny grids and
checks each operation against its golden.  Running it here keeps the
benchmark from rotting between the changes that record it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "workload, attempted",
    [("large_solve", 7), ("ring_sweep", 4), ("pair_analytics", 6)],
)
def test_smoke_run_is_correct(workload, attempted):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--smoke", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == attempted
