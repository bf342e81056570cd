"""The benchmark's smoke runs stay green.

`bench/run.py --smoke` runs every workload at N = 8/10 with tiny grids and
checks each operation against its golden.  Running it here keeps the
benchmark from rotting between the changes that record it.  The traced runs
(`--trace 1`) also put the tracer's hooks on the package under test: a
wrapped name the package no longer calls reads 0.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def bench_run(*args):
    done = subprocess.run(
        [sys.executable, "bench/run.py", *args, "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize(
    "workload, attempted",
    [("large_solve", 7), ("ring_sweep", 4), ("pair_analytics", 6)],
)
def test_smoke_run_is_correct(workload, attempted):
    result = bench_run("--workload", workload, "--trace", "0")
    assert result["attempted"] == attempted


@pytest.mark.parametrize(
    "workload, attempted",
    [("large_solve", 21), ("ring_sweep", 12), ("pair_analytics", 18)],
)
def test_traced_smoke_run_is_correct(workload, attempted):
    # an untraced and a traced pass, and the single-thread reference child's pass
    result = bench_run("--workload", workload, "--trace", "1")
    assert result["attempted"] == attempted
    if workload == "pair_analytics":
        assert result["metrics"]["scaling.closed_form_s"]["value"] > 0.0


def test_traced_pass_times_the_sector_builds():
    # the alternating run builds every sector in its untraced first pass; a
    # single traced pass builds them under the tracer
    result = bench_run("--workload", "large_solve", "--seconds", "0", "--trace", "1",
                       "--reference-child")
    assert result["metrics"]["spinchain.sector_s"]["value"] > 0.0
