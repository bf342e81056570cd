"""Tests of the benchmark itself, at smoke size.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OPS_PER_PASS = {"large_solve": 7, "ring_sweep": 4, "pair_analytics": 6}
EXACT_COUNTS = (
    "spinchain.iterations",
    "spinchain.matvec_calls",
    "spinchain.matvec_bytes",
    "spinchain.cache_bytes_read",
    "spinchain.cache_bytes_written",
    "spinchain.cache_hit_ratio",
    "correlators.rdm_calls",
    "correlators.pair_corr_calls",
    "xstate.discord_calls",
    "xstate.ce_calls",
    "xstate.ce_points",
    "distribution.hist_calls",
    "distribution.samples",
    "scaling.points",
    "cli.bytes_out",
    "trace.spans",
)


def _run(workload, trace, seed=1, cwd=ROOT, script=None):
    cmd = [sys.executable, str(script or BENCH / "run.py"), "--smoke", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def runs():
    """Two traced runs with the same seed and one untraced smoke run of every workload."""
    out = {}
    for w in WORKLOADS:
        out[w] = [_run(w, 1), _run(w, 1), _run(w, 0)]
    return out


def _result(done):
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _detail(done):
    line = next(ln for ln in done.stdout.splitlines() if ln.startswith("detail "))
    return json.loads(line[len("detail "):])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(runs, workload):
    traced, _, untraced = runs[workload]
    for done, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        metrics = _result(done)["metrics"]
        assert list(metrics) == [m["name"] for m in SPEC[section]]
        for m in SPEC[section]:
            value = metrics[m["name"]]
            assert set(value) == {"value", "unit"} and value["unit"] == m["unit"]
            assert math.isfinite(value["value"])
    assert all(m["value"] > 0 for m in _result(untraced)["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_output_checks_run_and_pass(runs, workload):
    for done in runs[workload]:
        result = _result(done)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] % OPS_PER_PASS[workload] == 0 and result["attempted"] > 0
        detail = _detail(done)
        assert detail["fail_ratio"]["attempted"] <= result["attempted"]
        if workload == "pair_analytics":
            assert "discord_closed_form_gap" in detail["known_defects"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(runs, workload):
    first, second, _ = runs[workload]
    a, b = _result(first)["metrics"], _result(second)["metrics"]
    for name in EXACT_COUNTS:
        assert a[name]["value"] == b[name]["value"], name


def test_layer_self_times_account_for_traced_wall_time(runs):
    layers = ["spinchain", "correlators", "xstate", "distribution", "scaling", "cli", "bench"]
    for w in WORKLOADS:
        m = _result(runs[w][0])["metrics"]
        total = sum(m[f"{layer}.self_s"]["value"] for layer in layers)
        assert total == pytest.approx(m["trace.wall_s"]["value"], rel=1e-6, abs=1e-9)


def test_fails_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("large_solve", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert not any(ln.startswith("{") for ln in done.stdout.splitlines())


def test_golden_comparison_catches_a_changed_value():
    golden = [[0.5, 1.0, 0.25, 1.8, "zero"], [1.0, 1.0, 0.3, 2.0, "zero"]]
    assert checks.compare_rows(golden, golden, {0: "key", 1: "key", 2: "value", 3: "k", 4: "basis"}, "t") == []
    changed = [[0.5, 1.0, 0.25 + 1e-8, 1.8, "zero"], [1.0, 1.0, 0.3, 2.0, "ninety"]]
    problems = checks.compare_rows(changed, golden, {0: "key", 1: "key", 2: "value", 3: "k", 4: "basis"}, "t")
    assert len(problems) == 1  # the discord change; the basis at k = 2 is a tie


def test_discord_bound_catches_an_overestimate():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from spindiscord import xstate

    rng = np.random.default_rng(0)
    states = [xstate.random_xstate(rng) for _ in range(50)]
    results = [xstate.discord(s) for s in states]
    assert checks.discord_bounds(states, results)[0] == []
    inflated = [r.__class__(**{**r.__dict__, "discord": r.discord + 1e-3}) for r in results]
    assert checks.discord_bounds(states, inflated)[0]


def test_mc_check_catches_a_shifted_mean():
    mc = {"n_samples": 10**6, "mean": 0.5, "variance": 0.01, "min_c": 0.2, "max_c": 0.9}
    assert checks.mc_vs_gauss(mc, 0.5, 0.01, "t") == []
    assert checks.mc_vs_gauss({**mc, "mean": 0.501}, 0.5, 0.01, "t")
