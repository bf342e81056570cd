"""The forked solver worker of cold Δ sweeps: same bytes, same failures, no process left."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spindiscord import cli, spinchain
from spindiscord.spinchain import cache_path, ground_state, ground_states

SRC = Path(__file__).resolve().parents[1] / "src"
# a grid per ring size whose misses fill two lockstep blocks or more: the
# sector's width is 195 at N = 8, 39 at N = 12, 5 at N = 16 and 1 at N = 18
GRIDS = {8: "0:3.99:0.01", 12: "-0.9:3:0.025", 16: "-0.9:2:0.1", 18: "0:2:0.25"}
FIGURES = {
    "fig2": ["--delta-range"],
    "fig3": ["--rs", "1,2,4", "--delta-range"],
    "fig4": ["--delta-range"],
    "fig6": ["--quadrature", "32x32", "--delta-range"],
}
FAIL_DELTAS = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]


@pytest.fixture(autouse=True)
def no_process_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def cpus(monkeypatch, count):
    """Let the solver see `count` CPUs in this process's affinity."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def forks(monkeypatch):
    """The `os.fork` calls of the test, counted in this process."""
    calls, real = [], os.fork

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counting)
    return calls


def fig(tmp_path, name, argv):
    out, cache = tmp_path / f"{name}.csv", tmp_path / name
    code = cli.main(argv + ["--cache-dir", str(cache), "--out", str(out), "--deterministic"])
    return code, out, cache


def in_one_process(monkeypatch, predicate, real):
    """`apply_hamiltonian` that first sleeps 0.3 s in the processes `predicate` picks.

    The sleep lets the other process claim its blocks first, so that a test
    knows which process solves which Δ.
    """
    parent, slept = os.getpid(), []

    def matvec(basis, deltas, psi):
        if not slept and predicate(os.getpid() == parent):
            slept.append(1)
            time.sleep(0.3)
        return real(basis, deltas, psi)

    monkeypatch.setattr(spinchain, "apply_hamiltonian", matvec)


class TestSameBytes:
    @pytest.mark.parametrize("n_sites", sorted(GRIDS))
    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_one_cpu_and_two_write_the_same_files(self, monkeypatch, tmp_path, forks, name,
                                                  n_sites):
        argv = [name, "--n", str(n_sites)] + FIGURES[name] + [GRIDS[n_sites]]
        runs = []
        for count in (1, 2):
            cpus(monkeypatch, count)
            code, out, cache = fig(tmp_path / f"cpus{count}", name, argv)
            assert code == 0
            runs.append((out.read_bytes(), {p.name: p.read_bytes() for p in cache.iterdir()}))
        assert len(forks) == 1  # the two-CPU run forked, the one-CPU run did not
        (one_csv, one_cache), (two_csv, two_cache) = runs
        assert one_csv == two_csv
        assert one_cache == two_cache
        assert len(one_cache) >= 2 * spinchain._momentum_sector(n_sites).width

    def test_a_warm_sweep_forks_no_worker(self, monkeypatch, tmp_path, forks):
        cpus(monkeypatch, 2)
        deltas = [0.1 * k for k in range(12)]
        cold = list(ground_states(18, deltas, cache_dir=tmp_path))
        warm = list(ground_states(18, deltas, cache_dir=tmp_path))
        assert len(forks) == 1
        assert [state.iterations for state in cold] == [
            ground_state(18, d).iterations for d in deltas]
        assert all(state.iterations == 0 for state in warm)

    @pytest.mark.parametrize("n_sites, misses", [(12, 77), (22, 3)])
    def test_no_worker_below_two_blocks_or_above_the_cap(self, monkeypatch, forks, n_sites, misses):
        """Width 39 at N = 12 takes 78 misses; N = 22 is above the cap."""
        cpus(monkeypatch, 2)
        list(ground_states(n_sites, [0.5 + 0.01 * k for k in range(misses)]))
        assert forks == []


class TestFailures:
    @pytest.mark.parametrize("share, failing", [("worker", 1), ("parent", 7)])
    def test_a_convergence_error_leaves_its_predecessors(
        self, monkeypatch, tmp_path, forks, spoil_first_check, share, failing
    ):
        """Δ = FAIL_DELTAS[failing] needs a third cycle and has none, in either process's share.

        Every Δ here converges in its second cycle at N = 18, and a spoiled
        explicit check costs one more.  The worker claims from the front, so
        it solves Δ[1] while this process sleeps; this process claims from
        the back, so it solves the last Δ while the worker sleeps.
        """
        cpus(monkeypatch, 2)
        delta = FAIL_DELTAS[failing]
        spoil_first_check(delta, ground_state(18, delta).iterations)
        in_one_process(monkeypatch, lambda parent: parent == (share == "worker"),
                       spinchain.apply_hamiltonian)
        solver, inner = [], spinchain.apply_hamiltonian

        def recording(basis, deltas, psi):
            if delta in list(deltas):
                solver.append(os.getpid())
            return inner(basis, deltas, psi)

        monkeypatch.setattr(spinchain, "_MAX_CYCLES", 2)
        monkeypatch.setattr(spinchain, "apply_hamiltonian", recording)
        code, out, cache = fig(tmp_path, "fig3", ["fig3", "--n", "18", "--rs", "1",
                                                   "--delta-range", "0:1.75:0.25"])
        assert code == 2
        assert len(forks) == 1
        lines = out.read_text().splitlines()
        assert [float(line.split(",")[0]) for line in lines[1:-1]] == FAIL_DELTAS[:failing]
        assert lines[-1] == "# INCOMPLETE"
        assert {p.name for p in cache.iterdir()} == {
            cache_path(cache, 18, 9, d).name for d in FAIL_DELTAS[:failing]}
        if share == "parent":  # the worker's Δ are recorded in its own copy of `solver`
            assert solver and set(solver) == {os.getpid()}
        else:
            assert solver == []

    def test_a_worker_that_dies_mid_block_fails_that_delta(self, monkeypatch, tmp_path, capsys,
                                                           forks):
        cpus(monkeypatch, 2)
        parent, real = os.getpid(), spinchain.apply_hamiltonian

        def dying(basis, deltas, psi):
            if os.getpid() != parent and 0.5 in list(deltas):
                os._exit(3)
            return real(basis, deltas, psi)

        in_one_process(monkeypatch, lambda in_parent: in_parent, dying)
        code, out, cache = fig(tmp_path, "fig3", ["fig3", "--n", "18", "--rs", "1",
                                                   "--delta-range", "0:1.75:0.25"])
        assert code == 2
        assert len(forks) == 1
        err = capsys.readouterr().err
        assert err == ("numerical failure: the solver worker exited with status 3 while "
                       "solving delta=0.5\n")
        lines = out.read_text().splitlines()
        assert [float(line.split(",")[0]) for line in lines[1:-1]] == [0.0, 0.25]
        assert lines[-1] == "# INCOMPLETE"
        assert {p.name for p in cache.iterdir()} == {
            cache_path(cache, 18, 9, d).name for d in (0.0, 0.25)}

    def test_a_sweep_closed_after_its_first_state(self, monkeypatch, tmp_path, forks):
        cpus(monkeypatch, 2)
        sweep = ground_states(18, FAIL_DELTAS, cache_dir=tmp_path)
        assert next(sweep).delta == 0.0
        sweep.close()
        assert len(forks) == 1
        assert cache_path(tmp_path, 18, 9, 0.0).exists()


def test_the_cli_import_loads_only_what_the_package_names():
    """`import spindiscord.cli` loads no module beyond what numpy and these stdlib imports load.

    They are the package's top-level stdlib imports but `pickle` and
    `threading`, which numpy loads.  `signal`, which the sweep worker
    imports when it forks, stays out.
    """
    named = ("__future__, numpy, argparse, cmath, dataclasses, datetime, enum, functools, json, "
             "math, os, pathlib, struct, sys, typing, zlib")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import {}; "
            "print(' '.join(sorted(sys.modules)))")
    modules = [set(subprocess.run([sys.executable, "-c", code.format(names), str(SRC)],
                                  capture_output=True, text=True, check=True).stdout.split())
               for names in (named, "spindiscord.cli")]
    assert {m for m in modules[1] - modules[0] if m.split(".")[0] != "spindiscord"} == set()
    assert "signal" not in modules[1]
