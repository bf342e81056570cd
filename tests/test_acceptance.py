"""Acceptance gate: one test per numbered release criterion.

Each test prints a single pass/fail line so a plain pytest run doubles as a
checklist.  Tolerances are part of the contract and must not be loosened.
"""

import cmath
import functools
import math
import time

import numpy as np
import pytest
from pytest import approx

from spindiscord import cli
from spindiscord.correlators import (
    discord_isotropic,
    discord_profile_vs_delta,
    discord_symmetric,
    k_ratio,
    pair_correlations,
    pair_state_sweep,
    two_site_rdm,
)
from spindiscord.distribution import AngleGrid, GaussGrid, sample_distribution
from spindiscord.scaling import PairKind, normalized_discord_curve
from spindiscord.spinchain import ground_state
from spindiscord.xstate import OptimalTheta, XState, discord, random_xstate

from oracles import dense_spectrum_oracle, discord_grid_verify, find_peaks, pure_state_discord


def criterion(number, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL  {label}")
                raise
            print(f"criterion {number}: PASS  {label}")

        return wrapper

    return deco


def delta_grid(start, stop, step):
    count = int(round((stop - start) / step)) + 1
    return [round(start + i * step, 10) for i in range(count)]


@criterion(1, "closed-form discord vs brute-force grid")
def test_criterion_1_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816)
    for _ in range(1000):
        *_, discrepancy = discord_grid_verify(random_xstate(rng), 181, 360)
        assert discrepancy <= 5e-3

    for _ in range(50):
        chi = rng.uniform(0.05, math.pi / 2 - 0.05)
        phase = cmath.exp(2j * math.pi * rng.uniform())
        a, d = math.cos(chi), math.sin(chi)
        p, expected = pure_state_discord(a, 0.0, 0.0, d * phase)
        inner = XState(a * a, d * d, 0.0, 0.0, 0.0, a * d * phase)
        outer = XState(0.0, 0.0, a * a, d * d, a * d * phase, 0.0)
        assert discord(inner).discord == approx(expected, abs=1e-9)
        assert discord(outer).discord == approx(expected, abs=1e-9)

    for _ in range(50):
        diag = rng.dirichlet(np.ones(4))
        state = XState(diag[0], diag[1], diag[2], diag[3], 0.0, 0.0)
        assert discord(state).discord == approx(0.0, abs=1e-12)

    assert time.perf_counter() - t0 < 60.0


@criterion(2, "solver energies vs dense oracle and sum rules")
def test_criterion_2_solver(solve):
    t0 = time.perf_counter()
    for n in (4, 6, 8, 10, 12):
        for delta in (0.0, 0.5, 1.0, 2.0):
            gs = solve(n, delta)
            exact = dense_spectrum_oracle(n, delta)[0]
            assert gs.energy == approx(exact, abs=1e-8)

    gs = solve(4, 1.0)
    assert gs.energy == approx(-2.0, abs=1e-10)
    assert pair_correlations(gs, 1, 2).gamma_d == approx(-1.0 / 6.0, abs=1e-10)
    assert pair_correlations(gs, 1, 3).gamma_d == approx(1.0 / 12.0, abs=1e-10)
    assert time.perf_counter() - t0 < 60.0


@criterion(3, "isotropic point: k = 2 and closed-form pipeline match")
def test_criterion_3_isotropy(solve):
    for n in (8, 12, 16):
        gs = solve(n, 1.0)
        for r in range(1, n // 2 + 1):
            assert k_ratio(gs, r) == approx(2.0, abs=1e-9)
            pipeline = discord(two_site_rdm(gs, 1, 1 + r)).discord
            closed = discord_isotropic(pair_correlations(gs, 1, 1 + r).gamma_d)
            assert pipeline == approx(closed, abs=1e-9)


@criterion(4, "measurement basis flips across the isotropic point")
def test_criterion_4_basis_switch(solve):
    for r in (1, 3):
        assert k_ratio(solve(12, 0.5), r) > 2.0
        assert k_ratio(solve(12, 1.5), r) < 2.0
        below = discord(two_site_rdm(solve(12, 0.5), 1, 1 + r)).chosen_theta
        above = discord(two_site_rdm(solve(12, 1.5), 1, 1 + r)).chosen_theta
        assert below is OptimalTheta.NINETY
        assert above is OptimalTheta.ZERO


@criterion(5, "discord kink at the isotropic point; zero in the polarized phase")
def test_criterion_5_kink():
    grid = delta_grid(0.0, 2.0, 0.05)
    rows = discord_profile_vs_delta(pair_state_sweep(12, grid, [1]))
    values = [row.discord for row in rows]
    i_iso = grid.index(1.0)

    second = [
        abs(values[i + 1] - 2.0 * values[i] + values[i - 1])
        for i in range(1, len(values) - 1)
    ]
    assert int(np.argmax(second)) + 1 == i_iso
    assert int(np.argmax(values)) == i_iso

    for row in discord_profile_vs_delta(pair_state_sweep(12, [-1.0, -1.5, -3.0], [1])):
        assert row.discord == 0.0


@criterion(6, "conditional-entropy distribution: delta peak, twin peaks, moments")
def test_criterion_6_distribution(solve):
    for n in (12, 16):
        hist = sample_distribution(two_site_rdm(solve(n, 1.0), 1, 2), GaussGrid())
        assert hist.variance <= 1e-10
        if n == 16:
            assert 0.67 <= hist.mean <= 0.77

    hist = sample_distribution(
        two_site_rdm(solve(12, 2.0), 1, 2), AngleGrid(8193, 64)
    )
    peaks = find_peaks(hist, min_separation=5)
    assert len(peaks) == 2
    assert hist.bins[peaks[0]] < hist.bins[peaks[1]]

    grid = delta_grid(0.5, 1.5, 0.1)
    scheme = GaussGrid()
    rows = {
        (row.delta, row.r): row
        for row in _moments_table(grid, (1, 2, 4), scheme, solve)
    }
    means_r4 = [rows[(d, 4)].mean_c for d in grid]
    assert grid[int(np.argmax(means_r4))] == 1.0
    for r in (1, 2, 4):
        variances = [rows[(d, r)].var_c for d in grid]
        assert grid[int(np.argmin(variances))] == 1.0


def _moments_table(grid, rs, scheme, solve):
    # share the memoized solves rather than re-solving inside the sweep
    from spindiscord.distribution import MomentsByAnisotropy

    rows = []
    for delta in grid:
        gs = solve(12, delta)
        for r in rs:
            hist = sample_distribution(two_site_rdm(gs, 1, 1 + r), scheme)
            rows.append(
                MomentsByAnisotropy(
                    delta, r, hist.mean, hist.variance, hist.min_c, hist.max_c
                )
            )
    return rows


@criterion(7, "quadratic small-correlator law at one part in a hundred")
def test_criterion_7_asymptotics():
    gamma_d = 1e-3
    for k in (2.0, 4.0):
        leading = 2.0 * (k * k + 4.0) * gamma_d * gamma_d / math.log(2.0)
        assert discord_symmetric(gamma_d, k) == approx(leading, rel=0.01)


@criterion(8, "critical-scaling curves peak at t = 1 with a kink")
def test_criterion_8_scaling():
    t0 = time.perf_counter()
    ts = delta_grid(0.5, 1.5, 0.01)
    steps = (1e-2, 1e-3, 1e-4, 1e-5)
    for pair in (PairKind.NN, PairKind.FAR):
        for t, value in zip(ts, normalized_discord_curve(ts, pair)):
            if t == 1.0:
                assert value == 1.0
            else:
                assert value < 1.0
        for side in (+1.0, -1.0):
            pts = normalized_discord_curve([1.0 + side * h for h in steps], pair)
            slopes = [(1.0 - value) / h for value, h in zip(pts, steps)]
            assert all(b > a for a, b in zip(slopes, slopes[1:]))
    assert time.perf_counter() - t0 < 1.0


@criterion(9, "byte-identical deterministic reruns")
def test_criterion_9_determinism(tmp_path, capsys):
    cache = ["--cache-dir", str(tmp_path / "cache")]

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["fig3", "--n", "8", "--rs", "1,2", "--delta-range", "0.5:1.5:0.25",
            "--deterministic"] + cache
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    argv = ["fig5", "--n", "8", "--delta", "0.5", "--r", "1", "--scheme", "mc",
            "--samples", "5000", "--seed", "3", "--deterministic"] + cache
    assert cli.main(argv + ["--out", str(c)]) == 0
    assert cli.main(argv + ["--out", str(d)]) == 0
    capsys.readouterr()
    assert c.read_bytes() == d.read_bytes()
    assert (tmp_path / "c.summary.json").read_bytes() == (
        tmp_path / "d.summary.json"
    ).read_bytes()
