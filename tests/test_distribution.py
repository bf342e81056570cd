"""Conditional-entropy histograms, peak detection, and moment sweeps."""

import math

import numpy as np
import pytest
from pytest import approx

from spindiscord import distribution
from spindiscord.correlators import pair_state_sweep, two_site_rdm
from spindiscord.distribution import (
    _CHUNK,
    AngleGrid,
    EntropyHistogram,
    GaussGrid,
    UniformSphere,
    moments_vs_delta,
    sample_distribution,
)
from spindiscord.xstate import XState, c00, c90, conditional_entropy_values, random_xstate

from oracles import find_peaks

BELL = XState(0.5, 0.5, 0.0, 0.0, 0.0, 0.5)


def synthetic_histogram(bins):
    total = sum(bins.values())
    centers = {i: (i + 0.5) * 0.005 for i in bins}
    mean = sum(bins[i] * centers[i] for i in bins) / total
    return EntropyHistogram(
        bin_width=0.005,
        bins={i: m / total for i, m in bins.items()},
        mean=mean,
        variance=0.0,
        min_c=min(centers.values()) - 0.0025,
        max_c=max(centers.values()) + 0.0025,
        n_samples=1000,
    )


class TestSchemeValidation:
    def test_monte_carlo_minimum_sample_count(self):
        with pytest.raises(ValueError, match="minimum"):
            UniformSphere(999)
        UniformSphere(1000)

    def test_grid_minimum_point_count(self):
        with pytest.raises(ValueError, match="minimum"):
            GaussGrid(16, 16)
        with pytest.raises(ValueError, match="minimum"):
            AngleGrid(16, 16)
        with pytest.raises(ValueError, match="nodes"):
            GaussGrid(1, 4096)

    def test_monte_carlo_is_seed_deterministic(self):
        a = sample_distribution(BELL, UniformSphere(5000, seed=7))
        b = sample_distribution(BELL, UniformSphere(5000, seed=7))
        assert a.bins == b.bins
        assert a.mean == b.mean


class TestSampleDistribution:
    def test_pure_state_is_point_mass_at_zero(self):
        hist = sample_distribution(BELL, GaussGrid(64, 64))
        assert set(hist.bins) == {0}
        assert hist.bins[0] == approx(1.0, abs=1e-12)
        assert hist.variance <= 1e-12
        assert hist.mean == approx(0.0, abs=1e-12)

    def test_isotropic_ground_state_is_single_bin(self, solve):
        state = two_site_rdm(solve(12, 1.0), 1, 2)
        hist = sample_distribution(state, GaussGrid(128, 128))
        assert len(hist.bins) == 1
        assert hist.variance <= 1e-10

    def test_mass_sums_to_one_and_moments_bounded(self):
        rng = np.random.default_rng(11)
        schemes = [UniformSphere(4000, seed=3), GaussGrid(64, 64), AngleGrid(65, 64)]
        for _ in range(10):
            state = random_xstate(rng)
            for scheme in schemes:
                hist = sample_distribution(state, scheme)
                assert sum(hist.bins.values()) == approx(1.0, abs=1e-9)
                assert hist.min_c - 1e-12 <= hist.mean <= hist.max_c + 1e-12
                assert hist.variance >= 0.0

    @pytest.mark.parametrize("n_sites", [4, 8])
    def test_isotropic_mean_within_extrema_exactly(self, n_sites):
        # at Δ = 1 C is constant, so a weighted sum can round past both extrema
        schemes = (GaussGrid(), AngleGrid(), UniformSphere(20_000, seed=1))
        for _, r, state in pair_state_sweep(n_sites, [1.0], range(1, n_sites // 2 + 1)):
            for scheme in schemes:
                hist = sample_distribution(state, scheme)
                assert hist.min_c <= hist.mean <= hist.max_c, (r, scheme)

    def test_binned_moments_track_raw_moments(self, solve):
        state = two_site_rdm(solve(8, 2.0), 1, 2)
        for scheme in (GaussGrid(64, 64), AngleGrid(257, 64)):
            hist = sample_distribution(state, scheme)
            centers = {i: (i + 0.5) * hist.bin_width for i in hist.bins}
            binned_mean = sum(hist.bins[i] * centers[i] for i in hist.bins)
            binned_var = (
                sum(hist.bins[i] * centers[i] ** 2 for i in hist.bins) - binned_mean**2
            )
            assert abs(binned_mean - hist.mean) <= hist.bin_width
            assert abs(binned_var - hist.variance) <= hist.bin_width

    def test_monte_carlo_agrees_with_quadrature(self):
        # phi-independent state: x = y = 0
        state = XState(0.35, 0.25, 0.22, 0.18)
        n = 200_000
        mc = sample_distribution(state, UniformSphere(n, seed=5))
        quad = sample_distribution(state, GaussGrid(256, 256))
        three_se = 3.0 * math.sqrt(mc.variance / n)
        assert abs(mc.mean - quad.mean) <= three_se

    def test_extrema_match_closed_form_candidates(self, solve):
        for delta in (0.5, 2.0):
            state = two_site_rdm(solve(10, delta), 1, 2)
            hist = sample_distribution(state, GaussGrid(256, 256))
            lo = min(c00(state), c90(state)[0])
            hi = max(c00(state), c90(state)[0])
            assert hist.min_c == approx(lo, abs=5e-3)
            assert hist.max_c == approx(hi, abs=5e-3)

    def test_conditional_entropy_has_half_turn_phi_period(self):
        # real x and y: the Bloch-plane term depends on phi with period pi
        rng = np.random.default_rng(23)
        for _ in range(20):
            state = random_xstate(rng)
            state = XState(state.u, state.v, state.w1, state.w2, abs(state.x), abs(state.y))
            theta = rng.uniform(0.0, math.pi)
            phi = rng.uniform(0.0, math.pi)
            assert float(conditional_entropy_values(state, theta, phi)) == approx(
                float(conditional_entropy_values(state, theta, phi + math.pi)), abs=1e-12
            )

    def test_rejects_bad_bin_width_and_scheme(self):
        with pytest.raises(ValueError, match="bin_width"):
            sample_distribution(BELL, GaussGrid(64, 64), bin_width=0.0)
        with pytest.raises(ValueError, match="scheme"):
            sample_distribution(BELL, "gauss")


def flat_product_reference(state, theta, phi, weights, bin_width=0.005):
    """Histogram of C over the materialized theta x phi product (theta-major).

    Values are evaluated once over the whole flat grid; bins and sums are
    accumulated over the same row blocks the library chunks by, so the
    bins and sums are reproducible to the last bit.
    """
    n_phi = len(phi)
    flat_theta = np.repeat(theta, n_phi)
    flat_phi = np.tile(phi, len(theta))
    flat_w = np.repeat(weights, n_phi)
    values = np.maximum(conditional_entropy_values(state, flat_theta, flat_phi), 0.0)
    n_bins = int(math.ceil(1.0 / bin_width)) + 1
    dense = np.zeros(n_bins)
    s1 = s2 = 0.0
    step = max(1, _CHUNK // n_phi) * n_phi
    for start in range(0, len(values), step):
        v = values[start : start + step]
        w = flat_w[start : start + step]
        idx = np.minimum((v / bin_width).astype(np.int64), n_bins - 1)
        dense += np.bincount(idx, weights=w, minlength=n_bins)
        s1 += float(np.sum(w * v))
        s2 += float(np.sum(w * v * v))
    bins = {int(i): float(m) for i, m in enumerate(dense) if m > 0.0}
    return bins, s1, max(s2 - s1 * s1, 0.0), float(values.min()), float(values.max()), len(values)


class TestChunkedProductGrids:
    """Grids whose last theta block is ragged match the flat product."""

    STATE = random_xstate(np.random.default_rng(2024))

    def check(self, scheme, theta, phi, weights):
        assert abs(self.STATE.y) > 0.0
        assert len(theta) % max(1, _CHUNK // len(phi)) != 0
        hist = sample_distribution(self.STATE, scheme)
        bins, mean, variance, lo, hi, count = flat_product_reference(
            self.STATE, theta, phi, weights
        )
        assert hist.bins == bins
        assert hist.min_c == lo
        assert hist.max_c == hi
        assert hist.n_samples == count
        assert abs(hist.mean - mean) <= 1e-15
        assert abs(hist.variance - variance) <= 1e-15

    def test_gauss_grid(self):
        n_theta, n_phi = 1100, 300
        nodes, weights = np.polynomial.legendre.leggauss(n_theta)
        phi = (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
        self.check(
            GaussGrid(n_theta, n_phi), np.arccos(nodes), phi, weights / (2.0 * n_phi)
        )

    def test_angle_grid(self):
        n_theta, n_phi = 2049, 200
        theta = np.linspace(0.0, math.pi, n_theta)
        phi = np.arange(n_phi) * (2.0 * math.pi / n_phi)
        weights = np.full(n_theta, 1.0 / (n_theta * n_phi))
        self.check(AngleGrid(n_theta, n_phi), theta, phi, weights)


class TestPhiFreeStates:
    """States with x = 0 or y = 0 match the full theta x phi evaluation."""

    @pytest.fixture(params=["ring pair (y = 0)", "x = 0", "polarized"])
    def state(self, request, solve):
        if request.param == "ring pair (y = 0)":
            state = two_site_rdm(solve(12, 2.0), 1, 2)
            assert state.y == 0 and state.x != 0
            return state
        if request.param == "x = 0":
            return XState(0.35, 0.25, 0.22, 0.18, 0.0, 0.2 + 0.1j)
        return XState(0.5, 0.5, 0.0, 0.0)

    def check(self, state, scheme, theta, phi, weights):
        hist = sample_distribution(state, scheme)
        bins, mean, variance, lo, hi, count = flat_product_reference(state, theta, phi, weights)
        assert hist.bins.keys() == bins.keys()
        for i, mass in bins.items():
            assert abs(hist.bins[i] - mass) <= 1e-12
        assert abs(hist.mean - mean) <= 1e-12
        assert abs(hist.variance - variance) <= 1e-12
        assert abs(hist.min_c - lo) <= 1e-15
        assert abs(hist.max_c - hi) <= 1e-15
        assert hist.n_samples == count == scheme.n_theta * scheme.n_phi

    def test_gauss_grid(self, state):
        n_theta, n_phi = 1100, 300
        nodes, weights = np.polynomial.legendre.leggauss(n_theta)
        phi = (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
        self.check(
            state, GaussGrid(n_theta, n_phi), np.arccos(nodes), phi, weights / (2.0 * n_phi)
        )

    def test_angle_grid(self, state):
        n_theta, n_phi = 2049, 200
        theta = np.linspace(0.0, math.pi, n_theta)
        phi = np.arange(n_phi) * (2.0 * math.pi / n_phi)
        weights = np.full(n_theta, 1.0 / (n_theta * n_phi))
        self.check(state, AngleGrid(n_theta, n_phi), theta, phi, weights)

    def test_monte_carlo_matches_drawn_phi(self, solve):
        state = two_site_rdm(solve(12, 2.0), 1, 2)
        n = 5000
        hist = sample_distribution(state, UniformSphere(n, seed=7))
        rng = np.random.default_rng(7)
        theta = np.arccos(rng.uniform(-1.0, 1.0, n))
        phi = rng.uniform(0.0, 2.0 * math.pi, n)
        values = np.maximum(conditional_entropy_values(state, theta, phi), 0.0)
        idx = np.minimum((values / hist.bin_width).astype(np.int64), math.ceil(1.0 / hist.bin_width))
        bins = {int(i): float(m) for i, m in enumerate(np.bincount(idx) / n) if m > 0.0}
        mean = float(np.mean(values))
        assert hist.bins.keys() == bins.keys()
        for i, mass in bins.items():
            assert abs(hist.bins[i] - mass) <= 1e-12
        assert abs(hist.mean - mean) <= 1e-12
        assert abs(hist.variance - (float(np.mean(values**2)) - mean**2)) <= 1e-12
        assert abs(hist.min_c - float(values.min())) <= 1e-12
        assert abs(hist.max_c - float(values.max())) <= 1e-12
        assert hist.n_samples == n


class TestGaussNodeMemo:
    def test_nodes_are_built_once_per_size(self, monkeypatch):
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def counting(n):
            calls.append(n)
            return leggauss(n)

        monkeypatch.setattr(distribution, "_GAUSS_NODES", {})
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        scheme = GaussGrid(256, 256)
        first = sample_distribution(BELL, scheme)
        second = sample_distribution(BELL, scheme)
        assert calls == [256]
        assert first == second

    def test_memoized_nodes_are_read_only(self):
        theta, weights = distribution._gauss_nodes(64)
        for array in (theta, weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_memo_adds_no_scheme_field(self):
        scheme = GaussGrid(64, 64)
        sample_distribution(BELL, scheme)
        assert set(vars(scheme)) == {"n_theta", "n_phi"}


class TestFindPeaks:
    def test_well_separated_peaks_both_found(self):
        hist = synthetic_histogram({10: 0.5, 20: 0.5})
        assert find_peaks(hist) == [10, 20]

    def test_close_maxima_collapse_to_dominant(self):
        hist = synthetic_histogram({10: 0.3, 12: 0.4})
        assert find_peaks(hist) == [12]

    def test_single_bin_is_single_peak(self):
        hist = synthetic_histogram({40: 1.0})
        assert find_peaks(hist) == [40]

    def test_monotone_ramp_has_one_peak(self):
        hist = synthetic_histogram({i: float(i) for i in range(20, 30)})
        assert find_peaks(hist) == [29]

    def test_rejects_bad_separation(self):
        hist = synthetic_histogram({40: 1.0})
        with pytest.raises(ValueError, match="min_separation"):
            find_peaks(hist, min_separation=0)

    def test_twin_peaks_under_angle_uniform_sampling(self, solve):
        # strongly anisotropic pair state: the angle-uniform measure piles
        # extra weight at the poles, carving a second mode at low C
        state = two_site_rdm(solve(12, 2.0), 1, 2)
        hist = sample_distribution(state, AngleGrid(8193, 64))
        peaks = find_peaks(hist)
        assert len(peaks) == 2
        low, high = peaks
        assert hist.bins[low] < hist.bins[high]

    def test_solid_angle_measure_is_single_sided(self, solve):
        # same state under the true sphere measure: the density rises
        # monotonically to its equator divergence, so the global maximum
        # sits in the top bin of the support
        state = two_site_rdm(solve(12, 2.0), 1, 2)
        hist = sample_distribution(state, GaussGrid(256, 256))
        top = max(hist.bins)
        assert hist.bins[top] == max(hist.bins.values())


class TestMomentsVsDelta:
    def test_isotropic_point_variance_vanishes(self):
        rows = list(moments_vs_delta(pair_state_sweep(12, [1.0], [1, 4]), GaussGrid(128, 128)))
        for row in rows:
            assert row.var_c <= 1e-10

    def test_far_pair_mean_peaks_at_isotropic_point(self):
        rows = list(moments_vs_delta(pair_state_sweep(12, [0.8, 0.9, 1.0, 1.1, 1.2], [4]), GaussGrid(128, 128)))
        means = [row.mean_c for row in rows]
        assert means[2] == max(means)

    def test_variance_dips_at_isotropic_point(self):
        rows = list(
            moments_vs_delta(pair_state_sweep(12, [0.8, 0.9, 1.0, 1.1, 1.2], [1, 4]), GaussGrid(128, 128))
        )
        for r in (1, 4):
            variances = [row.var_c for row in rows if row.r == r]
            assert variances[2] == min(variances)

    def test_nearest_neighbor_mean_monotone_under_angle_measure(self):
        rows = list(moments_vs_delta(pair_state_sweep(12, [0.5, 1.0, 1.5, 2.0], [1]), AngleGrid(1025, 64)))
        means = [row.mean_c for row in rows]
        assert all(b < a for a, b in zip(means, means[1:]))

    def test_ferromagnetic_rows_use_polarized_mixture(self):
        rows = list(moments_vs_delta(pair_state_sweep(8, [-1.5, -1.0], [1, 3]), GaussGrid(128, 128)))
        assert len(rows) == 4
        for row in rows:
            # diagonal u = v = 1/2 state: mean integrates the binary entropy
            # of (1+cos theta)/2 over the sphere, giving 1/(2 ln 2)
            assert row.mean_c == approx(1.0 / (2.0 * math.log(2.0)), abs=1e-6)
            assert row.max_c == approx(1.0, abs=5e-3)
            assert row.min_c == approx(0.0, abs=5e-3)

    def test_default_scheme_is_quadrature(self):
        rows = list(moments_vs_delta(pair_state_sweep(8, [0.5], [1])))
        explicit = list(moments_vs_delta(pair_state_sweep(8, [0.5], [1]), GaussGrid(256, 256)))
        assert rows[0].mean_c == explicit[0].mean_c

    def test_rejects_bad_separation(self):
        with pytest.raises(ValueError, match="separation"):
            list(moments_vs_delta(pair_state_sweep(8, [1.0], [0])))
