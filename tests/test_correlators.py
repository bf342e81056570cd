"""Pair correlators, reduced density matrices, closed forms, and profiles."""

import gc
import itertools
import math
import weakref
from dataclasses import astuple
from math import comb

import numpy as np
import pytest
from pytest import approx

from spindiscord import cli, correlators
from spindiscord.correlators import (
    CorrelatorDomainError,
    PairCorrelations,
    discord_isotropic,
    discord_profile_vs_delta,
    discord_profile_vs_r,
    discord_symmetric,
    k_ratio,
    pair_correlations,
    pair_state_sweep,
    two_site_rdm,
)
from spindiscord.spinchain import GroundState, MomentumSector, ground_state
from spindiscord.xstate import OptimalTheta, XState, binary_entropy, c00, c90, discord

from oracles import SectorBasis, dense_sector_hamiltonian, expand, sector_configs


def dense_rdm(n_sites, delta, i, j):
    """Partial-trace oracle: dense ground vector, embedded and contracted."""
    _, vecs = np.linalg.eigh(dense_sector_hamiltonian(n_sites, delta))
    full = np.zeros(2**n_sites)
    full[sector_configs(n_sites)] = vecs[:, 0]
    # axis a of the reshaped tensor carries site n_sites - a
    t = np.moveaxis(full.reshape((2,) * n_sites), [n_sites - i, n_sites - j], [0, 1])
    rest = list(range(2, n_sites))
    rho = np.tensordot(t, t, axes=(rest, rest))
    # reverse every axis: qubit 0 is spin up while the tensor indexes bits
    return np.flip(rho, (0, 1, 2, 3)).reshape(4, 4)


class TestTwoSiteRdm:
    def test_four_site_isotropic_nearest_neighbor(self, solve):
        state = two_site_rdm(solve(4, 1.0), 1, 2)
        assert state.u == approx(1 / 12, abs=1e-9)
        assert state.v == approx(1 / 12, abs=1e-9)
        assert state.w1 == approx(5 / 12, abs=1e-9)
        assert state.w2 == approx(5 / 12, abs=1e-9)
        assert state.x == approx(-1 / 3, abs=1e-9)
        assert state.y == 0.0

    def test_trace_is_one(self, solve):
        for n, delta in [(4, 1.0), (8, 0.5), (10, 2.0)]:
            state = two_site_rdm(solve(n, delta), 1, 2)
            assert state.u + state.v + state.w1 + state.w2 == approx(1.0, abs=1e-12)

    def test_matches_dense_partial_trace(self, solve):
        cases = [(4, 1.0, 1, 2), (8, 2.0, 1, 2), (6, 0.0, 3, 1), (8, 0.5, 2, 5)]
        for n, delta, i, j in cases:
            lhs = two_site_rdm(solve(n, delta), i, j).matrix()
            assert lhs == approx(dense_rdm(n, delta, i, j), abs=1e-9)

    def test_dense_partial_trace_tight_nearest_neighbor(self, solve):
        lhs = two_site_rdm(solve(8, 2.0), 1, 2).matrix()
        assert lhs == approx(dense_rdm(8, 2.0, 1, 2), abs=1e-10)

    def test_translation_invariance(self, solve):
        gs = solve(8, 1.3)
        for r in (1, 2):
            ref = two_site_rdm(gs, 1, 1 + r).matrix()
            for i in range(2, 9):
                j = (i - 1 + r) % 8 + 1
                assert two_site_rdm(gs, i, j).matrix() == approx(ref, abs=1e-8)

    def test_rejects_bad_pairs(self, solve):
        gs = solve(4, 1.0)
        with pytest.raises(ValueError, match="differ"):
            two_site_rdm(gs, 2, 2)
        with pytest.raises(ValueError, match="outside"):
            two_site_rdm(gs, 0, 1)
        with pytest.raises(ValueError, match="outside"):
            two_site_rdm(gs, 1, 5)


def pair_layout(basis, i, j):
    """Sector indices grouped by the local state of ring sites (i, j).

    Returns (order, bounds).  `order` (int32) lists the indices of the
    |00>, |01>, |10>, |11> configurations in turn, each group ascending, and
    group k is order[bounds[k]:bounds[k + 1]].
    """
    bit_i, bit_j = 1 << (i - 1), 1 << (j - 1)
    pair_bits = basis.states & np.uint64(bit_i | bit_j)
    order = np.empty(basis.dim, dtype=np.int32)
    bounds = [0]
    # qubit value 0 is spin up (bit set), so |00> has both bits set
    for pattern in (bit_i | bit_j, bit_i, bit_j, 0):
        group = np.flatnonzero(pair_bits == np.uint64(pattern))
        order[bounds[-1] : bounds[-1] + group.size] = group
        bounds.append(bounds[-1] + group.size)
    return order, tuple(bounds)


def reduce_by_layout(amplitudes, layout):
    """Pair state of an S^z = 0 vector over a `pair_layout`.

    The flip maps the ascending |10> group in order onto the ascending |01>
    group, so x pairs the two by position, for any amplitude vector.
    """
    order, bounds = layout
    q = np.take(amplitudes, order)
    q00, q01, q10, q11 = (q[a:b] for a, b in zip(bounds, bounds[1:]))
    return XState(u=q00 @ q00, v=q11 @ q11, w1=q01 @ q01, w2=q10 @ q10, x=q10 @ q01)


class TestPairStateOracle:
    """Pair states from φ against the full-sector reduction over pair layouts."""

    @pytest.mark.parametrize("n_sites", [8, 10])
    def test_position_matching_equals_searchsorted(self, n_sites):
        # flip partners found by searching the sector, as the reduction once did
        def x_by_search(basis, amps, i, j):
            states = basis.states
            bit_i = (states >> np.uint64(i - 1)) & np.uint64(1)
            bit_j = (states >> np.uint64(j - 1)) & np.uint64(1)
            src = np.nonzero((bit_i == 0) & (bit_j == 1))[0]
            flip = np.uint64((1 << (i - 1)) | (1 << (j - 1)))
            dst = np.searchsorted(states, states[src] ^ flip)
            return float(np.sum(amps[dst] * amps[src]))

        basis = SectorBasis(n_sites, n_sites // 2)
        rng = np.random.default_rng(n_sites)
        for _ in range(3):
            amps = rng.standard_normal(basis.dim)  # no translation symmetry
            amps /= np.linalg.norm(amps)
            for i, j in itertools.permutations(range(1, n_sites + 1), 2):
                x = reduce_by_layout(amps, pair_layout(basis, i, j)).x
                assert x == approx(x_by_search(basis, amps, i, j), abs=1e-15)

    @pytest.mark.parametrize("n_sites", [8, 10])
    def test_pair_layout_matches_bincount_reduction(self, n_sites):
        # the reduction before pair layouts: per-site bits and one bincount
        def rdm_by_bincount(basis, amps, i, j):
            states = basis.states
            bit_i = ((states >> np.uint64(i - 1)) & np.uint64(1)).astype(np.int64)
            bit_j = ((states >> np.uint64(j - 1)) & np.uint64(1)).astype(np.int64)
            local = 2 * (1 - bit_i) + (1 - bit_j)
            occ = np.bincount(local, weights=amps * amps, minlength=4)
            x = float(amps[local == 2] @ amps[local == 1])
            return XState(u=occ[0], v=occ[3], w1=occ[1], w2=occ[2], x=x).matrix()

        half = n_sites // 2
        sizes = [comb(n_sites - 2, half - 2), comb(n_sites - 2, half - 1),
                 comb(n_sites - 2, half - 1), comb(n_sites - 2, half)]
        basis = SectorBasis(n_sites, half)
        rng = np.random.default_rng(n_sites + 1)
        vectors = []
        for _ in range(3):
            amps = rng.standard_normal(basis.dim)  # no translation symmetry
            vectors.append(amps / np.linalg.norm(amps))
        for i, j in itertools.permutations(range(1, n_sites + 1), 2):
            order, bounds = pair_layout(basis, i, j)
            assert order.dtype == np.int32
            assert [b - a for a, b in zip(bounds, bounds[1:])] == sizes
            assert bounds[0] == 0 and bounds[-1] == basis.dim
            for a, b in zip(bounds, bounds[1:]):
                assert np.all(np.diff(order[a:b]) > 0)
            for amps in vectors:
                lhs = reduce_by_layout(amps, (order, bounds)).matrix()
                assert np.max(np.abs(lhs - rdm_by_bincount(basis, amps, i, j))) <= 1e-15

    @pytest.mark.parametrize("n_sites", [8, 10, 12, 14, 16])
    def test_every_separation_matches_the_layout_reduction(self, n_sites, solve):
        basis = SectorBasis(n_sites, n_sites // 2)
        for delta in (-0.5, 0.5, 1.0, 2.0):
            gs = solve(n_sites, delta)
            psi = expand(gs.sector, gs.phi)
            for r in range(1, n_sites):
                want = reduce_by_layout(psi, pair_layout(basis, 1, 1 + r)).matrix()
                got = two_site_rdm(gs, 1, 1 + r).matrix()
                assert np.max(np.abs(got - want)) <= 1e-15, (delta, r)

    def test_opposite_pairs_are_listed_once(self):
        # at r = N/2 the N pairs (i, i + N/2) are N/2 distinct ones, each met from both ends
        sector = MomentumSector(12)
        _, src, _, _ = sector.pair_table(6)
        doubled, _, _ = sector._flip_table([np.uint64((1 << i) | (1 << ((i + 6) % 12))) for i in range(12)])
        assert src.size == 112
        assert doubled.size == 224


class TestPairCorrelations:
    def test_four_site_frozen_values(self, solve):
        gs = solve(4, 1.0)
        nn = pair_correlations(gs, 1, 2)
        assert nn.gamma_d == approx(-1 / 6, abs=1e-10)
        assert nn.gamma_o.real == approx(-1 / 3, abs=1e-10)
        assert nn.gamma_o.imag == 0.0
        nnn = pair_correlations(gs, 1, 3)
        assert nnn.gamma_d == approx(1 / 12, abs=1e-10)

    def test_sector_states_have_zero_magnetization(self, solve):
        # m^z = 0 and y = 0 in the S^z = 0 sector: u = v, w1 = w2, and no double flip
        for n, delta in [(4, 1.0), (8, 0.3), (12, 1.7)]:
            state = two_site_rdm(solve(n, delta), 1, 2)
            assert state.u == state.v
            assert state.w1 == state.w2
            assert state.y == 0

    def test_reconstruction_identities(self, solve):
        # u = v = 1/4 + gamma_d, w1 = w2 = 1/4 - gamma_d, x = gamma_o at zero magnetization
        for n, delta, i, j in [(8, 0.5, 1, 2), (8, 1.5, 3, 7), (10, 1.0, 4, 2)]:
            gs = solve(n, delta)
            state = two_site_rdm(gs, i, j)
            corr = pair_correlations(gs, i, j)
            assert state.u == approx(0.25 + corr.gamma_d, abs=1e-10)
            assert state.v == approx(0.25 + corr.gamma_d, abs=1e-10)
            assert state.w1 == approx(0.25 - corr.gamma_d, abs=1e-10)
            assert state.w2 == approx(0.25 - corr.gamma_d, abs=1e-10)
            assert state.x == approx(corr.gamma_o, abs=1e-10)

    def test_fields_are_the_two_correlators(self, solve):
        assert PairCorrelations._fields == ("r", "gamma_d", "gamma_o")
        assert tuple(pair_correlations(solve(4, 1.0), 1, 2)) == approx((1, -1 / 6, -1 / 3))

    def test_ring_distance_folds(self, solve):
        gs = solve(8, 1.0)
        assert pair_correlations(gs, 1, 8).r == 1
        assert pair_correlations(gs, 1, 6).r == 3
        assert pair_correlations(gs, 2, 6).r == 4

    def test_singlet_sum_rule(self, solve):
        # total-spin-zero ground state: sum over pairs of <S_i.S_j> = -3N/8
        n = 8
        gs = solve(n, 1.0)
        total = sum(
            pair_correlations(gs, i, j).gamma_d + pair_correlations(gs, i, j).gamma_o.real
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        )
        assert total == approx(-3 * n / 8, abs=1e-8)

    def test_out_of_range_gamma_d_rejected(self, solve):
        """|gamma_d| <= 1/4 on real pair states: `XState`'s own checks bound it."""
        for n, delta in [(4, 1.0), (8, -0.9), (10, 0.0), (12, 4.0)]:
            gs = solve(n, delta)
            for r in range(1, n // 2 + 1):
                assert abs(pair_correlations(gs, 1, 1 + r).gamma_d) <= 0.25


class TestKRatio:
    def test_isotropic_point_gives_two(self, solve):
        for n in (4, 8, 12):
            for r in range(1, n // 2 + 1):
                assert k_ratio(solve(n, 1.0), r) == approx(2.0, abs=1e-9)

    def test_anisotropy_moves_k_across_two(self, solve):
        below = k_ratio(solve(12, 0.5), 1)
        above = k_ratio(solve(12, 1.5), 1)
        assert below > 2.0
        assert above < 2.0
        assert below == approx(2.4875285881, abs=1e-6)
        assert above == approx(1.5623330672, abs=1e-6)

    def test_positivity_window(self, solve):
        # measured (gamma_d, k) keep all four symmetric-state eigenvalues
        # nonnegative, i.e. -1/(4(k-1)) <= gamma_d <= 1/(4(k+1)) for k > 1
        for delta in (0.0, 0.5, 1.0, 1.5, 2.0):
            gs = solve(10, delta)
            for r in (1, 2, 3, 4, 5):
                corr = pair_correlations(gs, 1, 1 + r)
                if abs(corr.gamma_d) < 1e-14:
                    continue
                k = corr.gamma_o.real / corr.gamma_d
                if k > 1.0:
                    assert corr.gamma_d >= -1 / (4 * (k - 1)) - 1e-10
                    assert corr.gamma_d <= 1 / (4 * (k + 1)) + 1e-10

    def test_undefined_ratio_raises(self):
        """Where gamma_d vanishes, k is NaN, as in the fig3 and fig4 rows; nothing raises."""
        # crafted sector vector with <sz_1 sz_2> = 0: all weight on the orbit
        # of 0011, whose four configurations are aligned on half the bonds
        sector = MomentumSector(4)
        assert [int(r) for r in sector._reps] == [0b0011, 0b0101]
        gs = GroundState(sector, 0.0, 0.0, np.array([1.0, 0.0]), 0.0, 1e-10, ())
        assert pair_correlations(gs, 1, 2).gamma_d == 0.0
        assert math.isnan(k_ratio(gs, 1))

    def test_equals_the_fig3_k_column(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = ["fig3", "--n", "8", "--rs", "1,2,3,4", "--delta-range", "0:1:0.5",
                "--deterministic", "--cache-dir", cache]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        delta_at, r_at, k_at = header.index("delta"), header.index("r"), header.index("k")
        assert len(rows) == 12
        assert "nan" in [row[k_at] for row in rows]
        for row in rows:
            k = k_ratio(ground_state(8, float(row[delta_at]), cache_dir=cache), int(row[r_at]))
            assert type(k) is float
            assert repr(k) == row[k_at]

    def test_rejects_bad_separation(self, solve):
        with pytest.raises(ValueError, match="separation"):
            k_ratio(solve(4, 1.0), 0)
        with pytest.raises(ValueError, match="separation"):
            k_ratio(solve(4, 1.0), 4)


class TestClosedForms:
    def test_isotropic_frozen_value(self):
        # same state as the 4-ring nearest neighbor: gamma_d = -1/6
        assert discord_isotropic(-1 / 6) == approx(0.4425036720089324, abs=1e-12)

    def test_singlet_limit(self):
        assert discord_isotropic(-0.25) == approx(1.0, abs=1e-12)

    def test_uncorrelated_limit(self):
        assert discord_isotropic(0.0) == approx(0.0, abs=1e-12)

    def test_matches_pipeline_on_reconstructed_states(self, solve):
        for n, delta in [(8, 0.5), (8, 1.0), (8, 1.5), (10, 2.0)]:
            gs = solve(n, delta)
            for r in (1, 2, 3):
                corr = pair_correlations(gs, 1, 1 + r)
                k = corr.gamma_o.real / corr.gamma_d
                closed = discord_symmetric(corr.gamma_d, k)
                pipeline = discord(two_site_rdm(gs, 1, 1 + r)).discord
                assert closed == approx(pipeline, abs=1e-10)

    def test_continuous_at_branch_switch(self):
        g = -0.1
        base = discord_isotropic(g)
        assert discord_symmetric(g, 2.0 - 1e-9) == approx(base, abs=1e-8)
        assert discord_symmetric(g, 2.0 + 1e-9) == approx(base, abs=1e-8)

    def test_arrays_match_floats_elementwise(self):
        gammas = [-0.25, -1 / 6, -0.1, 0.0, 1e-3, 0.05]
        for k in (2.0, 4.0 / 3.0):
            values = discord_symmetric(np.array(gammas), k)
            assert values.shape == (len(gammas),)
            assert values == approx([discord_symmetric(g, k) for g in gammas], abs=1e-15)
        assert type(discord_isotropic(np.float64(-0.1))) is float
        with pytest.raises(CorrelatorDomainError) as info:
            discord_isotropic(np.array([-0.1, 0.1, 0.2]))
        with pytest.raises(CorrelatorDomainError) as first:
            discord_isotropic(0.1)
        assert str(info.value) == str(first.value)  # the first unphysical entry, in a float's words

    def test_array_k_broadcasts_with_gamma_d(self):
        ks = [1.0, 4.0 / 3.0, 2.0, 3.0]
        values = discord_symmetric(-0.1, np.array(ks))
        assert values.shape == (len(ks),)
        assert values == approx([discord_symmetric(-0.1, k) for k in ks], abs=1e-15)
        gammas = [-0.2, -0.1, 0.0, 0.05]
        values = discord_symmetric(np.array(gammas), np.array(ks))
        assert values.shape == (len(ks),)
        expected = [discord_symmetric(g, k) for g, k in zip(gammas, ks)]
        assert values == approx(expected, abs=1e-15)

    def test_domain_error_on_negative_eigenvalue(self):
        with pytest.raises(CorrelatorDomainError, match="eigenvalues"):
            discord_symmetric(0.2, 2.0)  # 1/4 - 3*0.2 < 0
        with pytest.raises(CorrelatorDomainError):
            discord_symmetric(-0.2, 4.0)  # 1/4 + 3*(-0.2) < 0
        with pytest.raises(CorrelatorDomainError, match="gamma_d=nan, gamma_o=nan;"):
            discord_symmetric(math.nan, 2.0)
        with pytest.raises(CorrelatorDomainError, match="gamma_d=-0.1, gamma_o=nan;"):
            discord_symmetric(-0.1, math.nan)
        with pytest.raises(CorrelatorDomainError, match="gamma_d=nan, gamma_o=nan;"):
            discord_isotropic(np.array([-0.2, math.nan]))  # a NaN after a valid entry

    @pytest.mark.parametrize(
        "call, eigs, gamma",
        [
            (lambda: discord_symmetric(0.2, 2.0), "[0.45, 0.45, 0.45, -0.35000000000000003]", "gamma_d=0.2, gamma_o=0.4"),
            (
                lambda: discord_symmetric(-0.2, 4.0),
                "[0.04999999999999999, 0.04999999999999999, -0.35000000000000003, 1.25]",
                "gamma_d=-0.2, gamma_o=-0.8",
            ),
            (lambda: discord_isotropic(0.1), "[0.35, 0.35, 0.35, -0.05000000000000002]", "gamma_d=0.1, gamma_o=0.2"),
            (lambda: discord_symmetric(0.3, 2.0), "[0.55, 0.55, 0.55, -0.6499999999999999]", "gamma_d=0.3, gamma_o=0.6"),
        ],
    )
    def test_domain_error_message(self, call, eigs, gamma):
        with pytest.raises(CorrelatorDomainError) as info:
            call()
        assert str(info.value) == (
            f"eigenvalues {eigs} of the symmetric pair state are negative for {gamma}; "
            "|gamma_o| + gamma_d must stay within 1/4"
        )


def leading_discord(gamma_d, k):
    """Small-gamma_d law 2(k^2+4) gamma_d^2 / ln 2 of the symmetric closed form."""
    return 2.0 * (k * k + 4.0) * gamma_d * gamma_d / math.log(2.0)


class TestAsymptotics:
    def test_isotropic_small_gamma_within_one_percent(self):
        exact, leading = discord_symmetric(1e-3, 2.0), leading_discord(1e-3, 2.0)
        assert leading == approx(16 * 1e-6 / math.log(2), rel=1e-12)
        assert exact / leading == approx(1.0, abs=0.01)

    def test_k_four_small_gamma(self):
        exact, leading = discord_symmetric(1e-3, 4.0), leading_discord(1e-3, 4.0)
        assert leading == approx(2 * 20 * 1e-6 / math.log(2), rel=1e-12)
        assert exact / leading == approx(1.0, abs=0.01)

    def test_singlet_exact_value(self):
        assert discord_symmetric(-0.25, 2.0) == approx(1.0, abs=1e-12)

    def test_domain_error_propagates(self):
        with pytest.raises(CorrelatorDomainError):
            discord_symmetric(0.3, 2.0)


class TestDiscordProfileVsR:
    def test_isotropic_pipeline_matches_closed_form(self):
        rows = list(discord_profile_vs_r(pair_state_sweep(12, [1.0], range(1, 7))))
        assert len(rows) == 6
        for row in rows:
            assert row.isotropic_form is not None
            assert row.discord == approx(row.isotropic_form, abs=1e-9)
            assert row.discord == approx(row.symmetric_form, abs=1e-9)

    def test_four_site_nearest_neighbor_value(self):
        rows = list(discord_profile_vs_r(pair_state_sweep(4, [1.0], [1, 2])))
        assert rows[0].discord == approx(0.4425036720089324, abs=1e-9)

    def test_decays_inside_half_ring(self):
        rows = list(discord_profile_vs_r(pair_state_sweep(12, [1.0], range(1, 7))))
        values = [row.discord for row in rows]
        assert all(b < a for a, b in zip(values[:-2], values[1:-1]))

    def test_isotropic_form_absent_off_the_isotropic_point(self):
        rows = list(discord_profile_vs_r(pair_state_sweep(8, [0.5], range(1, 5))))
        assert all(row.isotropic_form is None for row in rows)
        assert all(row.symmetric_form is not None for row in rows)

    def test_state_outside_the_symmetric_closed_form_keeps_its_discord(self):
        # passes XState's checks, but the closed form's eigenvalue 1/4 − x − gamma_d is −1e-10
        state = XState(u=0.3, v=0.3, w1=0.2, w2=0.2, x=0.2 + 1e-10)
        [row] = discord_profile_vs_r([(0.5, 1, state)])
        assert row.symmetric_form is None
        assert row.isotropic_form is None
        assert type(row.discord) is float
        assert row.discord == approx(0.3103403046658615, abs=1e-12)

    def test_ring_reflection_symmetry(self, solve):
        gs = solve(8, 1.2)
        for r in (1, 2, 3):
            d_fwd = discord(two_site_rdm(gs, 1, 1 + r)).discord
            d_bwd = discord(two_site_rdm(gs, 1, 1 + 8 - r)).discord
            assert d_fwd == approx(d_bwd, abs=1e-10)


class TestDiscordProfileVsDelta:
    def test_ferromagnetic_rows_are_analytic(self):
        rows = list(discord_profile_vs_delta(pair_state_sweep(8, [-2.0, -1.0], [1, 2])))
        assert len(rows) == 4
        for row in rows:
            assert row.discord == 0.0
            assert row.k == 0.0
            assert row.basis is OptimalTheta.ZERO

    def test_basis_switch_across_isotropic_point(self):
        rows = list(discord_profile_vs_delta(pair_state_sweep(12, [0.5, 1.5], [1])))
        assert rows[0].basis is OptimalTheta.NINETY
        assert rows[1].basis is OptimalTheta.ZERO

    def test_k_columns_track_anisotropy(self):
        rows = list(discord_profile_vs_delta(pair_state_sweep(8, [0.5, 1.0, 1.5], [1])))
        assert rows[0].k > 2.0
        assert rows[1].k == approx(2.0, abs=1e-9)
        assert rows[2].k < 2.0

    def test_rejects_bad_separation(self):
        with pytest.raises(ValueError, match="separation"):
            list(discord_profile_vs_delta(pair_state_sweep(8, [1.0], [8])))

    def test_rejects_bad_ring_size_before_polarized_rows(self):
        # Δ ≤ −1 builds no sector, so the sweep itself must check the size
        with pytest.raises(ValueError, match="even"):
            list(pair_state_sweep(5, [-2.0], [1]))
        with pytest.raises(ValueError, match="cap"):
            list(pair_state_sweep(28, [-2.0], [1]))


class TestPairStateSweep:
    @pytest.mark.parametrize("delta", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_delta_before_any_row(self, monkeypatch, delta):
        monkeypatch.setattr(correlators, "ground_states", None)  # a solve would raise TypeError
        rows = pair_state_sweep(8, [-2.0, 0.5, delta], [1])
        with pytest.raises(ValueError, match=rf"^delta={delta!r} is not finite$"):
            next(rows)

    @pytest.mark.parametrize(
        "deltas, rs, message",
        [([-1.5, 0.5], [9], r"^separation 9 outside \[1, 7\]$"),
         ([-1.5], [9], r"^separation 9 outside \[1, 7\]$"),
         ([-1.5, math.nan], [1], r"^delta=nan is not finite$")],
        ids=["rs_solved", "rs_alone", "nan"],
    )
    def test_rejects_bad_input_before_a_polarized_row(self, deltas, rs, message):
        rows = pair_state_sweep(8, deltas, rs)
        with pytest.raises(ValueError, match=message):
            next(rows)

    def test_accepts_one_shot_separations(self):
        rows = list(pair_state_sweep(8, [0.5], iter([1, 2])))
        assert [(delta, r) for delta, r, _ in rows] == [(0.5, 1), (0.5, 2)]

    def test_builds_one_table_per_separation(self, monkeypatch, solve):
        built = []
        pair_table = MomentumSector.pair_table

        def counting(sector, r):
            built.append(r)
            return pair_table(sector, r)

        monkeypatch.setattr(MomentumSector, "pair_table", counting)
        deltas = [0.0, 0.5, 1.0, 1.5, 2.0]
        rows = list(pair_state_sweep(10, deltas, [1, 9, 2, 8, 3]))
        assert built == [1, 2, 3]  # r and N − r are one ring distance, one table
        assert [r for _, r, _ in rows[:5]] == [1, 9, 2, 8, 3]  # rows keep the requested r
        for delta, r, state in rows:
            assert state == two_site_rdm(solve(10, delta), 1, 1 + r)
        built.clear()
        rows = list(pair_state_sweep(10, [-2.0, -1.5, -1.0], [1, 2, 3]))
        assert len(rows) == 9
        assert built == []

    def test_opposite_separations_give_identical_states(self):
        # (1, 1+r) and (1, 1+N−r) are pairs at one ring distance; their states must share every bit
        states = {(delta, r): state for delta, r, state in
                  pair_state_sweep(12, [0.3, 1.0, 1.7], range(1, 12))}

        def bits(state):
            return np.array(astuple(state), dtype=complex).tobytes()

        for (delta, r), state in states.items():
            assert bits(state) == bits(states[delta, 12 - r]), (delta, r)

    @pytest.mark.parametrize("deltas, held", [([-2.0, 1.0], False), ([0.5, 1.0], True)])
    def test_single_solve_drops_each_table(self, monkeypatch, deltas, held):
        """One solve frees a separation's table before the next is built; two keep them."""
        tables, alive = [], []
        pair_table = MomentumSector.pair_table

        def recording(sector, r):
            gc.collect()
            alive.append(sum(ref() is not None for ref in tables))
            table = pair_table(sector, r)
            tables.append(weakref.ref(table[0]))
            return table

        monkeypatch.setattr(MomentumSector, "pair_table", recording)
        sweep = pair_state_sweep(10, deltas, [1, 2, 3])
        rows = list(itertools.islice(sweep, 6))  # the sweep stays open on its last row
        assert [(delta, r) for delta, r, _ in rows[3:]] == [(1.0, 1), (1.0, 2), (1.0, 3)]
        assert alive == ([0, 1, 2] if held else [0, 0, 0])  # one build per separation
        gc.collect()
        assert [ref() is not None for ref in tables] == [held] * 3


class TestMeasurementConsistency:
    def test_candidate_entropies_match_binary_forms(self, solve):
        # C at theta=0 equals H(1/2+2*gamma_d); at theta=pi/2 it equals
        # H(1/2+k*gamma_d) for the measured pair correlators
        for delta in (0.5, 1.0, 1.5):
            gs = solve(8, delta)
            state = two_site_rdm(gs, 1, 2)
            corr = pair_correlations(gs, 1, 2)
            k = corr.gamma_o.real / corr.gamma_d
            assert c00(state) == approx(binary_entropy(0.5 + 2 * corr.gamma_d), abs=1e-10)
            assert c90(state)[0] == approx(
                binary_entropy(0.5 + k * corr.gamma_d), abs=1e-10
            )

    def test_isotropic_point_needs_no_minimization(self, solve):
        state = two_site_rdm(solve(12, 1.0), 1, 2)
        assert c00(state) == approx(c90(state)[0], abs=1e-9)
