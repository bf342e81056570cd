"""Sector build, matrix-free matvec, Lanczos ground states, and the cache."""

import dataclasses
import math
import os
import random
import stat
import tracemalloc

import numpy as np
import pytest
from pytest import approx

from spindiscord import spinchain
from spindiscord.spinchain import (
    ConvergenceError,
    DegenerateGroundStateError,
    FerromagneticRegimeError,
    MomentumSector,
    apply_hamiltonian,
    build_sector,
    cache_path,
    ground_state,
    ground_states,
    load_ground_state,
    save_ground_state,
)

from oracles import (
    SectorBasis,
    dense_sector_hamiltonian,
    dense_spectrum_oracle,
    expand,
    sector_configs,
)


def free_fermion_energy(n_sites):
    # XX ring ground-state energy: fill the N/2 lowest cosine modes.  The
    # fermionized boundary condition follows particle-number parity, so the
    # momenta are periodic for odd N/2 and antiperiodic for even N/2.
    n_f = n_sites // 2
    if n_f % 2:
        ks = [2 * math.pi * m / n_sites for m in range(n_sites)]
    else:
        ks = [math.pi * (2 * m + 1) / n_sites for m in range(n_sites)]
    return sum(sorted(math.cos(k) for k in ks)[:n_f])


class TestBuildSector:
    """The solver's sector, and the full S^z = 0 reference basis it is checked against."""

    def test_four_site_half_filling_configs(self):
        basis = SectorBasis(4, 2)
        assert [int(s) for s in basis.states] == [3, 5, 6, 9, 10, 12]
        assert basis.dim == 6
        sector = build_sector(4)  # orbits {3, 6, 12, 9} and {5, 10}
        assert [int(r) for r in sector._reps] == [3, 5]
        assert sector._root_size**2 == approx([4.0, 2.0], abs=1e-15)

    def test_dimension_is_binomial(self):
        for n in (4, 6, 8, 10, 12):
            for n_up in range(n + 1):
                basis = SectorBasis(n, n_up)
                assert basis.dim == math.comb(n, n_up)
                assert np.all(np.bitwise_count(basis.states) == n_up)
                assert np.all(basis.states[1:] > basis.states[:-1])
            # the orbits of the solver's sector partition S^z = 0
            sizes = build_sector(n)._root_size ** 2
            assert round(sizes.sum()) == math.comb(n, n // 2)

    def test_large_ring_enumeration(self):
        sizes = build_sector(22)._root_size ** 2
        assert np.abs(sizes - np.round(sizes)).max() <= 1e-12
        assert int(np.round(sizes).sum()) == 705432

    def test_states_sorted_and_correct_popcount(self):
        for states in (SectorBasis(10, 5).states, build_sector(10)._reps):
            assert np.all(states[1:] > states[:-1])
            assert np.all(np.bitwise_count(states) == 5)

    def test_states_are_immutable(self):
        basis = SectorBasis(6, 3)
        with pytest.raises(ValueError):
            basis.states[0] = 0
        sector = build_sector(6)
        with pytest.raises(ValueError):
            sector.start[0] = 0.0

    def test_index_of_roundtrip(self):
        basis = SectorBasis(8, 4)
        for k in (0, 17, basis.dim - 1):
            assert basis.index_of(int(basis.states[k])) == k

    def test_index_of_missing_config(self):
        basis = SectorBasis(6, 3)
        with pytest.raises(KeyError):
            basis.index_of(0b000111 ^ 0b000110)  # popcount 1, not in sector

    def test_rejects_odd_or_tiny_rings(self):
        with pytest.raises(ValueError, match="even"):
            build_sector(5)
        with pytest.raises(ValueError, match="even"):
            build_sector(2)
        with pytest.raises(ValueError, match="cap"):
            build_sector(28)
        with pytest.raises(ValueError, match="n_up"):
            SectorBasis(6, 7)

    def test_ground_states_of_one_ring_build_one_sector(self, monkeypatch):
        builds = []
        real = spinchain.build_sector

        def counting(n_sites):
            builds.append(n_sites)
            return real(n_sites)

        monkeypatch.setattr(spinchain, "build_sector", counting)
        spinchain._momentum_sector.cache_clear()
        first, second = ground_state(10, 0.3), ground_state(10, 1.7)
        assert builds == [10]
        assert first.sector is second.sector


class TestApplyHamiltonian:
    def test_neel_column_four_sites(self):
        # H|0101> at delta=1: diagonal -1 (four anti-aligned bonds), and the
        # four one-flip images each at amplitude 1/2.
        basis = SectorBasis(4, 2)
        psi = np.zeros(basis.dim)
        psi[basis.index_of(0b0101)] = 1.0
        out = apply_hamiltonian(basis, 1.0, psi)
        expected = {0b0101: -1.0, 0b0011: 0.5, 0b0110: 0.5, 0b1001: 0.5, 0b1100: 0.5}
        for k, config in enumerate(basis.states):
            assert out[k] == approx(expected.get(int(config), 0.0), abs=1e-15)

    def test_diagonal_part_scales_with_delta(self):
        basis = SectorBasis(6, 3)
        psi = np.zeros(basis.dim)
        psi[basis.index_of(0b010101)] = 1.0
        out2 = apply_hamiltonian(basis, 2.0, psi)
        out0 = apply_hamiltonian(basis, 0.0, psi)
        k = basis.index_of(0b010101)
        assert out2[k] == approx(2.0 * (-6 / 4), abs=1e-15)
        assert out0[k] == approx(0.0, abs=1e-15)

    def test_matches_dense_oracle_on_random_vectors(self):
        rng = np.random.default_rng(42)
        for n, delta in [(6, 0.0), (6, 1.0), (8, 0.7), (8, 2.0)]:
            basis = SectorBasis(n, n // 2)
            dense = dense_sector_hamiltonian(n, delta)
            for _ in range(5):
                psi = rng.standard_normal(basis.dim)
                assert apply_hamiltonian(basis, delta, psi) == approx(
                    dense @ psi, abs=1e-12
                )

    def test_is_symmetric(self):
        rng = np.random.default_rng(3)
        basis = SectorBasis(10, 5)
        for delta in (0.0, 0.5, 1.7):
            a = rng.standard_normal(basis.dim)
            b = rng.standard_normal(basis.dim)
            lhs = a @ apply_hamiltonian(basis, delta, b)
            rhs = apply_hamiltonian(basis, delta, a) @ b
            assert lhs == approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("n_sites, width", [(12, 39), (16, 5), (18, 1)])
    def test_block_rows_equal_lone_calls(self, n_sites, width):
        """K = 1 and `width` rows go through the sector's block table; `width` + 3 are refused."""
        sector = spinchain._momentum_sector(n_sites)
        assert sector.width == width
        if width == 1:  # the flip destinations serve; no copy of them is kept
            assert sector._block_dst is sector._flip_pairs[1]
        rng = np.random.default_rng(n_sites)
        for rows in (1, width):
            deltas, psi = rng.uniform(-0.9, 2.5, rows), rng.standard_normal((rows, sector.dim))
            block = apply_hamiltonian(sector, deltas, psi)
            for k in range(rows):
                assert np.array_equal(block[k], apply_hamiltonian(sector, deltas[k], psi[k]))
        rows = width + 3
        with pytest.raises(ValueError, match=rf"^a block of {rows} rows is wider than the sector's {width}$"):
            apply_hamiltonian(sector, np.zeros(rows), np.zeros((rows, sector.dim)))

    def test_rejects_wrong_shape(self):
        basis = SectorBasis(4, 2)
        with pytest.raises(ValueError, match="shape"):
            apply_hamiltonian(basis, 1.0, np.zeros(5))


class TestDenseOracle:
    def test_four_site_heisenberg_spectrum(self):
        # ring of 4 at delta=1: singlet ground state at -2, known spectrum
        eigs = dense_spectrum_oracle(4, 1.0)
        assert eigs[0] == approx(-2.0, abs=1e-12)
        assert eigs[-1] == approx(1.0, abs=1e-12)

    def test_xx_point_matches_free_fermions(self):
        for n in (4, 6, 8, 10):
            assert dense_spectrum_oracle(n, 0.0)[0] == approx(
                free_fermion_energy(n), abs=1e-12
            )

    def test_refuses_large_sectors(self):
        with pytest.raises(ValueError, match="too large"):
            dense_sector_hamiltonian(18, 1.0)


def expanded(gs):
    """The S^z = 0 amplitudes ψ = Uφ of a ground state, ascending configurations."""
    return expand(gs.sector, gs.phi)


def bloch_columns(sector):
    """U as a dense matrix: the sector amplitudes of each symmetrized state."""
    return np.stack([expand(sector, e) for e in np.eye(sector.dim)], axis=1)


def dense_reduced_hamiltonian(sector, delta):
    """H_χ as a dense matrix, one `apply_hamiltonian` column at a time."""
    return np.stack([apply_hamiltonian(sector, delta, e) for e in np.eye(sector.dim)], axis=1)


def translation_block_minimum(n_sites, delta):
    """Lowest eigenvalue of `dense_sector_hamiltonian`, as the minimum over its N momentum blocks.

    The translation orbits are built here from plain integer rotations.  The
    Bloch state of an orbit b of length R_b at a momentum k with
    kR_b ≡ 0 (mod N) is |b, k⟩ = Σ_{s<R_b} e^{2πiks/N} |T^s b⟩ / √R_b.  H
    commutes with T, so H|b, k⟩ is a T eigenvector like |a, k⟩ and

        ⟨a, k|H|b, k⟩ = √(R_a/R_b) Σ_{s<R_b} e^{2πiks/N} H[a, T^s b]
                      = √(R_a R_b) · (1/N) Σ_{m<N} e^{2πikm/N} H[a, T^m b],

    one inverse FFT over m of the representatives' rotated columns.
    """
    h = dense_sector_hamiltonian(n_sites, delta)
    configs = sector_configs(n_sites)
    index = {c: a for a, c in enumerate(configs)}
    mask = (1 << n_sites) - 1
    reps, lengths, turns, seen = [], [], [], set()
    for c in configs:
        if c in seen:
            continue
        orbit = [c]
        for _ in range(n_sites - 1):
            orbit.append(((orbit[-1] << 1) | (orbit[-1] >> (n_sites - 1))) & mask)
        seen.update(orbit)
        reps.append(index[c])
        lengths.append(len(set(orbit)))
        turns.append([index[t] for t in orbit])
    blocks = np.fft.ifft(h[reps][:, turns], axis=2)  # [a, b, k]
    lengths = np.array(lengths)
    lowest, columns = math.inf, 0
    for k in range(n_sites):
        keep = np.flatnonzero(k * lengths % n_sites == 0)
        block = np.sqrt(np.outer(lengths[keep], lengths[keep])) * blocks[keep[:, None], keep, k]
        assert np.abs(block - block.conj().T).max() <= 1e-12
        lowest = min(lowest, np.linalg.eigvalsh(block)[0])
        columns += keep.size
    assert columns == len(configs)  # the blocks together span the sector
    return lowest


def group_images(n_sites):
    """[(χ(g), index of g·c for each sector configuration c)] for the 4N elements g = T^s h.

    Built from plain integer bit operations on the ascending configurations:
    T moves bit i to bit i+1, the reflection P bit i to bit −i mod N, and
    the spin inversion Z flips every bit.  h runs over 1, P, Z, PZ, and
    χ(T) = χ(Z) = (−1)^(N/2), χ(P) = 1.
    """
    configs = sector_configs(n_sites)
    index = {c: a for a, c in enumerate(configs)}
    mask = (1 << n_sites) - 1
    parity = (-1) ** (n_sites // 2)

    def reflect(c):
        return sum(((c >> i) & 1) << (-i % n_sites) for i in range(n_sites))

    elements = []
    for h, char in ((lambda c: c, 1), (reflect, 1), (lambda c: c ^ mask, parity),
                    (lambda c: reflect(c) ^ mask, parity)):
        images = [h(c) for c in configs]
        for s in range(n_sites):
            elements.append((char * parity**s, np.array([index[c] for c in images])))
            images = [((c << 1) | (c >> (n_sites - 1))) & mask for c in images]
    return elements


def act(image, psi):
    """g·ψ for the element with index map `image`: (gψ)(g c) = ψ(c)."""
    moved = np.empty_like(psi)
    moved[image] = psi
    return moved


def two_pass_reference(n_sites):
    """(S^z = 0 states, G-representatives, orbit sizes, a(c), χ(g_c)/√O) over the full sector.

    The construction the sector used before it stopped enumerating S^z = 0:
    rotate every configuration to its translation representative, apply P,
    Z and PZ to those representatives, keep the smallest image, and gather
    through the translation orbits.  Its rotations and reflection are its own.
    """
    mask = np.uint64((1 << n_sites) - 1)

    def rotate(x):
        return ((x << np.uint64(1)) | (x >> np.uint64(n_sites - 1))) & mask

    def smallest_rotation(x):
        rep, shift, rot = x.copy(), np.zeros(x.size, dtype=np.int8), x
        for s in range(1, n_sites):
            rot = rotate(rot)
            smaller = rot < rep
            rep[smaller] = rot[smaller]
            shift[smaller] = s
        return rep, shift

    def reflect(x):
        out = x & np.uint64(1)
        for i in range(1, n_sites):
            out |= ((x >> np.uint64(i)) & np.uint64(1)) << np.uint64(n_sites - i)
        return out

    states = SectorBasis(n_sites, n_sites // 2).states
    parity = -1 if (n_sites // 2) % 2 else 1
    rep, shift = smallest_rotation(states)
    t_reps = states[shift == 0]
    t_orbit = np.searchsorted(t_reps, rep)
    g_rep, g_char = t_reps.copy(), np.ones(t_reps.size)
    flipped = t_reps ^ mask
    for image, h_char in ((reflect(t_reps), 1.0), (flipped, parity), (reflect(flipped), parity)):
        image_rep, u = smallest_rotation(image)
        smaller = image_rep < g_rep
        g_rep[smaller] = image_rep[smaller]
        g_char[smaller] = h_char * np.where(u[smaller] & 1, parity, 1.0)
    reps = t_reps[g_rep == t_reps]
    t_class = np.searchsorted(reps, g_rep)
    orbit = t_class[t_orbit]
    sizes = np.bincount(orbit, minlength=reps.size)
    coef = (g_char / np.sqrt(sizes)[t_class])[t_orbit]
    if parity < 0:
        coef[(shift & 1) == 1] *= -1.0
    return states, reps, sizes, orbit, coef


class TestSectorOracle:
    """The chunked sector build against the full-sector two-pass construction."""

    @pytest.mark.parametrize("n_sites", range(4, 22, 2))
    def test_matches_the_two_pass_construction(self, n_sites):
        states, reps, sizes, orbit, coef = two_pass_reference(n_sites)
        sector = MomentumSector(n_sites)
        assert np.array_equal(sector._reps, reps)
        assert np.array_equal(sector._root_size, np.sqrt(sizes))
        located_orbit, located_coef = sector._locate(states)
        assert np.array_equal(located_orbit, orbit)
        assert np.array_equal(located_coef, coef)

    def test_builds_nothing_as_long_as_the_sector(self):
        # the 2^22 pattern table alone is 32 MB, the S^z = 0 sector 5.6 MB
        tracemalloc.start()
        try:
            MomentumSector(22)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_flip_table_keeps_intp_indices(self):
        src, dst, _ = MomentumSector(12)._flip_pairs
        assert src.dtype == dst.dtype == np.intp


class TestMomentumSector:
    def test_sector_sizes(self):
        assert MomentumSector(16).dim == 257
        assert MomentumSector(20).dim == 2518

    @pytest.mark.parametrize("n_sites", [4, 6, 8, 10, 12, 14, 16])
    def test_nearest_neighbor_pair_table_is_the_general_build(self, n_sites):
        # r = 1 reads the Hamiltonian's flip table; it must equal a fresh build of the bonds
        sector = MomentumSector(n_sites)
        src, dst, element = sector._flip_table(spinchain._pair_masks(n_sites, 1))
        scale = 2 * n_sites
        want = ((n_sites - np.bincount(src, minlength=sector.dim)) / scale,
                src.astype(np.int32), dst.astype(np.int32), element / scale)
        for got in (sector.pair_table(1), sector.pair_table(n_sites - 1)):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_pair_table_folds_and_checks_the_separation(self):
        sector = MomentumSector(12)
        for r in range(1, 6):
            near, far = sector.pair_table(r), sector.pair_table(12 - r)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(near, far))
        for r in (0, 12, -1):
            with pytest.raises(ValueError, match=rf"^separation {r} outside \[1, 11\]$"):
                sector.pair_table(r)

    @pytest.mark.parametrize("n_sites", [4, 6, 8, 10, 12, 14])
    def test_projects_the_dense_hamiltonian(self, n_sites):
        sector = MomentumSector(n_sites)
        u = bloch_columns(sector)
        assert u.T @ u == approx(np.eye(sector.dim), abs=1e-14)
        for delta in (-0.5, 1.0, 2.5):
            dense = dense_sector_hamiltonian(n_sites, delta)
            assert dense_reduced_hamiltonian(sector, delta) == approx(
                u.T @ dense @ u, abs=1e-12
            )

    @pytest.mark.parametrize("n_sites", [4, 6, 8, 10, 12, 14])
    def test_columns_span_the_character_space(self, n_sites):
        # U Uᵀ is the projector (1/4N) Σ_g χ(g) g on the states with gψ = χ(g)ψ
        sector = MomentumSector(n_sites)
        u = bloch_columns(sector)
        elements = group_images(n_sites)
        projected = sum(char * act(image, u) for char, image in elements) / len(elements)
        assert projected == approx(u, abs=1e-14)  # every column lies in the space
        identity = np.arange(math.comb(n_sites, n_sites // 2))
        trace = sum(char * np.count_nonzero(image == identity) for char, image in elements)
        assert trace == len(elements) * sector.dim  # and the columns span it

    @pytest.mark.parametrize("n_sites", [4, 6, 8, 10, 12, 14])
    def test_holds_the_sector_ground_state(self, n_sites):
        # Marshall's sign rule puts the S^z = 0 ground state at λ = (−1)^(N/2)
        sector = MomentumSector(n_sites)
        for delta in (-0.99, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0):
            e0 = translation_block_minimum(n_sites, delta)
            if n_sites <= 12:
                assert e0 == approx(dense_spectrum_oracle(n_sites, delta)[0], abs=1e-12)
            reduced = np.linalg.eigvalsh(dense_reduced_hamiltonian(sector, delta))
            assert reduced[0] == approx(e0, abs=1e-10)
            assert ground_state(n_sites, delta).energy == approx(e0, abs=1e-10)

    @pytest.mark.parametrize("n_sites", [8, 10])
    def test_ground_state_has_the_translation_eigenvalue(self, n_sites):
        gs = ground_state(n_sites, 0.7)
        psi, basis = expanded(gs), SectorBasis(n_sites, n_sites // 2)
        mask = (1 << n_sites) - 1
        rot = [
            basis.index_of(((int(s) << 1) | (int(s) >> (n_sites - 1))) & mask)
            for s in basis.states
        ]
        parity = (-1) ** (n_sites // 2)
        assert psi[rot] == approx(parity * psi, abs=1e-15)

    @pytest.mark.parametrize("n_sites", [8, 10])
    def test_ground_state_has_the_reflection_and_inversion_eigenvalues(self, n_sites):
        psi = expanded(ground_state(n_sites, 0.7))
        elements = group_images(n_sites)
        for char, image in (elements[n_sites], elements[2 * n_sites]):  # P and Z
            assert act(image, psi) == approx(char * psi, abs=1e-15)

    def test_expanded_vector_solves_the_full_sector(self):
        basis = SectorBasis(16, 8)
        for delta in (0.5, 1.0):
            gs = ground_state(16, delta)
            psi = expanded(gs)
            full = apply_hamiltonian(basis, delta, psi)
            assert np.linalg.norm(full - gs.energy * psi) <= 1e-10
            assert np.linalg.norm(psi) == approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_sites", [4, 6, 8, 10, 12, 14])
    def test_marshall_start_has_the_ground_state_signs(self, n_sites):
        sector = MomentumSector(n_sites)
        start = expand(sector, sector.start)
        u = bloch_columns(sector)
        for delta in (-0.9, 0.0, 1.0, 2.0):
            # the dense ground vector, from the independently built sector matrix
            _, vecs = np.linalg.eigh(u.T @ dense_sector_hamiltonian(n_sites, delta) @ u)
            psi = u @ vecs[:, 0]
            big = np.abs(psi) > 1e-8
            agree = np.sign(start[big]) * np.sign(psi[big])
            assert np.all(agree == agree[0])  # up to the eigenvector's overall sign
            assert agree[0] * (psi @ start) > 0.0

    def test_twenty_sites_match_the_full_sector_solver(self):
        # energy of the 184,756-state S^z = 0 Lanczos solve that this replaced
        assert ground_state(20, 1.0).energy == approx(-8.904386529876442, abs=1e-10)


class TestGroundState:
    def test_four_site_heisenberg_energy(self):
        gs = ground_state(4, 1.0)
        assert gs.energy == approx(-2.0, abs=1e-10)
        assert gs.residual <= 1e-8
        assert np.linalg.norm(expanded(gs)) == approx(1.0, abs=1e-10)

    def test_twelve_site_xx_energy(self):
        gs = ground_state(12, 0.0)
        assert gs.energy == approx(free_fermion_energy(12), abs=1e-8)
        assert gs.energy == approx(-3.8637033051562732, abs=1e-8)

    def test_energies_match_dense_oracle(self):
        for n in (4, 6, 8, 10):
            for delta in (0.0, 0.5, 1.0, 2.0):
                e0 = dense_spectrum_oracle(n, delta)[0]
                assert ground_state(n, delta).energy == approx(e0, abs=1e-8)
        assert ground_state(6, 2.0).energy == approx(
            dense_spectrum_oracle(6, 2.0)[0], abs=1e-10
        )

    def test_vector_matches_dense_eigenvector(self):
        gs = ground_state(8, 0.5)
        h = dense_sector_hamiltonian(8, 0.5)
        _, vecs = np.linalg.eigh(h)
        overlap = abs(float(expanded(gs) @ vecs[:, 0]))
        assert overlap == approx(1.0, abs=1e-8)

    def test_ritz_history_monotone_nonincreasing(self):
        hist = ground_state(10, 1.3).ritz_history
        assert len(hist) >= 2
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    @pytest.mark.parametrize("n_sites, delta", [(10, 1.0), (12, -0.9), (12, 2.0)])
    def test_restarted_cycles_match_dense_oracle(self, monkeypatch, n_sites, delta):
        monkeypatch.setattr(spinchain, "_KRYLOV_VECTORS", 10)
        gs = ground_state(n_sites, delta)
        _, vecs = np.linalg.eigh(dense_sector_hamiltonian(n_sites, delta))
        assert gs.energy == approx(dense_spectrum_oracle(n_sites, delta)[0], abs=1e-10)
        assert abs(float(expanded(gs) @ vecs[:, 0])) >= 1.0 - 1e-8
        assert gs.residual <= 1e-8
        assert gs.iterations > 10  # more than one 10-vector cycle: it restarted
        hist = gs.ritz_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_deterministic_for_fixed_seed(self):
        a = ground_state(8, 0.7)
        b = ground_state(8, 0.7)
        assert np.array_equal(a.phi, b.phi)
        assert a.energy == b.energy

    def test_iterations_count_steps_and_ritz_checks_skip_most(self, monkeypatch):
        """T is diagonalized on every fourth new step, a cycle's last and a tiny-β one."""
        eighs, matvecs = [], []
        real_eigh, real_matvec = np.linalg.eigh, spinchain.apply_hamiltonian

        def counting_eigh(a):
            assert a.shape[0] == 1  # a lone Δ is a block of one
            eighs.append(a.shape[1:])
            return real_eigh(a)

        def counting_matvec(basis, delta, psi):
            assert psi.shape == (1, basis.dim)
            matvecs.append(1)
            return real_matvec(basis, delta, psi)

        monkeypatch.setattr(spinchain, "apply_hamiltonian", counting_matvec)
        monkeypatch.setattr(spinchain.np.linalg, "eigh", counting_eigh)
        gs = ground_state(16, 1.0)
        m, kept = spinchain._KRYLOV_VECTORS, spinchain._KEPT_RITZ
        # a first cycle of m steps, then m - kept new steps per restarted cycle
        cycles = 1 + math.ceil(max(0, gs.iterations - m) / (m - kept))
        assert cycles == 2
        # each unconverged cycle ends on a check of the full T
        assert sum(shape == (m, m) for shape in eighs[:-1]) == cycles - 1
        # one matvec per Lanczos step plus the explicit residual
        assert gs.iterations == len(matvecs) - 1
        assert len(eighs) == len(gs.ritz_history)
        assert len(eighs) <= math.ceil(gs.iterations / 4) + cycles + 1

    @pytest.mark.parametrize("n_sites", [16, 20])
    def test_ritz_steps_stay_below_the_divide_and_conquer_size(self, monkeypatch, n_sites):
        """No T reaches 26 rows, where LAPACK's eigh turns to threaded divide-and-conquer."""
        shapes = []
        real_eigh = np.linalg.eigh

        def recording_eigh(a):
            shapes.append(a.shape)
            return real_eigh(a)

        monkeypatch.setattr(spinchain.np.linalg, "eigh", recording_eigh)
        gs = ground_state(n_sites, 1.0)
        assert gs.iterations > spinchain._KRYLOV_VECTORS  # it restarted
        assert spinchain._KRYLOV_VECTORS <= 25
        assert all(rows == cols <= spinchain._KRYLOV_VECTORS for _block, rows, cols in shapes)

    @pytest.mark.parametrize("n_sites", [16, 20])
    def test_thick_restart_keeps_the_lowest_ritz_values(self, monkeypatch, n_sites):
        """A restarted T leads with the last cycle's lowest Ritz values, bordered by an arrow."""
        calls = []
        real_eigh = np.linalg.eigh

        def recording_eigh(a):  # a lone Δ: a stack of one T
            calls.append((a[0].copy(), real_eigh(a)[0][0]))
            return real_eigh(a)

        monkeypatch.setattr(spinchain.np.linalg, "eigh", recording_eigh)
        gs = ground_state(n_sites, 1.0)
        m, kept = spinchain._KRYLOV_VECTORS, spinchain._KEPT_RITZ
        restarts = [i for i, (a, _) in enumerate(calls[:-1]) if a.shape == (m, m)]
        assert restarts
        for i in restarts:
            previous, (t, _) = calls[i][1], calls[i + 1]
            assert np.array_equal(t[:kept, :kept], np.diag(previous[:kept]))
            assert np.all(t[kept, :kept] != 0.0)
            assert np.array_equal(t[kept + 1 :, :kept], np.zeros((t.shape[0] - kept - 1, kept)))
        # interlacing: the first check after a restart cannot lose ground, to rounding
        hist = gs.ritz_history
        assert all(hist[i + 1] <= hist[i] + 1e-14 * abs(hist[i]) for i in restarts)
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_spin_flip_symmetry_of_amplitudes(self):
        psi, basis = expanded(ground_state(8, 0.7)), SectorBasis(8, 4)
        mask = (1 << 8) - 1
        flipped = [basis.index_of(int(s) ^ mask) for s in basis.states]
        assert np.abs(psi) == approx(np.abs(psi[flipped]), abs=1e-8)

    def test_translation_invariance_of_weights(self):
        n = 8
        psi, basis = expanded(ground_state(n, 1.0)), SectorBasis(n, n // 2)
        mask = (1 << n) - 1
        rot = [
            basis.index_of(((int(s) << 1) | (int(s) >> (n - 1))) & mask)
            for s in basis.states
        ]
        assert np.abs(psi) == approx(np.abs(psi[rot]), abs=1e-8)

    def test_ferromagnetic_regime_raises(self):
        with pytest.raises(FerromagneticRegimeError):
            ground_state(4, -1.0)
        with pytest.raises(FerromagneticRegimeError):
            ground_state(6, -1.5)

    @pytest.mark.parametrize("delta", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_delta_before_building_a_sector(self, monkeypatch, delta):
        spinchain._momentum_sector.cache_clear()
        monkeypatch.setattr(spinchain, "build_sector", None)  # a build would raise TypeError
        with pytest.raises(ValueError, match=rf"^delta={delta!r} is not finite$"):
            ground_state(8, delta)

    def test_rejects_delta_above_the_cap_before_any_state(self, monkeypatch, tmp_path):
        """Δ = MAX_DELTA solves; a larger Δ anywhere in a sweep stops it before its first state."""
        assert ground_state(8, spinchain.MAX_DELTA).residual <= 1e-11
        spinchain._momentum_sector.cache_clear()
        monkeypatch.setattr(spinchain, "build_sector", None)  # a build would raise TypeError
        sweep = ground_states(8, [0.5, 5000.0], cache_dir=tmp_path / "cache")
        with pytest.raises(ValueError, match=r"^delta=5000.0 above 1000: "):
            next(sweep)
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("delta", [0.5, math.nan])
    def test_rejects_a_bad_ring_before_its_deltas_or_a_sector(self, monkeypatch, delta):
        monkeypatch.setattr(spinchain, "build_sector", None)  # a build would raise TypeError
        with pytest.raises(ValueError, match=r"^n_sites must be even and >= 4, got 5 "):
            next(ground_states(5, [delta]))

    @pytest.mark.parametrize("gap, raises", [(5e-11, True), (1e-9, False)])
    def test_degenerate_ground_state_raises(self, monkeypatch, gap, raises):
        """A lowest Ritz gap at or below 1e-10 is refused, a wider one is not.

        The N = 8 sector gets a fake diagonal H_χ whose two lowest levels
        are `gap` apart.  An exactly zero gap is not asserted: a single-start
        Lanczos sees only its start vector's component in a degenerate
        eigenspace, so it finds one level, not two (ROADMAP item 3).
        """
        dim = MomentumSector(8).dim
        levels = np.concatenate([[-1.0, -1.0 + gap], np.linspace(0.0, 4.0, dim - 2)])
        monkeypatch.setattr(
            spinchain, "apply_hamiltonian", lambda basis, delta, psi: levels * psi
        )
        if raises:
            with pytest.raises(DegenerateGroundStateError):
                ground_state(8, 1.0)
        else:
            assert ground_state(8, 1.0).energy == approx(-1.0, abs=1e-8)

    def test_invariant_subspace_stops_on_its_step(self):
        """A start spanning three eigenvectors stops after step 3, dividing by no β ≈ 0."""
        levels = np.array([2.0, -1.5, 0.25, 3.0, 1.0, 4.0])
        start = np.array([0.0, 0.6, 0.48, 0.0, 0.64, 0.0])
        calls = []

        def matvec(deltas, p):
            calls.append(1)
            return levels * p

        with np.errstate(all="raise"):
            ((energy, vec, residual, history, gap, steps),) = spinchain._lanczos_lowest(
                matvec, start, [0.0]
            )
        assert steps == 3
        assert len(calls) == 4  # three steps and the explicit residual
        assert len(history) == 1  # the one check, on the invariant step
        assert energy == approx(-1.5, abs=1e-14)
        assert history[0] == approx(-1.5, abs=1e-14)
        assert gap == approx(1.75, abs=1e-14)
        assert residual <= 1e-14
        assert abs(vec[1]) == approx(1.0, abs=1e-14)

    def test_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(spinchain, "_MAX_CYCLES", 0)
        with pytest.raises(ConvergenceError):
            ground_state(12, 1.0)


# the benchmark's fig3 grid, -1.5:2.5:0.05, where Δ > −1
SWEEP = [d for d in (round(-1.5 + 0.05 * i, 12) for i in range(81)) if d > -1.0]


def same_state(a, b):
    return (np.array_equal(a.phi, b.phi) and a.energy == b.energy and a.residual == b.residual
            and a.ritz_history == b.ritz_history and a.iterations == b.iterations)


class TestLockstepBlocks:
    @pytest.mark.parametrize("n_sites", [8, 12, 16])
    def test_a_state_does_not_depend_on_its_block(self, monkeypatch, n_sites):
        """Alone, in one block, shuffled or at two other widths: the same bits for every Δ.

        One CPU is pinned, so that no forked worker solves blocks whose rows
        the recorder in this process would miss.
        """
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        alone = {delta: ground_state(n_sites, delta) for delta in SWEEP}
        if n_sites == 12:
            assert alone[0.0].iterations == 13  # its Krylov space turns invariant off the schedule
        shuffled = SWEEP[:]
        random.Random(n_sites).shuffle(shuffled)
        rows, real = [], spinchain.apply_hamiltonian

        def recording(basis, deltas, psi):
            rows.append(psi.shape[0])
            return real(basis, deltas, psi)

        monkeypatch.setattr(spinchain, "apply_hamiltonian", recording)
        sector = spinchain._momentum_sector(n_sites)
        for deltas in (SWEEP, shuffled):
            rows.clear()
            states = list(ground_states(n_sites, deltas))
            assert max(rows) == min(sector.width, len(SWEEP))
            assert all(same_state(state, alone[delta]) for delta, state in zip(deltas, states))
        try:
            for width in (3, 7):
                block_bytes = width * spinchain._KRYLOV_VECTORS * sector.dim * 8
                monkeypatch.setattr(spinchain, "_BLOCK_BYTES", block_bytes)
                spinchain._momentum_sector.cache_clear()  # the sector sets the width
                rows.clear()
                states = list(ground_states(n_sites, shuffled))
                assert max(rows) == width
                assert all(same_state(state, alone[delta]) for delta, state in zip(shuffled, states))
        finally:  # no later test gets a sector of the patched width
            spinchain._momentum_sector.cache_clear()

    def test_a_column_restarted_from_its_ritz_vector_keeps_its_bits(
        self, monkeypatch, spoil_first_check
    ):
        """One CPU is pinned, so that the `_lockstep` recorder sees every block in this process."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        deltas = [0.0, 0.25, 0.5, 0.75, 1.0]
        steps = ground_state(12, 0.5).iterations
        blocks, lockstep = [], spinchain._lockstep

        def recording(matvec, columns, *args):
            blocks.append([col.delta for col in columns])
            return lockstep(matvec, columns, *args)

        monkeypatch.setattr(spinchain, "_lockstep", recording)
        spoil_first_check(0.5, steps)
        alone = ground_state(12, 0.5)
        assert alone.iterations > steps and alone.residual <= 1e-11
        assert blocks == [[0.5], [0.5]]  # the restart runs in a block of its own
        for order in (deltas, deltas[::-1]):
            blocks.clear()
            spoil_first_check(0.5, steps)
            states = dict(zip(order, ground_states(12, order)))
            assert blocks == [order, [0.5]]
            assert same_state(states[0.5], alone)
            assert all(same_state(states[d], ground_state(12, d)) for d in order if d != 0.5)

    def test_a_failure_mid_block_raises_at_its_delta(self, monkeypatch, tmp_path, spoil_first_check):
        """Δ = 0.5 needs a second cycle and has none: the sweep yields and caches what precedes it."""
        deltas = [0.0, 0.25, 0.5, 0.75, 1.0]
        spoil_first_check(0.5, ground_state(12, 0.5).iterations)
        monkeypatch.setattr(spinchain, "_MAX_CYCLES", 1)
        sweep = ground_states(12, deltas, cache_dir=tmp_path)
        assert [next(sweep).delta for _ in range(2)] == [0.0, 0.25]
        with pytest.raises(ConvergenceError):
            next(sweep)
        expected = {cache_path(tmp_path, 12, 6, d).name for d in (0.0, 0.25)}
        assert {path.name for path in tmp_path.iterdir()} == expected

    def test_a_column_out_of_cycles_at_a_cycle_end_raises_at_its_delta(self, monkeypatch):
        """Δ = 0 converges in the first cycle; Δ = 0.5 needs a second, and has none."""
        alone = ground_state(14, 0.0)
        assert (alone.iterations, ground_state(14, 0.5).iterations) == (20, 28)
        assert spinchain._momentum_sector(14).width > 1  # both share one block
        monkeypatch.setattr(spinchain, "_MAX_CYCLES", 1)
        sweep = ground_states(14, [0.0, 0.5])
        assert same_state(next(sweep), alone)
        with pytest.raises(ConvergenceError, match="did not converge in 1 cycles"):
            next(sweep)

    def test_cache_hits_and_misses_come_back_in_order(self, tmp_path):
        for delta in (0.5, 1.5):
            ground_state(10, delta, cache_dir=tmp_path)
        deltas = [1.5, 0.0, 0.5, 1.0, 2.0]
        states = list(ground_states(10, deltas, cache_dir=tmp_path))
        assert [state.delta for state in states] == deltas
        assert [state.iterations == 0 for state in states] == [True, False, True, False, False]
        assert all(same_state(state, ground_state(10, d)) for d, state in zip(deltas, states)
                   if state.iterations)

    def test_checks_every_delta_before_solving(self, monkeypatch):
        monkeypatch.setattr(spinchain, "_lanczos_lowest", None)  # a solve would raise TypeError
        with pytest.raises(FerromagneticRegimeError):
            next(ground_states(8, [0.5, -1.0]))
        with pytest.raises(ValueError, match="not finite"):
            next(ground_states(8, [0.5, math.nan]))


class TestCache:
    def test_roundtrip_is_exact(self, tmp_path):
        gs = ground_state(8, 0.5, cache_dir=tmp_path)
        path = cache_path(tmp_path, 8, 4, 0.5)
        assert path.exists()
        loaded = load_ground_state(path, (8, 4, 0.5))
        assert loaded is not None
        energy, phi = loaded
        assert energy == gs.energy
        assert np.array_equal(phi, gs.phi)

    def test_hit_reproduces_cold_run_exactly(self, tmp_path):
        cold = ground_state(10, 1.0, cache_dir=tmp_path)
        warm = ground_state(10, 1.0, cache_dir=tmp_path)
        assert warm.iterations == 0  # served from disk
        assert warm.energy == cold.energy
        assert np.array_equal(warm.phi, cold.phi)

    def test_minus_zero_delta_is_the_zero_entry(self, tmp_path):
        cold = ground_state(8, 0.0, cache_dir=tmp_path)
        warm = ground_state(8, -0.0, cache_dir=tmp_path)
        assert cold.iterations > 0
        assert warm.iterations == 0
        assert math.copysign(1.0, warm.delta) == 1.0
        assert [p.name for p in tmp_path.iterdir()] == [cache_path(tmp_path, 8, 4, 0.0).name]

    def test_key_separates_parameters(self, tmp_path):
        ground_state(8, 0.5, cache_dir=tmp_path)
        for key in ((8, 4, 0.6), (10, 5, 0.5)):
            assert load_ground_state(cache_path(tmp_path, *key), key) is None

    def test_corrupt_payload_is_rejected_and_resolved(self, tmp_path):
        gs = ground_state(8, 0.5, cache_dir=tmp_path)
        path = cache_path(tmp_path, 8, 4, 0.5)
        blob = bytearray(path.read_bytes())
        blob[60] ^= 0xFF  # flip one payload byte; CRC must catch it
        path.write_bytes(bytes(blob))
        assert load_ground_state(path, (8, 4, 0.5)) is None
        again = ground_state(8, 0.5, cache_dir=tmp_path)
        assert again.iterations > 0  # cache miss forced a fresh solve
        assert np.array_equal(again.phi, gs.phi)
        assert load_ground_state(path, (8, 4, 0.5)) is not None  # rewritten clean

    @pytest.mark.parametrize(
        "cut", [slice(None, -7), slice(None, 10), slice(0, 0)],
        ids=["7_bytes_off", "10_bytes_left", "empty"],
    )
    def test_truncated_file_is_rejected(self, tmp_path, cut):
        """A cut payload, and a file shorter than its header and footer, are misses."""
        gs = ground_state(8, 0.5, cache_dir=tmp_path)
        path = cache_path(tmp_path, 8, 4, 0.5)
        path.write_bytes(path.read_bytes()[cut])
        assert load_ground_state(path, (8, 4, 0.5)) is None
        again = ground_state(8, 0.5, cache_dir=tmp_path)
        assert again.iterations > 0  # cache miss forced a fresh solve
        assert np.array_equal(again.phi, gs.phi)
        assert load_ground_state(path, (8, 4, 0.5)) is not None  # rewritten clean

    def test_wrong_magic_is_rejected(self, tmp_path):
        ground_state(8, 0.5, cache_dir=tmp_path)
        path = cache_path(tmp_path, 8, 4, 0.5)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert load_ground_state(path, (8, 4, 0.5)) is None

    @pytest.mark.parametrize(
        "field, value",
        [(1, 10), (2, 3), (3, 0.6), (4, 1e-10)],
        ids=["n_sites", "n_up", "delta", "tol"],
    )
    def test_header_must_match_the_requested_key(self, tmp_path, field, value):
        """A CRC-valid entry whose header records another (N, n_up, Δ), or a tol
        other than TOL, is a miss at the request's path, solved and written again."""
        gs = ground_state(8, 0.5, cache_dir=tmp_path)
        path = cache_path(tmp_path, 8, 4, 0.5)
        blob = path.read_bytes()
        header = list(spinchain._CACHE_HEADER.unpack_from(blob))
        header[field] = value
        path.write_bytes(spinchain._CACHE_HEADER.pack(*header) + blob[spinchain._CACHE_HEADER.size:])
        assert load_ground_state(path, (8, 4, 0.5)) is None
        again = ground_state(8, 0.5, cache_dir=tmp_path)
        assert again.iterations > 0  # the entry forced a solve
        assert np.array_equal(again.phi, gs.phi)
        assert path.read_bytes() == blob  # rewritten

    @pytest.mark.parametrize("scale", [0.0, 0.5, math.nan], ids=["zero", "half_norm", "nan"])
    def test_unnormalized_entry_is_rejected_and_resolved(self, tmp_path, scale):
        # CRC-valid, and its residual passes (or is NaN): the norm check catches it
        gs = ground_state(8, 0.5, cache_dir=tmp_path)
        key = (8, 4, 0.5)
        path = cache_path(tmp_path, *key)
        save_ground_state(path, dataclasses.replace(gs, phi=scale * gs.phi))
        assert np.array_equal(load_ground_state(path, key)[1], scale * gs.phi, equal_nan=True)

        again = ground_state(8, 0.5, cache_dir=tmp_path)
        assert again.iterations > 0  # the unnormalized entry forced a solve
        assert again.energy == gs.energy
        assert np.array_equal(again.phi, gs.phi)
        assert np.array_equal(load_ground_state(path, key)[1], gs.phi)  # rewritten

    def test_nan_energy_entry_is_rejected_and_resolved(self, tmp_path):
        # the CRC covers only φ, so a NaN energy in the header reaches the residual check
        gs = ground_state(8, 0.5, cache_dir=tmp_path)
        key = (8, 4, 0.5)
        path = cache_path(tmp_path, *key)
        save_ground_state(path, dataclasses.replace(gs, energy=math.nan))
        assert math.isnan(load_ground_state(path, key)[0])

        again = ground_state(8, 0.5, cache_dir=tmp_path)
        assert again.iterations > 0  # the NaN entry forced a solve
        assert again.energy == gs.energy
        assert load_ground_state(path, key)[0] == gs.energy  # rewritten

    def test_version_two_entry_is_never_read(self, tmp_path):
        # a valid entry under the version-2 name: the version-3 reader never opens it
        gs = ground_state(8, 0.5)
        key = (8, 4, 0.5)
        current = cache_path(tmp_path, *key)
        assert current.name.endswith("_v3.bin")
        old = current.with_name(current.name.replace("_v3.bin", "_v2.bin"))
        save_ground_state(old, gs)
        again = ground_state(8, 0.5, cache_dir=tmp_path)
        assert again.iterations > 0  # solved, not read
        assert current.exists()

    def test_saved_file_mode_follows_umask(self, tmp_path):
        gs = ground_state(6, 1.5)
        path = tmp_path / "state.bin"
        old = os.umask(0o022)
        try:
            save_ground_state(path, gs)
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o644

    def test_writer_does_not_depend_on_a_shared_temp_name(self, tmp_path):
        # a directory where a fixed "<key>.tmp" would go blocks such a writer
        gs = ground_state(6, 1.5)
        path = cache_path(tmp_path, 6, 3, 1.5)
        path.with_suffix(".tmp").mkdir()
        save_ground_state(path, gs)
        energy, phi = load_ground_state(path, (6, 3, 1.5))
        assert energy == gs.energy
        assert np.array_equal(phi, gs.phi)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [path.name, path.with_suffix(".tmp").name]
        )

    def test_failed_save_leaves_no_temp_file(self, tmp_path, monkeypatch):
        gs = ground_state(6, 1.5)
        path = cache_path(tmp_path, 6, 3, 1.5)

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_ground_state(path, gs)
        assert list(tmp_path.iterdir()) == []

    def test_a_save_into_an_existing_directory_makes_none(self, tmp_path, monkeypatch):
        gs = ground_state(6, 1.5)
        made = []
        monkeypatch.setattr(spinchain.Path, "mkdir", lambda *args, **kwargs: made.append(args))
        save_ground_state(cache_path(tmp_path, 6, 3, 1.5), gs)
        assert made == []
        assert load_ground_state(cache_path(tmp_path, 6, 3, 1.5), (6, 3, 1.5))[0] == gs.energy

    def test_save_load_helpers_compose(self, tmp_path):
        gs = ground_state(6, 1.5)
        path = tmp_path / "nested" / "dir" / "state.bin"
        save_ground_state(path, gs)
        energy, phi = load_ground_state(path, (6, 3, 1.5))
        assert energy == gs.energy
        assert np.array_equal(phi, gs.phi)
