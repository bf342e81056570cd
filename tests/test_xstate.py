"""Tests for the X-state discord closed forms."""

import cmath
import math
from dataclasses import FrozenInstanceError, dataclass

import numpy as np
import pytest

from spindiscord.cli import _range_arg
from spindiscord import xstate
from spindiscord.correlators import pair_state_sweep
from spindiscord.xstate import (
    OptimalTheta,
    XState,
    binary_entropy,
    c00,
    c90,
    conditional_entropy_values,
    discord,
    random_xstate,
)

from oracles import discord_grid_verify, pure_state_discord

BELL = XState(0.5, 0.5, 0.0, 0.0, 0.0, 0.5)
# Isotropic pair state at gamma = -1/6: u = v = 1/4 + gamma, w = 1/4 - gamma, x = 2*gamma.
ISO_SIXTH = XState(1 / 12, 1 / 12, 5 / 12, 5 / 12, -1 / 3, 0.0)


def dense_matrix(s: XState) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    np.fill_diagonal(m, [s.u, s.w1, s.w2, s.v])
    m[2, 1] = s.x
    m[1, 2] = np.conj(s.x)
    m[3, 0] = s.y
    m[0, 3] = np.conj(s.y)
    return m


class TestBinaryEntropy:
    def test_endpoints_vanish(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_spot_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-14)

    def test_symmetric(self):
        rng = np.random.default_rng(7)
        for p in rng.uniform(0.0, 1.0, 50):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-13)

    def test_clamps_roundoff(self):
        assert binary_entropy(-1e-13) == 0.0
        assert binary_entropy(1.0 + 1e-13) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            binary_entropy(1.2)
        with pytest.raises(ValueError, match="outside"):
            binary_entropy(-0.1)


class TestXStateValidation:
    def test_trace_must_be_one(self):
        with pytest.raises(ValueError, match="trace"):
            XState(0.5, 0.5, 0.1, 0.0)

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            XState(-0.1, 0.5, 0.3, 0.3)

    @pytest.mark.parametrize(
        "field, value",
        [("u", math.nan), ("v", math.inf), ("w1", -math.inf), ("w2", math.nan),
         ("x", complex(math.nan, 0.0)), ("y", complex(0.0, math.inf))],
    )
    def test_non_finite_entry_rejected(self, field, value):
        entries = dict(u=0.25, v=0.25, w1=0.25, w2=0.25, x=0.0, y=0.0)
        entries[field] = value
        with pytest.raises(ValueError, match=rf"entry {field}=.* is not finite"):
            XState(**entries)

    def test_positivity_rejected(self):
        # |x| far above sqrt(w1 w2) makes the inner block indefinite.
        with pytest.raises(ValueError, match="positive semidefinite"):
            XState(0.25, 0.25, 0.25, 0.25, x=0.4)

    def test_frozen(self):
        s = XState(0.3, 0.3, 0.2, 0.2, x=0.1 + 0.05j, y=-0.2j)
        with pytest.raises(FrozenInstanceError):
            s.u = 0.5
        assert XState(**vars(s)) == s
        assert hash(XState(**vars(s))) == hash(s)

    def test_entries_converted_with_zero_defaults(self):
        s = XState(1, 0, 0, 0)
        assert vars(s) == {"u": 1.0, "v": 0.0, "w1": 0.0, "w2": 0.0, "x": 0j, "y": 0j}
        assert [type(value) for value in vars(s).values()] == [float] * 4 + [complex] * 2
        assert XState(u=0.25, w2=0.25, v=0.25, w1=0.25, y=0.1) == XState(0.25, 0.25, 0.25, 0.25, 0, 0.1)

    def test_matrix_round_trip(self):
        s = XState(0.3, 0.3, 0.2, 0.2, x=0.1 + 0.05j, y=-0.2j)
        m = s.matrix()
        assert np.allclose(m, m.conj().T)
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(m, dense_matrix(s))


class TestJointEigenvalues:
    def test_matches_dense_diagonalization(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            s = random_xstate(rng)
            mine = np.sort(xstate._joint_eigs(s))
            dense = np.sort(np.linalg.eigvalsh(dense_matrix(s)))
            assert np.allclose(mine, dense, atol=1e-12)

    def test_probability_vector(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            eigs = xstate._joint_eigs(random_xstate(rng))
            assert sum(eigs) == pytest.approx(1.0, abs=1e-12)
            assert min(eigs) > -1e-12


class TestConditionalEntropy:
    def test_theta_plus_pi_swaps_branches(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            s = random_xstate(rng)
            theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            assert float(conditional_entropy_values(s, theta, phi)) == pytest.approx(
                float(conditional_entropy_values(s, theta + math.pi, phi)), abs=1e-12
            )

    def test_periodic_in_phi(self):
        s = XState(0.4, 0.1, 0.3, 0.2, x=0.1 + 0.2j, y=0.15j)
        assert float(conditional_entropy_values(s, 1.0, 0.3)) == pytest.approx(
            float(conditional_entropy_values(s, 1.0, 0.3 + 2 * math.pi)), abs=1e-12
        )

    def test_empty_branch_contributes_zero(self):
        # u + w2 = 0 kills one outcome at theta = 0; B then always reads 1 and
        # leaves A maximally mixed, so C = 1 with no NaN from the dead branch.
        s = XState(0.0, 0.5, 0.5, 0.0)
        value = float(conditional_entropy_values(s, 0.0, 0.0))
        assert math.isfinite(value)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            s = random_xstate(rng)
            vals = conditional_entropy_values(
                s, rng.uniform(0, math.pi, 20), rng.uniform(0, 2 * math.pi, 20)
            )
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0 + 1e-12)

    def test_diagonal_theta_independent_only_when_balanced(self):
        thetas = np.linspace(0.0, math.pi, 9)
        balanced = XState(0.35, 0.15, 0.35, 0.15)      # u = w1, v = w2
        vals = conditional_entropy_values(balanced, thetas, 0.0)
        assert np.ptp(vals) < 1e-12
        skewed = XState(0.6, 0.2, 0.1, 0.1)
        vals = conditional_entropy_values(skewed, thetas, 0.0)
        assert np.ptp(vals) > 1e-3


def reference_conditional_entropy(state, theta, phi):
    """C_{θ,φ} from cos(θ/2) and sin(θ/2), one masked binary entropy per branch.

    The original elementwise kernel, kept verbatim as the reference for the
    single-cosine kernel in `xstate`.
    """

    def h2(p):
        p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
        q = 1.0 - p
        with np.errstate(divide="ignore", invalid="ignore"):
            out = -np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
            out -= np.where(q > 0.0, q * np.log2(np.where(q > 0.0, q, 1.0)), 0.0)
        return out

    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    a2 = np.cos(theta / 2.0) ** 2
    b2 = np.sin(theta / 2.0) ** 2
    ab = np.cos(theta / 2.0) * np.sin(theta / 2.0)
    zmag2 = ab * ab * np.abs(state.x * np.exp(1j * phi) + state.y * np.exp(-1j * phi)) ** 2
    d0 = state.u + state.w2
    d1 = state.w1 + state.v
    e0 = state.u - state.w2
    e1 = state.w1 - state.v
    out = np.zeros(np.broadcast(theta, phi, zmag2).shape)
    for pk, bk in (
        (a2 * d0 + b2 * d1, a2 * e0 + b2 * e1),
        (b2 * d0 + a2 * d1, b2 * e0 + a2 * e1),
    ):
        root = np.sqrt(bk * bk + 4.0 * zmag2)
        safe = np.where(pk > 1e-12, pk, 1.0)
        lam = np.clip((safe + root) / (2.0 * safe), 0.0, 1.0)
        out += np.where(pk > 1e-12, pk * h2(lam), 0.0)
    return out


def reference_states(kind):
    """Random states (y ≠ 0), ring-like states (y = 0), an empty branch, the polarized mixture."""
    rng = np.random.default_rng(61)
    if kind == "random":
        return [random_xstate(rng) for _ in range(40)]
    if kind == "ring":
        states = [XState(s.u, s.v, s.w1, s.w2, s.x, 0.0) for s in reference_states("random")[:20]]
        for g, x in ((-0.25, -0.5), (-1 / 6, -1 / 3), (-0.1, -0.13), (0.05, 0.02), (0.0, 0.25)):
            states.append(XState(0.25 + g, 0.25 + g, 0.25 - g, 0.25 - g, x))
        return states
    if kind == "empty_branch":
        return [XState(1.0, 0.0, 0.0, 0.0)]
    return [XState(0.5, 0.5, 0.0, 0.0)]


STATE_KINDS = ("random", "ring", "empty_branch", "polarized")


class TestConditionalEntropyMatchesReference:
    """The kernel against the reference above, within 1e-15, in every input shape."""

    THETA = np.concatenate(
        [
            [0.0, 1e-9, math.pi / 2, math.pi - 1e-9, math.pi, -0.7, 4.0, 7.5],
            np.linspace(0.0, math.pi, 97),
        ]
    )
    PHI = np.concatenate([[0.0, math.pi / 4, math.pi, -1.3, 9.0], np.linspace(0.0, 2 * math.pi, 31)])

    @staticmethod
    def check(state, theta, phi):
        got = conditional_entropy_values(state, theta, phi)
        want = reference_conditional_entropy(state, theta, phi)
        assert isinstance(got, np.ndarray)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-15)

    @pytest.mark.parametrize("kind", STATE_KINDS)
    def test_zero_dimensional(self, kind):
        for state in reference_states(kind):
            for theta in self.THETA[:8]:
                for phi in self.PHI[:5]:
                    self.check(state, float(theta), float(phi))
            assert conditional_entropy_values(state, 0.3, 0.2).ndim == 0

    @pytest.mark.parametrize("kind", STATE_KINDS)
    def test_one_dimensional(self, kind):
        rng = np.random.default_rng(67)
        for state in reference_states(kind):
            theta = np.concatenate([self.THETA, np.arccos(rng.uniform(-1.0, 1.0, 500))])
            self.check(state, theta, rng.uniform(0.0, 2 * math.pi, theta.size))
            self.check(state, theta, 0.0)
            self.check(state, 1.1, self.PHI)

    @pytest.mark.parametrize("kind", STATE_KINDS)
    def test_theta_column_by_phi_row(self, kind):
        for state in reference_states(kind):
            self.check(state, self.THETA[:, None], self.PHI[None, :])
            self.check(state, self.THETA[:, None], 0.0)


class TestMirrorSymmetries:
    """C(π − θ, φ) = C(θ, φ + π) = C(θ, φ): the identities the grid histograms fold.

    θ → π − θ swaps cos²(θ/2) with sin²(θ/2), so the two outcomes trade their
    p and b, and keeps cos(θ/2) sin(θ/2); φ → φ + π flips the sign of
    x e^{iφ} + y e^{−iφ}.  The kernel computes each side with its own rounding.
    """

    @pytest.mark.parametrize("kind", STATE_KINDS)
    def test_theta_mirror_and_phi_half_turn(self, kind):
        rng = np.random.default_rng(101)
        theta = np.concatenate([[0.0, math.pi / 2, math.pi], rng.uniform(0.0, math.pi, 2000)])
        phi = rng.uniform(0.0, 2 * math.pi, theta.size)
        for state in reference_states(kind):
            # a pure state (the singlet among the ring states) has pure conditional
            # states, where a rounding-level change of λ moves H(λ) by up to H(2^-52)
            tol = TestCosFrontEnd.TOL if max(xstate._joint_eigs(state)) == 1.0 else 4e-15
            c = conditional_entropy_values(state, theta, phi)
            mirrored = conditional_entropy_values(state, math.pi - theta, phi)
            turned = conditional_entropy_values(state, theta, phi + math.pi)
            assert np.max(np.abs(mirrored - c)) <= tol, state
            assert np.max(np.abs(turned - c)) <= tol, state


class TestCosFrontEnd:
    """Monte Carlo's cos θ front end against the θ kernel at θ = arccos(cos θ)."""

    # Near a pure conditional state (λ → 1) a rounding-level change of λ moves
    # H(λ) by up to H(2^-52) ≈ 1.2e-14, in either route; one outcome each.
    TOL = 2.0 * binary_entropy(np.finfo(float).eps)

    @pytest.mark.parametrize("kind", ["ring", "random", "empty_branch"])
    def test_agrees_with_the_theta_kernel(self, kind):
        rng = np.random.default_rng(89)
        cos_theta = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, 5000)])
        phi = rng.uniform(0.0, 2 * math.pi, cos_theta.size)
        for state in reference_states(kind):
            rows = xstate._cos_rows(cos_theta)
            got = xstate._entropy_rows(state, *rows, xstate._modulus2(state, phi))
            want = conditional_entropy_values(state, np.arccos(cos_theta), phi)
            assert np.max(np.abs(got - want)) <= self.TOL, state


class TestC00:
    def test_spot_value(self):
        s = XState(0.3, 0.3, 0.2, 0.2)
        assert c00(s) == pytest.approx(0.9709505944546686, abs=1e-14)

    def test_equals_conditional_entropy_at_pole(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            s = random_xstate(rng)
            assert c00(s) == pytest.approx(float(conditional_entropy_values(s, 0.0, 0.0)), abs=1e-12)


class TestC90:
    def test_bell_state_fully_classical_after_measurement(self):
        assert c90(BELL) == (0.0, 0.0)

    def test_equals_conditional_entropy_at_optimum(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            s = random_xstate(rng)
            value, phi_star = c90(s)
            assert value == pytest.approx(float(conditional_entropy_values(s, math.pi / 2, phi_star)), abs=1e-12)

    def test_minimizes_over_phi_grid(self):
        """Closed form must match a brute-force scan of the equator.

        The 1e4-point coarse scan is refined once around its argmin so the
        comparison is limited by the formula, not by scan resolution.
        """
        rng = np.random.default_rng(31)
        coarse = np.linspace(0.0, 2 * math.pi, 10_000, endpoint=False)
        step = coarse[1] - coarse[0]
        for _ in range(25):
            s = random_xstate(rng)
            value, _ = c90(s)
            scanned = conditional_entropy_values(s, math.pi / 2, coarse)
            assert value <= scanned.min() + 1e-12
            pivot = coarse[int(np.argmin(scanned))]
            fine = np.linspace(pivot - step, pivot + step, 2001)
            refined = float(conditional_entropy_values(s, math.pi / 2, fine).min())
            assert value == pytest.approx(refined, abs=1e-8)

    def test_phi_star_is_the_optimal_azimuth(self):
        """At φ* the two coherence terms are parallel: no second candidate is needed.

        The closed form and the kernel take different arithmetic routes to
        H(λ); near-pure branches (C ≈ 0.03, dH/dλ ≈ 8) put them 1.9e-15 apart
        at most over three seeds of 10⁴ states, hence the 4e-15 bound.
        """
        rng = np.random.default_rng(71)
        grid = np.linspace(0.0, 2 * math.pi, 3600, endpoint=False)
        for _ in range(10_000):
            s = random_xstate(rng)
            value, phi_star = c90(s)
            assert 0.0 <= phi_star < math.pi
            scan = conditional_entropy_values(s, math.pi / 2, np.append(grid, phi_star))
            assert abs(value - scan[-1]) <= 4e-15
            # at or below every grid direction, up to rounding
            assert value <= scan[:-1].min() + 1e-15

    def test_phi_star_zero_when_either_amplitude_vanishes(self):
        s = XState(0.4, 0.2, 0.2, 0.2, x=0.1j, y=0.0)
        assert c90(s)[1] == 0.0


class TestDiscord:
    def test_isotropic_spot_value(self):
        r = discord(ISO_SIXTH)
        assert r.discord == pytest.approx(0.4425036720089324, abs=1e-12)
        assert r.chosen_theta is OptimalTheta.ZERO  # tie at k = 2 resolves to zero

    def test_bell_state(self):
        assert discord(BELL).discord == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_states_have_zero_discord(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            u, v, w1, w2 = rng.dirichlet(np.ones(4))
            r = discord(XState(u, v, w1, w2))
            assert abs(r.discord) < 1e-12
            assert r.chosen_theta is OptimalTheta.ZERO

    def test_result_identity_and_bounds(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            r = discord(random_xstate(rng))
            assert r.discord == pytest.approx(min(r.c00, r.c90) - r.s_joint + r.s_b, abs=1e-12)
            assert -1e-9 <= r.discord <= 1.0 + 1e-9


    def test_result_is_a_frozen_dataclass(self):
        r = discord(ISO_SIXTH)
        with pytest.raises(FrozenInstanceError):
            r.discord = 0.0
        assert list(vars(r)) == ["discord", "c00", "c90", "phi_star", "chosen_theta", "s_joint", "s_b"]
        assert type(r)(**vars(r)) == r
        assert hash(type(r)(**vars(r))) == hash(r)
        assert repr(r).startswith("DiscordResult(discord=")

class TestGridVerify:
    def test_random_states_within_grid_tolerance(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            grid_min, closed_min, _, discrepancy = discord_grid_verify(random_xstate(rng))
            assert discrepancy <= 5e-3
            # a correct closed form sits at or below every sampled direction
            assert closed_min <= grid_min + 1e-12
            # and can undercut the grid only by its resolution error
            assert discrepancy > -5e-3

    def test_deterministic_argmin_tiebreak(self):
        # Every Bell-state branch is pure, so C = 0.0 exactly on many nodes;
        # the report must pick the lexicographically first one.
        grid_min, _, argmin, _ = discord_grid_verify(BELL, n_theta=19, n_phi=12)
        assert grid_min == 0.0
        assert argmin == (0.0, 0.0)

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError, match="grid"):
            discord_grid_verify(BELL, n_theta=1, n_phi=0)


class TestPureStateDiscord:
    def test_spot_value(self):
        p, d = pure_state_discord(0.6, 0.0, 0.0, 0.8)
        assert p == pytest.approx(0.64, abs=1e-14)
        assert d == pytest.approx(0.9426831892554922, abs=1e-13)

    def test_product_state_has_no_discord(self):
        p, d = pure_state_discord(1.0, 0.0, 0.0, 0.0)
        assert p == 1.0 and d == 0.0

    def test_bell_state_maximal(self):
        # roundoff in 1/sqrt(2) enters p under a square root, hence the 1e-7
        s = 1 / math.sqrt(2)
        p, d = pure_state_discord(s, 0.0, 0.0, s)
        assert p == pytest.approx(0.5, abs=1e-7)
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            pure_state_discord(1.0, 1.0, 0.0, 0.0)

    def test_schmidt_weight_matches_reduced_density_matrix(self):
        """p must equal the larger eigenvalue of Tr_A |ψ⟩⟨ψ|."""
        rng = np.random.default_rng(47)
        for _ in range(100):
            ket = rng.normal(size=4) + 1j * rng.normal(size=4)
            ket /= np.linalg.norm(ket)
            p, d = pure_state_discord(*ket)
            m = ket.reshape(2, 2)
            rho_b = m.conj().T @ m
            eigs = np.linalg.eigvalsh(rho_b)
            assert p == pytest.approx(float(eigs.max()), abs=1e-10)
            assert d == pytest.approx(binary_entropy(float(eigs.max())), abs=1e-10)

    def test_agrees_with_discord_on_schmidt_form(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            ket = rng.normal(size=4) + 1j * rng.normal(size=4)
            ket /= np.linalg.norm(ket)
            p, d = pure_state_discord(*ket)
            schmidt = XState(p, 1.0 - p, 0.0, 0.0, x=0.0, y=math.sqrt(p * (1.0 - p)))
            assert discord(schmidt).discord == pytest.approx(d, abs=1e-9)


class TestRandomXState:
    def test_generator_yields_valid_states(self):
        rng = np.random.default_rng(59)
        for _ in range(500):
            s = random_xstate(rng)  # constructor validates
            assert min(xstate._joint_eigs(s)) > -1e-12


# ── the closed forms, kernel and generator as they were before the scalar path ──
# Kept verbatim, with names prefixed by `oracle_`, as the bit-for-bit reference.

_CLAMP = 1e-12
_TIE = 1e-12


def oracle_xlog2x(p):
    """p·log2 p, and 0 for p ≤ 0: a float from `math`, an array from numpy.

    Every entropy in this package is a sum of these terms.
    """
    if isinstance(p, float):
        return p * math.log2(p) if p > 0.0 else 0.0
    p = np.asarray(p, dtype=float)
    positive = p > 0.0
    out = np.log2(p, out=np.zeros(p.shape), where=positive)
    return np.multiply(out, p, out=out, where=positive)


def oracle_entropy_of(eigs):
    """Shannon entropy (base 2) of a probability vector; zeros contribute 0.

    The entries are floats, or arrays of one shape for an elementwise entropy.
    """
    total = 0.0
    for lam in eigs:
        total -= oracle_xlog2x(lam)
    return total


def oracle_clamped_binary_entropy(p):
    """Binary entropy of p clamped into [0, 1]; a float or an array."""
    p = min(max(p, 0.0), 1.0) if isinstance(p, float) else np.clip(p, 0.0, 1.0)
    return oracle_entropy_of((p, 1.0 - p))


def oracle_binary_entropy(p: float) -> float:
    """H(p) = -p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0.

    Accepts p within 1e-12 outside [0, 1] (clamped); otherwise raises ValueError.
    """
    p = float(p)
    if not -_CLAMP <= p <= 1.0 + _CLAMP:
        raise ValueError(f"binary_entropy argument {p!r} outside [0, 1]")
    return oracle_clamped_binary_entropy(p)


@dataclass(frozen=True)
class OracleDiscordResult:
    discord: float
    c00: float
    c90: float
    phi_star: float
    chosen_theta: OptimalTheta
    s_joint: float
    s_b: float


def oracle_joint_eigs(state: XState) -> tuple:
    """Eigenvalues of ρ_AB as floats: the X structure splits into two 2x2 blocks."""
    outer = math.hypot(state.u - state.v, 2.0 * abs(state.y))
    inner = math.hypot(state.w1 - state.w2, 2.0 * abs(state.x))
    return (
        (state.u + state.v + outer) / 2.0,
        (state.u + state.v - outer) / 2.0,
        (state.w1 + state.w2 + inner) / 2.0,
        (state.w1 + state.w2 - inner) / 2.0,
    )


def oracle_conditional_entropy_values(state: XState, theta, phi) -> np.ndarray:
    """C_{θ,φ} evaluated elementwise over broadcast angle arrays (radians).

    Angles are unrestricted; the expression is 2π-periodic and symmetric
    under θ → θ + π (the measurement pair {|0̃⟩, |1̃⟩} is unchanged).
    A branch with probability at most 1e-12 contributes zero.  cos(θ/2) and
    sin(θ/2) are evaluated once per θ; the outcome probabilities depend on θ
    alone, so only the splitting root and the entropies take the full
    broadcast shape, and they are updated in place.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    shape = np.broadcast_shapes(theta.shape, phi.shape)
    # at least 1-D, so that every intermediate is an array that can be written in place
    half = np.atleast_1d(theta) / 2.0
    ab = np.cos(half)
    sin_half = np.sin(half, out=half)
    a2 = ab * ab  # cos²(θ/2)
    b2 = sin_half * sin_half
    ab *= sin_half
    # 4|z|², with z = cos(θ/2) sin(θ/2) (x e^{iφ} + y e^{-iφ})
    turn = np.exp(1j * phi)
    z4 = ab * ab * np.abs(state.x * turn + state.y * turn.conjugate()) ** 2
    z4 *= 4.0
    del half, ab, sin_half, turn  # freed before the full-shape buffers below

    d0 = state.u + state.w2   # P(B=0) weight entering outcome probabilities
    d1 = state.w1 + state.v
    e0 = state.u - state.w2
    e1 = state.w1 - state.v

    out = np.zeros(z4.shape)
    lam = np.empty(z4.shape)
    for da, db, ea, eb in ((d0, d1, e0, e1), (d1, d0, e1, e0)):
        pk = a2 * da + b2 * db
        bk = a2 * ea + b2 * eb
        bk *= bk
        np.sqrt(np.add(bk, z4, out=lam), out=lam)
        del bk
        live = pk > _CLAMP
        # λ = (p + root) / 2p; entries of a dead branch are never read
        np.divide(np.add(pk, lam, out=lam), 2.0 * pk, out=lam, where=live)
        np.clip(lam, 0.0, 1.0, out=lam)
        h = oracle_xlog2x(lam)
        h += oracle_xlog2x(np.subtract(1.0, lam, out=lam))
        h *= pk
        np.subtract(out, h, out=out, where=live)  # p·H(λ), with H = −Σ λ log2 λ
    return out.reshape(shape)


def oracle_c00(state: XState) -> float:
    """C_{θ=0}: measuring B along the computational axis.

    Equals (u+w2) H(u/(u+w2)) + (v+w1) H(v/(v+w1)); empty branches contribute 0.
    """
    out = 0.0
    if state.u + state.w2 > _CLAMP:
        out += (state.u + state.w2) * oracle_binary_entropy(state.u / (state.u + state.w2))
    if state.v + state.w1 > _CLAMP:
        out += (state.v + state.w1) * oracle_binary_entropy(state.v / (state.v + state.w1))
    return out


def oracle_c90(state: XState) -> tuple:
    """C_{θ=π/2, φ*}: equatorial measurement at the optimal azimuth.

    C falls as |x e^{iφ} + y e^{-iφ}| grows.  At φ* = −arg(x y̅)/2 the two
    terms are parallel, so the modulus takes its maximum |x| + |y| (a quarter
    turn later it is ||x| − |y||).  With either amplitude zero the value is
    φ-independent and φ* = 0.
    """
    x, y = state.x, state.y
    amp = abs(x) + abs(y)
    if abs(x) < _CLAMP or abs(y) < _CLAMP:
        phi_star = 0.0
    else:
        phi_star = (-cmath.phase(x * y.conjugate()) / 2.0) % math.pi
    gap = state.u - state.v + state.w1 - state.w2
    lam = (1.0 + math.hypot(gap, 2.0 * amp)) / 2.0
    return oracle_binary_entropy(min(lam, 1.0)), phi_star


def oracle_discord(state: XState) -> OracleDiscordResult:
    """Quantum discord D(A:B) = min(C_00, C_90) − S(ρ_AB) + S(ρ_B).

    Ties between the two candidate angles (within `_TIE`) resolve to θ = 0.
    """
    c_zero = oracle_c00(state)
    c_ninety, phi_star = oracle_c90(state)
    s_joint = oracle_entropy_of(oracle_joint_eigs(state))
    s_b = oracle_binary_entropy(state.u + state.w2)
    if c_zero <= c_ninety + _TIE:
        chosen, c_min = OptimalTheta.ZERO, c_zero
    else:
        chosen, c_min = OptimalTheta.NINETY, c_ninety
    return OracleDiscordResult(
        discord=c_min - s_joint + s_b,
        c00=c_zero,
        c90=c_ninety,
        phi_star=phi_star,
        chosen_theta=chosen,
        s_joint=s_joint,
        s_b=s_b,
    )


def oracle_random_xstate(rng: np.random.Generator) -> XState:
    """Random valid X state: flat-simplex diagonal, coherences inside the
    positivity disks |x| ≤ sqrt(w1 w2), |y| ≤ sqrt(u v), uniform phases."""
    u, v, w1, w2 = rng.dirichlet(np.ones(4))
    x = math.sqrt(w1 * w2) * rng.uniform() * cmath.exp(2j * math.pi * rng.uniform())
    y = math.sqrt(u * v) * rng.uniform() * cmath.exp(2j * math.pi * rng.uniform())
    return XState(u, v, w1, w2, x, y)


DISCORD_FIELDS = ("discord", "c00", "c90", "phi_star", "s_joint", "s_b")


def assert_same_bits(got, want, label):
    """Exact equality of two float arrays, signed zeros included."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, label
    differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert differ.size == 0, f"{label}: {differ.size} entries differ, first at flat index {differ[0]}"


def assert_discord_matches_oracle(states, label):
    got = [discord(s) for s in states]
    want = [oracle_discord(s) for s in states]
    for name in DISCORD_FIELDS:
        assert_same_bits([getattr(r, name) for r in got], [getattr(r, name) for r in want], f"{label} {name}")
    assert [r.chosen_theta for r in got] == [r.chosen_theta for r in want], label


def fig3_pair_states(n_sites=12):
    """Pair states of the default `fig3` sweep: Δ over -1.5:2.5:0.05, r = 1, 2, 4, and r = N/2."""
    rs = sorted({1, 2, 4, n_sites // 2})
    return [state for _, _, state in pair_state_sweep(n_sites, _range_arg("-1.5:2.5:0.05"), rs)]


class TestBitIdentityWithOracle:
    """The scalar path, the kernel and the generator against the verbatim copies above."""

    def test_discord_on_seeded_random_states(self):
        rng = np.random.default_rng(73)
        states = [random_xstate(rng) for _ in range(100_000)]
        assert_discord_matches_oracle(states, "random")

    def test_discord_on_ring_pair_states(self):
        assert_discord_matches_oracle(fig3_pair_states(), "fig3 N=12")

    @pytest.mark.parametrize("kind", ["bell", "empty_branch", "polarized", "beyond_pure"])
    def test_discord_on_special_states(self, kind):
        # beyond_pure: |y| past sqrt(u v) by less than the positivity slack, so the
        # equatorial eigenvalue exceeds 1 and must be capped before its entropy
        states = {"bell": [BELL], "empty_branch": reference_states("empty_branch"),
                  "polarized": reference_states("polarized"),
                  "beyond_pure": [XState(0.5, 0.5, 0.0, 0.0, y=0.5 + 4e-10)]}[kind]
        assert_discord_matches_oracle(states, kind)

    def test_binary_entropy(self):
        ps = [0.0, -0.0, -1e-13, 1.0, 1.0 + 1e-13, 0.5, 1e-300, 5e-324, 1.0 - 2**-53, 0.11]
        ps += list(np.random.default_rng(79).uniform(0.0, 1.0, 1000))
        assert_same_bits([binary_entropy(p) for p in ps], [oracle_binary_entropy(p) for p in ps], "H")
        for p in (1.2, -0.1, math.nan):
            with pytest.raises(ValueError, match="outside"):
                binary_entropy(p)

    @pytest.mark.parametrize("kind", ["ring", "fig3", "random", "empty_branch", "polarized"])
    def test_kernel(self, kind):
        states = fig3_pair_states(8) if kind == "fig3" else reference_states(kind)
        theta_grid = TestConditionalEntropyMatchesReference.THETA
        phi_grid = TestConditionalEntropyMatchesReference.PHI
        rng = np.random.default_rng(83)
        theta = np.concatenate([theta_grid, np.arccos(rng.uniform(-1.0, 1.0, 500))])
        phi = rng.uniform(0.0, 2 * math.pi, theta.size)
        shapes = [(0.3, 0.2), (0.0, 0.0), (math.pi, 1.0), (theta, phi), (theta, 0.0), (1.1, phi_grid),
                  (theta_grid[:, None], phi_grid[None, :]), (theta_grid[:, None], 0.0)]
        # inputs of several 8,192-point distribution blocks, with a partial last block
        many = 3 * 8192 + 5
        theta_many, phi_many = np.arccos(rng.uniform(-1.0, 1.0, many)), rng.uniform(0.0, 2 * math.pi, many)
        blocked = [(theta_many, phi_many), (theta_many, 0.0), (0.7, phi_many),
                   (theta_many[:300, None], phi_many[None, :97]), (theta_many[None, :], phi_many[:2, None])]
        for i, state in enumerate(states):
            for th, ph in shapes + (blocked if i < 3 else []):
                got = conditional_entropy_values(state, th, ph)
                want = oracle_conditional_entropy_values(state, th, ph)
                assert isinstance(got, np.ndarray)
                assert_same_bits(got, want, f"{kind} {state}")

    @pytest.mark.parametrize("seed", [0, 7, 53])
    def test_random_xstate_draws(self, seed):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [random_xstate(rng) for _ in range(1000)]
        want = [oracle_random_xstate(oracle_rng) for _ in range(1000)]
        for name in ("u", "v", "w1", "w2"):
            assert_same_bits([getattr(s, name) for s in got], [getattr(s, name) for s in want], name)
        for name in ("x", "y"):
            assert_same_bits([[getattr(s, name).real, getattr(s, name).imag] for s in got],
                             [[getattr(s, name).real, getattr(s, name).imag] for s in want], name)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
