"""Two-site reduced density matrices and discord profiles of ring ground states.

For a ring ground state with fixed total S^z, the reduced state of any site
pair (i, j) is an X state whose entries are set by three expectation values:

    gamma_d = <s^z_i s^z_j>,   gamma_o = <s^+_i s^-_j>,   m^z = <s^z_i>,

via u/v = 1/4 + gamma_d ± (mz_i+mz_j)/2, w1/w2 = 1/4 − gamma_d ± (mz_i−mz_j)/2,
x = gamma_o, y = 0.  In the zero-magnetization sector the pair state is
symmetric (u = v, w1 = w2) and its discord reduces to a closed form in
gamma_d and the ratio k = gamma_o/gamma_d: with Gamma = gamma_d the joint
eigenvalues are {1/4+Gamma (twice), 1/4+(k−1)Gamma, 1/4−(k+1)Gamma} and

    D = 1 − S_joint + min(H(1/2 + 2 Gamma), H(1/2 + k Gamma)),

the first argument winning for k below 2 and the second above.  The module
reads pair states off the ground state's amplitudes φ and the sector's
`pair_table`, the correlators off those states, evaluates the closed forms,
and sweeps discord over separation and over the anisotropy.  Every sweep
draws its pair states from `pair_state_sweep`, the one place that handles
the polarized regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .spinchain import GroundState, _ring_distance, _sweep_inputs, ground_states
from .xstate import OptimalTheta, XState, _clamped_binary_entropy, _entropy_of, discord

__all__ = [
    "PairCorrelations",
    "KRatio",
    "DiscordByDistance",
    "DiscordByAnisotropy",
    "UndefinedRatioError",
    "CorrelatorDomainError",
    "two_site_rdm",
    "pair_state_sweep",
    "pair_correlations",
    "k_ratio",
    "discord_profile_vs_r",
    "discord_profile_vs_delta",
    "discord_symmetric",
    "discord_isotropic",
]

# Pair state of the Delta <= -1 ground state, the equal mixture of the two
# fully polarized states: classical, so its discord and k are 0.
_POLARIZED = XState(u=0.5, v=0.5, w1=0.0, w2=0.0)


class UndefinedRatioError(ValueError):
    """Raised when gamma_o/gamma_d is requested with vanishing gamma_d."""


class CorrelatorDomainError(ValueError):
    """Raised when (gamma_d, k) imply a negative pair-state eigenvalue."""


@dataclass(frozen=True)
class PairCorrelations:
    """Raw pair expectation values at ring distance r."""

    r: int
    gamma_d: float
    gamma_o: complex
    y_corr: complex
    mz_i: float
    mz_j: float

    def __post_init__(self):
        if abs(self.gamma_d) > 0.25 + 1e-9:
            raise ValueError(f"gamma_d {self.gamma_d!r} outside [-1/4, 1/4]")


@dataclass(frozen=True)
class KRatio:
    """Off-diagonal to diagonal correlator ratio k = gamma_o/gamma_d."""

    r: int
    k: float


class DiscordByDistance(NamedTuple):
    """Pipeline discord at (delta, r) plus applicable closed forms.

    The fields are the `fig2` columns, in order.
    """

    delta: float
    r: int
    discord: float
    symmetric_form: Optional[float]
    isotropic_form: Optional[float]


class DiscordByAnisotropy(NamedTuple):
    """One (delta, r) row of a discord sweep over the anisotropy.

    The fields are the `fig3` columns, in order; `fig4` drops `discord`.
    """

    delta: float
    r: int
    discord: float
    k: float
    basis: OptimalTheta


def _check_pair(gs: GroundState, i: int, j: int) -> None:
    n = gs.sector.n_sites
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"sites ({i}, {j}) outside ring [1, {n}]")
    if i == j:
        raise ValueError(f"pair sites must differ, got ({i}, {j})")


def _pair_state(phi: np.ndarray, table) -> XState:
    """Pair state of sites (i, i+r), the mean over the N translates, from φ.

    From the sector's `pair_table(r)`: u = v = Σ φ²·A_r / 2M, w1 = w2 = ½ − u
    and x = φᵀX̃_rφ / 2M, one dot product.
    """
    aligned, src, dst, element = table
    u = (phi * phi) @ aligned
    x = np.take(phi, dst) @ (element * np.take(phi, src))
    return XState(u=u, v=u, w1=0.5 - u, w2=0.5 - u, x=x)


def two_site_rdm(gs: GroundState, i: int, j: int) -> XState:
    """Reduced density matrix of ring sites (i, j); site i is the first qubit.

    Qubit value 0 is spin up.  The ground state is invariant under the
    ring's translations and reflection, so the pair state, symmetric in its
    two sites, depends only on their ring distance, which the sector's
    `pair_table` folds from |i − j| (see `_pair_state`).  The double-flip
    coherence y changes S^z by 2, so it vanishes in the fixed-S^z sector.
    """
    _check_pair(gs, i, j)
    return _pair_state(gs.phi, gs.sector.pair_table(abs(i - j)))


def pair_state_sweep(n_sites: int, deltas, rs, *, cache_dir=None):
    """Yield (delta, r, pair state of sites (1, 1+r)) in (delta, r) order.

    Anisotropies at or below −1 yield the pair state of the polarized
    mixture without a solve: there the ground state leaves the S^z = 0
    sector for the two fully polarized states.  Every other anisotropy is
    solved once, all of them by one `ground_states` sweep.  `_sweep_inputs`
    checks the ring size, the separations, folded to ring distances, and
    the finiteness of every anisotropy before anything is yielded, polarized
    rows included.  One sector `pair_table` per distance (r and N − r share
    one) is built at the first solve, 16 B per entry, 22 MB at N = 26, and
    reduced once per Δ.  With two or more solves it is kept for every Δ;
    with one, dropped once read.
    """
    deltas, separations = _sweep_inputs(n_sites, deltas, rs)
    solved = [delta for delta in deltas if delta > -1.0]
    states = ground_states(n_sites, solved, cache_dir=cache_dir)
    reuse = len(solved) > 1
    tables = {}
    for delta in deltas:
        if delta <= -1.0:
            for r, _ in separations:
                yield delta, r, _POLARIZED
            continue
        gs = next(states)
        reduced = {}
        for r, distance in separations:
            if distance not in reduced:
                if distance not in tables:
                    tables[distance] = gs.sector.pair_table(distance)
                reduced[distance] = _pair_state(
                    gs.phi, tables[distance] if reuse else tables.pop(distance)
                )
            yield delta, r, reduced[distance]


def _gamma_d(state: XState) -> float:
    return (state.u + state.v - state.w1 - state.w2) / 4.0


def _ratio(state: XState) -> float:
    """k = gamma_o/gamma_d of a pair state; NaN where gamma_d vanishes."""
    gamma_d = _gamma_d(state)
    if abs(gamma_d) < 1e-14:  # k would be rounding noise
        return math.nan
    return state.x.real / gamma_d


def pair_correlations(gs: GroundState, i: int, j: int) -> PairCorrelations:
    """Pair expectation values, read off the reduced state of (i, j), at their ring distance."""
    state = two_site_rdm(gs, i, j)
    return PairCorrelations(
        r=_ring_distance(gs.sector.n_sites, abs(i - j)),
        gamma_d=_gamma_d(state),
        gamma_o=state.x,
        y_corr=state.y,
        mz_i=(state.u + state.w1 - state.v - state.w2) / 2.0,
        mz_j=(state.u + state.w2 - state.v - state.w1) / 2.0,
    )


def k_ratio(gs: GroundState, r: int) -> KRatio:
    """Ratio k = gamma_o/gamma_d of the pair (1, 1+r), r in [1, N − 1], at its ring distance."""
    distance = _ring_distance(gs.sector.n_sites, r)
    state = _pair_state(gs.phi, gs.sector.pair_table(distance))
    k = _ratio(state)
    if math.isnan(k):
        raise UndefinedRatioError(
            f"gamma_d(r={r}) = {_gamma_d(state)!r} vanishes; k is undefined"
        )
    return KRatio(r=distance, k=k)


def discord_symmetric(gamma_d, k):
    """Closed-form discord of the symmetric pair state (u = v, w1 = w2).

    The state has x = k*gamma_d, zero local magnetization, and maximally mixed
    marginals, so D = 1 − S_joint + min over the two candidate bases.  Two
    floats give a float; if either argument is an array, the two broadcast
    together and give an array, elementwise.
    """
    if np.ndim(gamma_d) == 0 and np.ndim(k) == 0:
        gamma_d = float(gamma_d)
    else:
        gamma_d, k = np.broadcast_arrays(
            np.asarray(gamma_d, dtype=float), np.asarray(k, dtype=float)
        )
    return _symmetric_discord(gamma_d, k * gamma_d)


def _symmetric_discord(gamma_d, gamma_o):
    """`discord_symmetric` in terms of gamma_o = x, defined also at gamma_d = 0.

    Floats give a float.  Arrays of one shape give an array, elementwise; an
    unphysical or NaN entry raises for the first one, as a float would.
    """
    g, x = gamma_d, gamma_o
    eigs = [0.25 + g, 0.25 + g, 0.25 + x - g, 0.25 - x - g]
    # each test is one that a NaN fails; np.minimum keeps a NaN, min may skip it
    if isinstance(g, float):
        smaller = min
        if not (eigs[0] >= -1e-12 and eigs[2] >= -1e-12 and eigs[3] >= -1e-12):
            raise _negative_eigenvalues(eigs, g, x)
    else:
        smaller = np.minimum
        bad = np.flatnonzero(~(smaller(smaller(eigs[0], eigs[2]), eigs[3]) >= -1e-12))
        if bad.size:
            i = bad[0]
            first = [float(e.flat[i]) for e in eigs]
            raise _negative_eigenvalues(first, float(g.flat[i]), float(x.flat[i]))
    c_zero = _clamped_binary_entropy(0.5 + 2.0 * g)
    c_ninety = _clamped_binary_entropy(0.5 + x)
    return 1.0 - _entropy_of(eigs) + smaller(c_zero, c_ninety)


def _negative_eigenvalues(eigs, gamma_d, gamma_o) -> CorrelatorDomainError:
    return CorrelatorDomainError(
        f"eigenvalues {eigs} of the symmetric pair state are negative for "
        f"gamma_d={gamma_d!r}, gamma_o={gamma_o!r}; |gamma_o| + gamma_d "
        "must stay within 1/4"
    )


def discord_isotropic(gamma_d):
    """Closed-form discord at the isotropic point, where k = 2; floats or arrays."""
    return discord_symmetric(gamma_d, 2.0)


def discord_profile_vs_r(pairs):
    """Discord rows with closed-form companions over `pair_state_sweep` output.

    The symmetric closed form is evaluated from gamma_d and gamma_o, so it
    needs no k and is defined where gamma_d vanishes (even r at Delta = 0);
    the isotropic one is attached only where the measured k is 2 (the
    isotropic point).
    """
    for delta, r, state in pairs:
        gamma_d = _gamma_d(state)
        k = _ratio(state)
        try:
            symmetric = _symmetric_discord(gamma_d, state.x.real)
        except CorrelatorDomainError:
            symmetric = None
        isotropic = None
        if not math.isnan(k) and abs(k - 2.0) < 1e-6:
            isotropic = discord_isotropic(gamma_d)
        yield DiscordByDistance(delta, r, discord(state).discord, symmetric, isotropic)


def discord_profile_vs_delta(pairs):
    """Discord, k and optimal basis rows over `pair_state_sweep` output.

    k is NaN where gamma_d vanishes.
    """
    for delta, r, state in pairs:
        result = discord(state)
        yield DiscordByAnisotropy(delta, r, result.discord, _ratio(state), result.chosen_theta)
