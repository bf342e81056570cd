"""Exact ground states of the spin-1/2 XXZ Heisenberg ring.

    H = Σ_{i=1}^{N} [ s^x_i s^x_{i+1} + s^y_i s^y_{i+1} + Δ s^z_i s^z_{i+1} ],

with s = σ/2, J = 1 and periodic boundary (site N+1 ≡ 1).  H conserves total
S^z, so the ground state for Δ > −1 is searched in the S^z = 0 sector: the
bit patterns with exactly N/2 set bits (bit i−1 holds site i; a set bit is
spin up).  The two Hamiltonian pieces on those configurations:

  * diagonal: Δ/4 times (aligned bonds − anti-aligned bonds),
  * flip-flop: matrix element 1/2 between configurations that differ by
    swapping one anti-aligned neighbor pair.

H also commutes with the translation T (site i → i+1), the reflection P
(bit i → bit −i mod N, so site 1 stays put) and the spin inversion Z (every
spin flipped), and the solver works in one sector of the group they generate.
Marshall's sign rule: on the even ring, the signs (−1)^(up spins on odd
sites) make every off-diagonal element −1/2, and the flip-flops connect the
whole S^z = 0 sector, so by Perron–Frobenius its ground state is unique and
has amplitudes (−1)^(up spins on odd sites)·(positive).  T swaps odd and even
sites, and Z turns the n up spins on odd sites into N/2 − n; both multiply
that sign by (−1)^(N/2).  P maps odd sites to odd sites and keeps it.  So for
every Δ the ground state has translation eigenvalue λ = (−1)^(N/2),
reflection eigenvalue +1 and spin-inversion eigenvalue (−1)^(N/2).  The
`MomentumSector` of these characters, the one basis the solver uses, holds
one symmetrized state per orbit of the 4N-element group (about dim/4N of
them); `build_sector` builds it, and the ground state's amplitudes φ in it
are kept, without any array as long as the S^z = 0 sector.  It also owns
the site pairs at every ring distance r and their tables (`pair_table`); the
Hamiltonian's bonds are the pairs at r = 1.

The lowest eigenpair comes from one thick-restart Lanczos path: cycles of
at most 24 vectors, fully reorthogonalized within the cycle, each restart
keeping the 8 lowest Ritz vectors.  At 24 rows LAPACK's symmetric
eigensolver for the small matrix T stays on its serial QR path; from 26
rows on it switches to divide and conquer, whose threaded BLAS-3 calls keep
a second core spinning.  The first cycle starts from the uniform
Marshall-signed vector (−1)^(up spins on odd sites) projected into the
`MomentumSector`: by Perron–Frobenius it overlaps the ground state for every
Δ > −1.  It has the ground state's eigenvalues of T, P and Z, as every
vector of its Krylov space does, so the sector loses none of the states a
Marshall-started Lanczos reaches.  The values of Δ of a sweep run that path
together (`ground_states`): in lockstep blocks, one column per Δ, each
numpy and LAPACK call of a step issued once for the block.  The sector sets
the block's `width`, as many columns as fit 256 KiB of Krylov vectors: 39 at
N = 12, 5 at N = 16 and one from N = 18 up, where a lone Δ keeps its
memory.  Each Δ's `_Column` carries its own run and outcome.  Every call
acts on each column on its own, so a Δ's state is bit-identical alone, in
any block and in any order.  Every solve runs at the one Lanczos tolerance
`TOL`, and solved ground states can be persisted in a binary cache keyed by
(N, n_up, Δ).

A sweep whose cache misses fill two blocks or more shares them with one
forked worker (`_forked_sweep`) on Linux, with two or more CPUs in the
process's affinity, one Python thread and N ≤ `_WORKER_MAX_SITES` = 20;
`taskset -c 0` keeps it in one process.  In a warm process with default
BLAS threads on two CPUs, 70 values of Δ took 0.12 s with the worker
against 0.20 s without at N = 18, and 0.25 against 0.48 s at N = 20.  Above
the cap the two processes' BLAS threads fight over the CPUs: six values of
Δ took 0.19 against 0.18 s at N = 22, and 2.5 against 0.8 s at N = 24.  The
states, and every cache byte, are the same either way.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import struct
import sys
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "MomentumSector",
    "GroundState",
    "FerromagneticRegimeError",
    "ConvergenceError",
    "DegenerateGroundStateError",
    "check_ring_size",
    "build_sector",
    "apply_hamiltonian",
    "ground_state",
    "ground_states",
    "cache_path",
    "save_ground_state",
    "load_ground_state",
]

MAX_SITES = 26
# The largest Δ solved: the energy is about −Δ·N/4, and above this its
# rounding is coarser than TOL, so Lanczos can exhaust its cycles.
MAX_DELTA = 1000.0
# The Lanczos tolerance: Ritz value movement and residual estimate of a
# converged solve; the cache header records it.  k = 2 at Δ = 1, and the
# measurement basis there, hold only this tight.
TOL = 1e-12
# Lanczos vectors per restart cycle: at most 25 rows keep LAPACK's eigh of T
# off divide-and-conquer and its threaded BLAS-3 calls.  The block is
# 24 * dim * 8 B in the reduced sector: 0.5 MB at N = 20, 19.5 MB at N = 26.
_KRYLOV_VECTORS = 24
# Krylov vectors of one lockstep block of Δ values: 24 * dim * 8 B per
# column, so 39 columns at N = 12, 5 at N = 16 and one from N = 18 up.
_BLOCK_BYTES = 256 * 1024
# Ritz vectors a thick restart keeps, and cycles before ConvergenceError: the
# first cycle takes 24 steps and each later one 16, 4,808 steps in all.
_KEPT_RITZ = 8
_MAX_CYCLES = 300
# The largest ring whose sweeps fork a solver worker (see the module docstring).
_WORKER_MAX_SITES = 20

_CACHE_MAGIC = b"SDKGS1"
_CACHE_HEADER = struct.Struct("<6sIIdddQ")
_CACHE_FOOTER = struct.Struct("<I")
_CACHE_CODE_VERSION = 3


class FerromagneticRegimeError(ValueError):
    """Raised for Δ ≤ −1, where the ground state leaves the S^z = 0 sector."""


class ConvergenceError(RuntimeError):
    """Raised when the Lanczos iteration exhausts its budget."""


class DegenerateGroundStateError(RuntimeError):
    """Raised when the lowest two Ritz values are closer than 1e-10.

    The Ritz gap is measured within the (λ, P, Z) sector of `MomentumSector`.
    A Lanczos started from the Marshall signs stays in that sector in any
    larger basis too, so a solve over translation orbits or over all of
    S^z = 0 sees the same gap.
    """


def check_ring_size(n_sites: int) -> None:
    """Refuse ring sizes the solver does not support: odd, below 4 or above MAX_SITES."""
    if n_sites < 4 or n_sites % 2:
        raise ValueError(f"n_sites must be even and >= 4, got {n_sites}"
                         " (a 2-site ring double-counts its only bond)")
    if n_sites > MAX_SITES:
        raise ValueError(f"n_sites {n_sites} above the supported cap {MAX_SITES}")


def _ring_distance(n_sites: int, r: int) -> int:
    """Ring distance min(r, N − r) of the separation r, refused outside [1, N − 1]."""
    if not 1 <= r <= n_sites - 1:
        raise ValueError(f"separation {r} outside [1, {n_sites - 1}]")
    return min(r, n_sites - r)


def _flips(states: np.ndarray, masks):
    """(src, c): each configuration anti-aligned on a pair of `masks`, and its flip there."""
    srcs = [np.flatnonzero(np.bitwise_count(states & mask) == 1) for mask in masks]
    return np.concatenate(srcs), np.concatenate([states[s] ^ m for s, m in zip(srcs, masks)])


def _pair_masks(n_sites: int, r: int):
    """Bit masks of the M distinct site pairs (i, i+r): M = N, or N/2 at r = N/2."""
    m = n_sites // 2 if 2 * r == n_sites else n_sites
    return [np.uint64((1 << i) | (1 << ((i + r) % n_sites))) for i in range(m)]


def _rotate(states: np.ndarray, n_sites: int) -> np.ndarray:
    """T on bit patterns: site i moves to site i+1, site N to site 1."""
    rot = states << np.uint64(1)
    rot |= states >> np.uint64(n_sites - 1)
    rot &= np.uint64((1 << n_sites) - 1)
    return rot


def _smallest_rotation(states: np.ndarray, n_sites: int):
    """(r, s) per configuration c: r = T^s c is the smallest of its N rotations."""
    rep, rot = states.copy(), states
    shift = np.zeros(states.size, dtype=np.int8)
    for s in range(1, n_sites):
        rot = _rotate(rot, n_sites)
        smaller = rot < rep
        np.copyto(rep, rot, where=smaller)
        np.copyto(shift, s, where=smaller)
    return rep, shift


def _translation_reps(n_sites: int):
    """(r_t, R) of every S^z = 0 translation orbit: its smallest rotation and period, ascending.

    Candidates come in chunks of (high half << N/2) | low half, with low ≥ high
    (rotating by N/2 swaps the halves), and are dropped at the first smaller
    rotation.  A survivor's period is N over the number of rotations fixing it.
    """
    half = n_sites // 2
    halves = np.arange(1 << half, dtype=np.uint64)
    ones = np.bitwise_count(halves)
    reps, periods = [], []
    for p in range(half + 1):
        highs, lows = halves[ones == p], halves[ones == half - p]
        rows = max(1, (1 << 17) // lows.size)  # about 2^17 candidates per chunk
        for k in range(0, highs.size, rows):
            high = highs[k : k + rows, None]
            cand = ((high << np.uint64(half)) | lows)[lows >= high]
            rot, fixed = cand, np.ones(cand.size, dtype=np.int8)
            for _ in range(n_sites - 1):
                rot = _rotate(rot, n_sites)
                keep = rot >= cand
                cand, rot, fixed = cand[keep], rot[keep], fixed[keep]
                fixed += rot == cand
            reps.append(cand)
            periods.append(n_sites // fixed)
    reps = np.concatenate(reps)
    order = np.argsort(reps)
    return reps[order], np.concatenate(periods)[order]


def _reflect(states: np.ndarray, n_sites: int) -> np.ndarray:
    """P on bit patterns: bit i moves to bit −i mod N, so site 1 stays put."""
    out = states & np.uint64(1)
    for i in range(1, n_sites):
        out |= ((states >> np.uint64(i)) & np.uint64(1)) << np.uint64(n_sites - i)
    return out


class MomentumSector:
    """S^z = 0 states in the ground state's sector of the ring's symmetry group.

    The group G has the 4N elements g = T^s h, s < N, h ∈ {1, P, Z, PZ}: T
    the translation, P the reflection that moves bit i to bit −i mod N (site
    1 stays put, and P T P = T⁻¹) and Z the spin inversion.  The ground state
    has the one-dimensional character χ(T) = λ = (−1)^(N/2), χ(P) = +1,
    χ(Z) = (−1)^(N/2) (see the module docstring).

    Every configuration c is g_c r for the representative r of its G-orbit,
    the smallest configuration in it, and the orbit has O elements.  The
    `dim` symmetrized states |a⟩ = O^(−1/2) Σ_c χ(g_c)|c⟩, one per orbit,
    are the orthonormal columns of U, which maps their amplitudes φ to the
    S^z = 0 amplitudes ψ(c) = φ[a(c)]·χ(g_c)/√O(c).  In this basis H_χ =
    UᵀHU has the diagonal Δ·zz(r_a) and, for each flip-flop taking r_a to
    c = g r_b, the element ½·χ(g)·√(O_a/O_b) at (b, a) (see `_flip_table`).

    No orbit drops out, because χ = 1 on the stabilizer of every S^z = 0
    configuration.  For λ = 1, χ is trivial.  For λ = −1, N/2 is odd, and
    no element with χ = −1 fixes a configuration with N/2 up spins.  An odd
    translation period R repeats a pattern N/R times, an even number, and a
    reflection T^u P with u odd (through bonds) pairs up the sites: either
    makes the number of up spins even.  A reflection T^u PZ with u even
    fixes two sites, which it would have to flip.  And Z c = T^v c needs v
    to be an odd multiple of R/2, which is odd because R is even and divides
    N = 2·odd, so χ(T^(−v) Z) = +1.

    No array as long as the S^z = 0 sector is built.  P, Z and PZ act on the
    translation representatives r_t of `_translation_reps` only; the smallest
    image is the G-representative, and O sums the periods.  The one lookup
    kept maps each sorted r_t to its orbit a and χ(g)/√O (about 4·dim
    entries), where `_locate` finds any configuration's smallest rotation.

    `start` is the normalized projection of the Marshall signs, the
    solver's start vector.  `width` values of Δ, as many columns as fit
    `_BLOCK_BYTES` of Krylov vectors, make one lockstep block of the solver;
    `_block_dst` holds the flip destinations of a full block, row k at
    k·dim + dst (`dst` itself when `width` is 1).
    """

    def __init__(self, n_sites: int):
        check_ring_size(n_sites)
        self.n_sites, self.n_up = n_sites, n_sites // 2
        parity = -1 if self.n_up % 2 else 1  # λ, and χ(Z)
        t_reps, periods = _translation_reps(n_sites)

        # per translation orbit: its G-representative g r_t = T^u h r_t, the
        # smallest image under h ∈ {1, P, Z, PZ}, and χ(g)
        g_rep, g_char = t_reps.copy(), np.ones(t_reps.size)
        flipped = t_reps ^ np.uint64((1 << n_sites) - 1)
        for image, h_char in ((_reflect(t_reps, n_sites), 1.0), (flipped, parity),
                              (_reflect(flipped, n_sites), parity)):
            image_rep, u = _smallest_rotation(image, n_sites)
            smaller = image_rep < g_rep
            g_rep[smaller] = image_rep[smaller]
            g_char[smaller] = h_char * np.where(u[smaller] & 1, parity, 1.0)

        self._reps = reps = t_reps[g_rep == t_reps]
        self.dim = reps.size
        t_class = np.searchsorted(reps, g_rep)
        root_size = np.sqrt(np.bincount(t_class, weights=periods, minlength=self.dim))  # √O
        self._root_size, self._t_reps, self._t_class = root_size, t_reps, t_class
        self._t_coef = g_char / root_size[t_class]

        src, dst, amp = self._flip_table(_pair_masks(n_sites, 1))  # one per anti-aligned bond
        self._diag_zz = (n_sites - 2.0 * np.bincount(src, minlength=self.dim)) / 4.0
        self._flip_pairs = src, dst, 0.5 * amp
        self.width = max(1, _BLOCK_BYTES // (_KRYLOV_VECTORS * self.dim * 8))
        self._block_dst = dst if self.width == 1 else (
            dst + self.dim * np.arange(self.width)[:, None]).ravel()
        # Uᵀ of the Marshall signs m(c) = (−1)^(up spins on odd sites): m(g r)
        # = χ(g) m(r), so each of the O terms of ⟨a|m⟩ is m(r_a)/√O
        odd_sites = np.uint64(int("01" * (n_sites // 2), 2))
        start = root_size * (1.0 - 2.0 * (np.bitwise_count(reps & odd_sites) & 1))
        self.start = start / np.linalg.norm(start)
        for array in (reps, root_size, t_reps, t_class, self._t_coef, self._diag_zz,
                      self.start, self._block_dst, *self._flip_pairs):
            array.flags.writeable = False

    def _locate(self, configs: np.ndarray):
        """(a(c), χ(g_c)/√O) of each S^z = 0 configuration c."""
        rep, shift = _smallest_rotation(configs, self.n_sites)  # c = T^(−shift) r_t
        t = np.searchsorted(self._t_reps, rep)
        coef = self._t_coef[t]
        if self.n_up % 2:
            coef[(shift & 1) == 1] *= -1.0  # χ(T^(−shift)) = λ^shift
        return self._t_class[t], coef

    def _flip_table(self, masks):
        """(src, dst, element) of UᵀFU, F the sum of the flip-flops of the site pairs `masks`.

        One entry per pair anti-aligned in a representative r_a: the flip takes
        r_a to c = g r_b, and χ(g)·√(O_a/O_b) sits at (b, a).
        """
        src, targets = _flips(self._reps, masks)
        dst, coef = self._locate(targets)
        return src, dst, self._root_size[src] * coef

    def pair_table(self, r: int):
        """(A_r, src, dst, element) / 2M of the M `_pair_masks` at ring distance r.

        A_r(a) counts the pairs aligned in r_a; the rest is the int32 flip
        table of X̃_r = UᵀX_rU, X_r the sum of their flip-flops.  r and N − r
        give one table; at r = 1 it is the Hamiltonian's, with no `_locate`.
        """
        r = _ring_distance(self.n_sites, r)
        masks = _pair_masks(self.n_sites, r)
        if r == 1:  # the bonds; doubling the stored ½·amp is exact
            src, dst, half = self._flip_pairs
            element = 2.0 * half
        else:
            src, dst, element = self._flip_table(masks)
        m = len(masks)
        aligned = m - np.bincount(src, minlength=self.dim)
        return aligned / (2 * m), src.astype(np.int32), dst.astype(np.int32), element / (2 * m)


def build_sector(n_sites: int) -> MomentumSector:
    """The solver's sector of the N-site ring: its `MomentumSector`."""
    return MomentumSector(n_sites)


# One reduced sector per ring size serves every Δ; two sizes stay resident.  A
# miss builds through the module-level name `build_sector`.
@functools.lru_cache(maxsize=2)
def _momentum_sector(n_sites: int) -> MomentumSector:
    return build_sector(n_sites)


def apply_hamiltonian(basis: MomentumSector, delta, psi: np.ndarray) -> np.ndarray:
    """Matrix-free H_χ·psi in a `MomentumSector`.

    `psi` is one vector, or a (K, dim) block whose rows go with the K values
    of `delta`; each row is summed in the same order as a lone vector.  A
    block scatters through a prefix of the sector's block table, so K is at
    most `width`.  For one vector, any basis with `dim`, `_diag_zz` and
    `_flip_pairs` serves.
    """
    psi = np.asarray(psi, dtype=np.float64)
    dim = basis.dim
    if psi.ndim not in (1, 2) or psi.shape[-1] != dim:
        raise ValueError(f"psi has shape {psi.shape}, expected ({dim},) or (K, {dim})")
    rows = psi.size // dim
    if rows > 1 and rows > basis.width:  # a lone row needs no `width`
        raise ValueError(f"a block of {rows} rows is wider than the sector's {basis.width}")
    out = (np.asarray(delta, dtype=np.float64)[..., None] * basis._diag_zz) * psi
    src, dst, amp = basis._flip_pairs
    weights = np.take(psi, src, axis=-1)
    weights *= amp
    if rows > 1:
        dst = basis._block_dst[: rows * dst.size]
    out += np.bincount(dst, weights=weights.ravel(), minlength=rows * dim).reshape(psi.shape)
    return out


@dataclass(frozen=True)
class GroundState:
    """Converged lowest eigenpair of H_χ: the amplitudes `phi` in the `MomentumSector` `sector`.

    `ritz_history` holds the lowest Ritz value of each check of T and
    `iterations` counts Lanczos steps; a cache hit has neither.
    """

    sector: MomentumSector
    delta: float
    energy: float
    phi: np.ndarray
    residual: float
    ritz_history: tuple
    iterations: int = 0


class _Column:
    """One Δ's Lanczos run: its start vector, Ritz history, steps and cycles so far.

    Also its run's max(1, Gershgorin bound on ‖T‖) and last Ritz value, and
    its `outcome`: None until the Δ is done, then its `_lanczos_lowest` entry.
    """

    __slots__ = ("delta", "start", "history", "steps", "cycles", "t_norm", "theta", "outcome")

    def __init__(self, delta: float, start: np.ndarray):
        self.delta, self.start = delta, start
        self.history, self.steps, self.cycles = [], 0, 0
        self.t_norm, self.theta, self.outcome = 1.0, math.inf, None

    def spent(self) -> bool:
        """Whether the run is out of cycles; its outcome is then the `ConvergenceError`."""
        if self.cycles < _MAX_CYCLES:
            return False
        self.outcome = ConvergenceError(
            f"Lanczos did not converge in {_MAX_CYCLES} cycles (last Ritz value "
            f"{self.history[-1] if self.history else math.nan!r})"
        )
        return True


def _lanczos_lowest(matvec, start: np.ndarray, deltas):
    """Thick-restart Lanczos for the lowest eigenpair of H(Δ), each Δ of `deltas` from `start`.

    `matvec(Δs, block)` applies H to the rows of a (K, dim) block, row k at
    Δs[k].  The values of Δ run as one block, in lockstep: the
    matvec, the reorthogonalization products and the `eigh` of the Ritz
    checks are each issued once per step for the whole block, and each acts
    on every row on its own, so a Δ's results do not depend on its block.
    Every Δ runs the same algorithm.  Cycles of at most `_KRYLOV_VECTORS`
    vectors are reorthogonalized in two passes.  A cycle that ends
    unconverged keeps its `_KEPT_RITZ` lowest Ritz vectors as the first rows
    of the next (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 602 (2000)): T
    starts as diag(θ) bordered by the arrow row β·s_last, and Lanczos goes
    on from the residual direction.  T is diagonalized on every fourth new
    vector of a cycle and on its last step, for the whole block; a Δ whose
    β turns negligible against T off that schedule is checked alone.  A Δ
    has converged when its Ritz value moves less than `TOL` between two
    checks with a residual estimate below 10·TOL, or when its Krylov space
    is invariant, and it then leaves the block.  A Ritz vector that fails
    the explicit residual check restarts from that vector, in a block of
    the restarts that follows, with its history, steps and cycles.  Returns
    one entry per Δ: (energy, vector, explicit residual, Ritz history, last
    Ritz gap, inf when T is 1×1, Lanczos steps), or the `ConvergenceError`
    of a Δ that ran out of cycles.
    """
    dim = start.size
    m = min(dim, _KRYLOV_VECTORS)
    kept = min(_KEPT_RITZ, m - 1)
    columns = [_Column(delta, start) for delta in deltas]
    block = [col for col in columns if not col.spent()]
    while block:
        block = _lockstep(matvec, block, m, kept)
    return [col.outcome for col in columns]


def _lockstep(matvec, columns, m: int, kept: int) -> list:
    """Run one block of `_lanczos_lowest` until every column has left it.

    Each column leaves with its outcome set, or is returned to restart from
    its Ritz vector.  The vectors live in (K, ...) arrays, one row per
    column, compacted in place as columns leave.
    """
    restarts = []
    v = np.empty((len(columns), m, columns[0].start.size))
    t = np.zeros((len(columns), m, m))
    for c, col in enumerate(columns):
        v[c, 0] = col.start
    deltas = np.array([col.delta for col in columns])
    beta = np.zeros(len(columns))  # the previous β
    first, taken = 0, 0  # the cycle's first new vector, and the block's steps

    while True:
        for j in range(first, m):
            w = matvec(deltas, v[:, j])
            taken += 1
            # two-pass reorthogonalization against the stored cycle vectors; the
            # first pass's coefficient on v_j is α
            cycle = v[:, : j + 1]
            coef = np.matmul(cycle, w[:, :, None])
            t[:, j, j] = alpha = coef[:, j, 0]
            w -= np.matmul(coef.transpose(0, 2, 1), cycle)[:, 0]
            w -= np.matmul(np.matmul(cycle, w[:, :, None]).transpose(0, 2, 1), cycle)[:, 0]
            beta_prev, beta = beta, np.sqrt(np.vecdot(w, w))
            betas = beta.tolist()
            invariant = []  # columns whose Ritz pair is exact
            scalars = zip(columns, alpha.tolist(), beta_prev.tolist(), betas)
            for c, (col, a, b0, b) in enumerate(scalars):
                col.t_norm = max(col.t_norm, abs(a) + b0 + b)
                if b < 1e-13 * col.t_norm:
                    invariant.append(c)

            last = j == m - 1
            left = []  # block rows whose column leaves at this step
            on_schedule = last or (j - first) % 4 == 3
            if on_schedule or invariant:
                # off the schedule only the invariant columns are checked, each alone
                rows = range(len(columns)) if on_schedule else invariant
                checked = t[:, : j + 1, : j + 1] if on_schedule else t[rows, : j + 1, : j + 1]
                eigs, vecs = np.linalg.eigh(checked)
                converged = []
                for i, (c, theta, s_last) in enumerate(
                    zip(rows, eigs[:, 0].tolist(), vecs[:, -1, 0].tolist())
                ):
                    col = columns[c]
                    col.history.append(theta)
                    if c in invariant or (
                        abs(col.theta - theta) < TOL and betas[c] * abs(s_last) < 10.0 * TOL
                    ):
                        converged.append(i)
                        left.append(c)
                    col.theta = theta
                if converged:
                    krylov = cycle if len(left) == len(columns) else v[left, : j + 1]
                    restarts += _explicit_check(matvec, [columns[c] for c in left], deltas[left],
                                                krylov, eigs[converged, :2], vecs[converged, :, 0],
                                                taken)
            if last:  # the others restart thick, unless they have spent their cycles
                for c, col in enumerate(columns):
                    if c not in left:
                        col.cycles += 1
                        if col.spent():
                            left.append(c)
            if left:
                keep = [c for c in range(len(columns)) if c not in left]
                if not keep:
                    return restarts
                for row, c in enumerate(keep):  # in place, without a copy of the block
                    v[row], t[row] = v[c], t[c]
                v, t = v[: len(keep)], t[: len(keep)]
                columns = [columns[c] for c in keep]
                deltas, w, beta = deltas[keep], w[keep], beta[keep]
                if last:
                    eigs, vecs = eigs[keep], vecs[keep]
            if last:
                break
            t[:, j, j + 1] = t[:, j + 1, j] = beta
            np.divide(w, beta[:, None], out=v[:, j + 1])

        # thick restart: keep the lowest Ritz pairs
        v[:, :kept] = np.matmul(vecs[:, :, :kept].transpose(0, 2, 1), v)
        t[:] = 0.0
        t[:, range(kept), range(kept)] = eigs[:, :kept]
        t[:, kept, :kept] = t[:, :kept, kept] = beta[:, None] * vecs[:, -1, :kept]
        np.divide(w, beta[:, None], out=v[:, kept])
        first = kept


def _explicit_check(matvec, columns, deltas, krylov, lowest, ritz, taken):
    """Ritz vectors of converged columns through the explicit residual check.

    `krylov` holds each column's cycle vectors, `ritz` the coefficients of
    its lowest Ritz vector in them and `lowest` its (at most two) lowest
    Ritz values.  A column that passes gets its outcome.  One that fails
    starts a new run from its Ritz vector, with a fresh T, and is returned
    unless that spends its cycles.
    """
    q = np.matmul(ritz[:, None, :], krylov)[:, 0]
    q /= np.sqrt(np.vecdot(q, q))[:, None]
    hq = matvec(deltas, q)
    energies = np.vecdot(q, hq)
    hq -= energies[:, None] * q
    residuals = np.sqrt(np.vecdot(hq, hq))
    failed = []
    for i, col in enumerate(columns):
        col.steps += taken
        if residuals[i] <= 10.0 * TOL:
            gap = float(lowest[i, 1] - lowest[i, 0]) if lowest.shape[1] > 1 else math.inf
            col.outcome = (float(energies[i]), q[i], float(residuals[i]),
                           tuple(col.history), gap, col.steps)
        else:  # restart from q alone, with a sharper target
            col.start, col.cycles, col.t_norm, col.theta = q[i], col.cycles + 1, 1.0, math.inf
            if not col.spent():
                failed.append(col)
    return failed


def _sweep_inputs(n_sites: int, deltas, rs=None):
    """The one check of a solve request: its Δ values as floats, and (r, ring distance) pairs.

    It refuses, in order, an unsupported ring size, a separation outside
    [1, N − 1], and a non-finite Δ or one above `MAX_DELTA`; a Δ of −0.0
    becomes 0.0.  A ground-state request, `rs` None, also refuses Δ ≤ −1,
    whose ground state leaves the S^z = 0 sector; a pair sweep yields
    polarized rows there instead.
    """
    check_ring_size(n_sites)
    separations = [(r, _ring_distance(n_sites, r)) for r in (rs if rs is not None else ())]
    deltas = [float(delta) + 0.0 for delta in deltas]
    for delta in deltas:
        if not math.isfinite(delta):
            raise ValueError(f"delta={delta!r} is not finite")
        if delta > MAX_DELTA:
            raise ValueError(f"delta={delta!r} above {MAX_DELTA:g}: the energy's rounding "
                             f"there exceeds the Lanczos tolerance {TOL:g}")
    if rs is None:
        for delta in deltas:
            if delta <= -1.0:
                raise FerromagneticRegimeError(
                    f"delta={delta!r} <= -1: ground state is fully polarized and leaves "
                    "the S^z = 0 sector; pair discord vanishes there"
                )
    return deltas, separations


def ground_states(n_sites: int, deltas, *, cache_dir=None):
    """Yield the lowest eigenpair of the XXZ ring in the S^z = 0 sector for each Δ, in order.

    Every Δ must lie in (−1, `MAX_DELTA`], so that the sector hosts the
    global ground state and Lanczos can meet `TOL`, and N must be a
    supported ring size: both checked before the sector is built.
    Lanczos runs on H_χ in the `MomentumSector`, and each state keeps its
    amplitudes φ there.  With `cache_dir` set, solved states are persisted
    and read back exactly; an entry is used only if its φ has unit norm and
    passes the residual check.  The values of Δ that miss the cache are
    solved together, the sector's `width` misses to one lockstep block, and
    each state is written to the cache as it is yielded.  A Δ whose solve
    fails raises when the sweep reaches it: the states before it are
    yielded and cached as if each were solved alone, none after it.

    Where a forked worker shares the misses (see the module docstring),
    every entry is read first; the states, order and cache stay the same.
    """
    deltas, _ = _sweep_inputs(n_sites, deltas)
    sector = _momentum_sector(n_sites)
    paths = (None if cache_dir is None else cache_path(cache_dir, n_sites, sector.n_up, delta)
             for delta in deltas)
    entries = ((delta, path, path and _cached_state(sector, delta, path))
               for delta, path in zip(deltas, paths))
    if (len(deltas) >= 2 * sector.width and sys.platform == "linux"
            and n_sites <= _WORKER_MAX_SITES and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1):
        entries = list(entries)
        misses = [i for i, (_delta, _path, cached) in enumerate(entries) if cached is None]
        if len(misses) >= 2 * sector.width:
            yield from _forked_sweep(sector, entries, misses)
            return
    window, misses = [], 0  # (Δ, cache path, cached state) since the last yield
    for delta, path, cached in entries:
        if cached is not None and not window:
            yield cached
            continue
        window.append((delta, path, cached))
        misses += cached is None
        if misses == sector.width:
            yield from _solve_window(sector, window)
            window, misses = [], 0
    yield from _solve_window(sector, window)


def _cached_state(sector: MomentumSector, delta: float, path):
    """The cache entry at `path`, or None if it is missing, corrupt, stale or unnormalized.

    The entry must also pass the residual check at 1e-8.
    """
    cached = load_ground_state(path, (sector.n_sites, sector.n_up, delta))
    if cached is None:
        return None
    energy, phi = cached
    if phi.shape != (sector.dim,) or not abs(np.linalg.norm(phi) - 1.0) <= 1e-8:
        return None
    phi.flags.writeable = False
    residual = float(np.linalg.norm(apply_hamiltonian(sector, delta, phi) - energy * phi))
    if not residual <= 1e-8:  # a NaN energy or φ fails too
        return None
    return GroundState(sector, delta, energy, phi, residual, ())


def _solve_block(sector: MomentumSector, deltas) -> list:
    """The `_lanczos_lowest` outcomes of one lockstep block; a raised exception is its first Δ's."""
    try:
        return _lanczos_lowest(lambda ds, psi: apply_hamiltonian(sector, ds, psi),
                               sector.start, deltas)
    except Exception as exc:
        return [exc]


def _solve_window(sector: MomentumSector, window):
    """Solve the misses of `window` as one lockstep block, then yield its states in order."""
    outcomes = iter(_solve_block(sector, [delta for delta, _p, cached in window if cached is None]))
    for delta, path, state in window:
        yield state if state is not None else _solved_state(sector, delta, path, next(outcomes))


def _solved_state(sector: MomentumSector, delta: float, path, outcome) -> GroundState:
    """The `GroundState` of one solve's outcome, cached at `path`; an error outcome is raised."""
    if isinstance(outcome, Exception):
        raise outcome
    energy, phi, residual, history, gap, steps = outcome
    if gap <= 1e-10:
        raise DegenerateGroundStateError(
            f"Ritz gap {gap!r} <= 1e-10: sector ground state is not unique, pair "
            "density matrices are ill-defined"
        )
    if phi[np.argmax(np.abs(phi))] < 0.0:
        phi = -phi
    phi.flags.writeable = False
    state = GroundState(sector, delta, energy, phi, residual, history, steps)
    if path is not None:
        save_ground_state(path, state)
    return state


def _claim(counters: int, front: bool):
    """The first or last unclaimed block of `counters` (first, end), or None, under a POSIX lock."""
    os.lockf(counters, os.F_LOCK, 0)  # the kernel drops it if its process dies
    first, end = struct.unpack("<qq", os.pread(counters, 16, 0))
    if first < end:
        os.pwrite(counters, struct.pack("<qq", first + front, end - (not front)), 0)
    os.lockf(counters, os.F_ULOCK, 0)
    return None if first == end else first if front else end - 1


def _forked_sweep(sector: MomentumSector, entries, misses):
    """`ground_states` over read `entries`, with a forked worker to share their `misses`.

    The worker claims lockstep blocks of misses from the front and pipes
    back their outcomes in claim order; this process claims blocks from the
    back, and alone makes, caches and yields the states, in order.  A worker
    that dies mid-block fails that block's first Δ.
    """
    import signal

    blocks = [misses[k : k + sector.width] for k in range(0, len(misses), sector.width)]
    fds, outcomes, buffer, sent, pid = [], {}, bytearray(), 0, None

    def solve(block):
        return _solve_block(sector, [entries[i][0] for i in blocks[block]])

    def receive(wait: bool) -> None:
        """Take the worker's finished blocks from the pipe, `wait`ing for one or for its exit."""
        nonlocal sent, pid
        os.set_blocking(read_end, wait)
        try:
            chunk = os.read(read_end, 1 << 16)
        except BlockingIOError:
            return
        buffer.extend(chunk)
        while len(buffer) >= 8 and len(buffer) >= 8 + (size := struct.unpack_from("<Q", buffer)[0]):
            outcomes.update(zip(blocks[sent], pickle.loads(buffer[8 : 8 + size])))
            del buffer[: 8 + size]
            sent += 1
        if not chunk:  # the worker has exited, maybe mid-block
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pid = None
            if sent < struct.unpack("<qq", os.pread(counters, 16, 0))[0]:
                i = blocks[sent][0]
                outcomes[i] = RuntimeError(f"the solver worker exited with status {status} "
                                           f"while solving delta={entries[i][0]!r}")

    try:
        counters = os.memfd_create("spindiscord-blocks")
        fds.append(counters)
        os.pwrite(counters, struct.pack("<qq", 0, len(blocks)), 0)
        read_end, write_end = os.pipe()
        fds += [read_end, write_end]
        pid = os.fork()
        if pid == 0:  # the worker: leaves only through os._exit
            status = 1
            try:
                # a fork can stay on its parent's CPU however idle the others are:
                # move off it (field 39 of the parent's stat)
                with open(f"/proc/{os.getppid()}/stat", "rb") as stat:
                    cpu = int(stat.read().rsplit(b")", 1)[1].split()[36])
                os.sched_setaffinity(0, os.sched_getaffinity(0) - {cpu})
                while (block := _claim(counters, front=True)) is not None:
                    message = pickle.dumps(solve(block))
                    message = struct.pack("<Q", len(message)) + message
                    while message:
                        message = message[os.write(write_end, message):]
                status = 0
            finally:
                os._exit(status)
        os.close(fds.pop())  # the write end
        done, wait = 0, False
        while True:
            if pid:
                receive(wait)
            first = done
            while done < len(entries) and (entries[done][2] is not None or done in outcomes):
                delta, path, cached = entries[done]
                yield cached or _solved_state(sector, delta, path, outcomes.pop(done))
                done += 1
            if done == len(entries):
                return
            wait = False
            if done == first:  # nothing to yield: solve a block, or wait for the worker's
                block = _claim(counters, front=False)
                if block is None:
                    wait = True
                else:
                    outcomes.update(zip(blocks[block], solve(block)))
    finally:  # on every way out, the worker is killed and reaped
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def ground_state(n_sites: int, delta: float, *, cache_dir=None) -> GroundState:
    """Lowest eigenpair of the XXZ ring in the S^z = 0 sector: `ground_states` of one Δ."""
    return next(ground_states(n_sites, [delta], cache_dir=cache_dir))


# ── persistent cache ────────────────────────────────────────────────────────
# Layout: magic "SDKGS1", u32 N, u32 n_up, f64 delta, f64 tol (always TOL),
# f64 energy, u64 dimension, then dimension little-endian f64 amplitudes φ
# in the `MomentumSector`, then u32 CRC32 of the payload bytes.  All
# integers little-endian.


def cache_path(cache_dir, n_sites: int, n_up: int, delta: float) -> Path:
    """File path for one solved sector, keyed on every cache header field."""
    name = (
        f"gs_n{n_sites:02d}_up{n_up:02d}_d{delta:.17g}_t{TOL:.17g}"
        f"_v{_CACHE_CODE_VERSION}.bin"
    )
    return Path(cache_dir) / name


def save_ground_state(path, state: GroundState) -> None:
    path = Path(path)
    sector, payload = state.sector, state.phi.astype("<f8").tobytes()
    header = _CACHE_HEADER.pack(_CACHE_MAGIC, sector.n_sites, sector.n_up, state.delta,
                                TOL, state.energy, sector.dim)
    # a temp file per writer: concurrent writers of one key never share one.
    # Created like any other file, so the cache entry's mode follows the umask.
    # The directory is made only when it is missing.
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(payload)
            fh.write(_CACHE_FOOTER.pack(zlib.crc32(payload)))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_ground_state(path, key):
    """(energy, φ) from a cache file, or None on any mismatch.

    `key` is the request (n_sites, n_up, delta); a header recording any
    other request, or a tol other than `TOL`, is a mismatch.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    if len(blob) < _CACHE_HEADER.size + _CACHE_FOOTER.size:
        return None
    magic, n_sites, n_up, delta, tol, energy, dim = _CACHE_HEADER.unpack_from(blob)
    if magic != _CACHE_MAGIC:
        return None
    if (n_sites, n_up, delta, tol) != (*key, TOL):
        return None
    expected = _CACHE_HEADER.size + 8 * dim + _CACHE_FOOTER.size
    if len(blob) != expected:
        return None
    payload = blob[_CACHE_HEADER.size : _CACHE_HEADER.size + 8 * dim]
    (crc,) = _CACHE_FOOTER.unpack_from(blob, _CACHE_HEADER.size + 8 * dim)
    if zlib.crc32(payload) != crc:
        return None
    return energy, np.frombuffer(payload, dtype="<f8").astype(np.float64)
