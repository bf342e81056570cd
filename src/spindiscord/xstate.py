"""Quantum discord of two-qubit X states from closed-form conditional entropies.

An X state in the product basis |00⟩, |01⟩, |10⟩, |11⟩ has the matrix

        ⎛ u    0    0    y̅ ⎞
    ρ = ⎜ 0    w1   x̅    0 ⎟        u + v + w1 + w2 = 1,  ρ ⪰ 0,
        ⎜ 0    x    w2   0 ⎟        |x|² ≤ w1·w2,  |y|² ≤ u·v.
        ⎝ y    0    0    v ⎠

Measuring qubit B in the basis |0̃⟩ = cos(θ/2)|0⟩ + e^{iφ} sin(θ/2)|1⟩ leaves
qubit A in a conditional state whose eigenvalues are

    λ±(k̃) = [ p_k̃ ± sqrt(b_k̃² + 4|z|²) ] / (2 p_k̃),
    z      = cos(θ/2) sin(θ/2) (x e^{iφ} + y e^{-iφ}),

with outcome probabilities p_0̃, p_1̃ and diagonal splittings b_0̃, b_1̃ given
below.  Every entropy here is a sum of p·log2 p terms: `_xlog2x` with `math`
for a float and `_xlog2x_array` with numpy for an array.  The scalar closed
forms read the validated float entries of an `XState`.
The array kernel has two angle front ends, which give cos²(θ/2), sin²(θ/2)
and their product from θ (`_theta_rows`) or, with no trigonometry, from
cos θ (`_cos_rows`, for Monte Carlo), and one body, `_entropy_rows`, with
no per-point Python loop and no blocking of its own (`distribution` blocks).
`XState` rejects non-finite entries, so no NaN reaches either path.
`discord` evaluates the measurement-conditioned entropy
C_{θ,φ} = Σ_k̃ p_k̃ S(ρ_{A|B_k̃}) at the two candidate angles θ = 0 and
θ = π/2 (with the optimal azimuth φ*) and returns the two-angle closed form

    D(A:B) = min(C_{0,0}, C_{90,φ*}) − S(ρ_AB) + S(ρ_B).

This is exact for the symmetric pair states of the ring (u = v, w1 = w2,
y = 0).  For general X states the minimizing θ can lie strictly inside
(0, π/2) (Lu et al., PRA 83, 012327 (2011)), and the closed form then
overshoots the true minimum; the tests measure that gap against a
brute-force grid of `conditional_entropy_values` over the whole sphere.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from math import hypot, isfinite, log2

import numpy as np

__all__ = [
    "XState",
    "OptimalTheta",
    "DiscordResult",
    "binary_entropy",
    "conditional_entropy_values",
    "c00",
    "c90",
    "discord",
    "random_xstate",
]

# Probabilities within this distance of the valid range are clamped, not rejected.
_CLAMP = 1e-12
# C_00 and C_90 closer than this are a tie: at the isotropic point they are
# equal, and which one rounds lower depends on the last digits of the state.
_TIE = 1e-12
_FIELDS = ("u", "v", "w1", "w2", "x", "y")


def _xlog2x(p: float) -> float:
    """p·log2 p of a float, and 0 for p ≤ 0.

    Every entropy in this package is a sum of these terms: of this one for
    floats, and of `_xlog2x_array`, the same term elementwise, for arrays.
    """
    return p * log2(p) if p > 0.0 else 0.0


def _xlog2x_array(p) -> np.ndarray:
    """`_xlog2x` elementwise, into a new array; masked only where some p ≤ 0."""
    p = np.asarray(p, dtype=float)
    if p.size and p.min() > 0.0:
        out = np.log2(p)
        return np.multiply(out, p, out=out)
    positive = p > 0.0
    out = np.log2(p, out=np.zeros(p.shape), where=positive)
    return np.multiply(out, p, out=out, where=positive)


def _entropy_of(eigs):
    """Shannon entropy (base 2) of a probability vector; zeros contribute 0.

    The entries are floats, or arrays of one shape for an elementwise entropy.
    """
    term = _xlog2x if isinstance(eigs[0], float) else _xlog2x_array
    total = 0.0
    for lam in eigs:
        total -= term(lam)
    return total


def _clamped_binary_entropy(p):
    """Binary entropy of p clamped into [0, 1]; a float or an array."""
    p = min(max(p, 0.0), 1.0) if isinstance(p, float) else np.clip(p, 0.0, 1.0)
    return _entropy_of((p, 1.0 - p))


def _binary_entropy(p: float) -> float:
    """`binary_entropy` of a float: one range check, then two `_xlog2x` terms."""
    if not -_CLAMP <= p <= 1.0 + _CLAMP:
        raise ValueError(f"binary_entropy argument {p!r} outside [0, 1]")
    if 0.0 < p < 1.0:
        return 0.0 - _xlog2x(p) - _xlog2x(1.0 - p)
    return 0.0  # p clamped onto 0 or 1


def binary_entropy(p: float) -> float:
    """H(p) = -p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0.

    Accepts p within 1e-12 outside [0, 1] (clamped); otherwise raises ValueError.
    """
    return _binary_entropy(float(p))


@dataclass(frozen=True, init=False)
class XState:
    """Two-qubit X-state weights; validated on construction.

    u, v, w1, w2 are the diagonal occupations of |00⟩, |11⟩, |01⟩, |10⟩.
    x sits at ⟨10|ρ|01⟩ and y at ⟨11|ρ|00⟩.
    """

    u: float
    v: float
    w1: float
    w2: float
    x: complex = 0.0
    y: complex = 0.0

    def __init__(self, u, v, w1, w2, x=0.0, y=0.0):
        u, v, w1, w2 = float(u), float(v), float(w1), float(w2)
        x, y = complex(x), complex(y)
        # a sum of finite entries is finite unless it overflows, which the trace check rejects
        if not isfinite(u + v + w1 + w2 + x.real + x.imag + y.real + y.imag):
            for name, value in zip(_FIELDS, (u, v, w1, w2, x, y)):
                if not cmath.isfinite(value):
                    raise ValueError(f"X-state entry {name}={value!r} is not finite")
        trace = u + v + w1 + w2
        if abs(trace - 1.0) > 1e-12:
            raise ValueError(f"X-state trace {trace!r} is not 1")
        if min(u, v, w1, w2) < -_CLAMP:
            for name, value in zip(_FIELDS, (u, v, w1, w2)):
                if value < -_CLAMP:
                    raise ValueError(f"negative occupation {name}={value!r}")
        # twice the smaller eigenvalue of each 2x2 block, as `_joint_eigs` gives them
        low_outer = u + v - hypot(u - v, 2.0 * abs(y))
        low_inner = w1 + w2 - hypot(w1 - w2, 2.0 * abs(x))
        if min(low_outer, low_inner) / 2.0 < -1e-9:
            raise ValueError("X-state matrix is not positive semidefinite")
        setattr_ = object.__setattr__  # frozen: each field is set once, here
        setattr_(self, "u", u)
        setattr_(self, "v", v)
        setattr_(self, "w1", w1)
        setattr_(self, "w2", w2)
        setattr_(self, "x", x)
        setattr_(self, "y", y)

    def matrix(self) -> np.ndarray:
        """Dense 4x4 matrix in the |00⟩,|01⟩,|10⟩,|11⟩ basis."""
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = self.u, self.w1, self.w2, self.v
        m[2, 1], m[1, 2] = self.x, np.conj(self.x)
        m[3, 0], m[0, 3] = self.y, np.conj(self.y)
        return m


class OptimalTheta(Enum):
    """Which of the two candidate measurement angles attains the minimum."""

    ZERO = "zero"
    NINETY = "ninety"


_ZERO, _NINETY = OptimalTheta  # a member lookup on an Enum class costs ≈ 0.2 µs


@dataclass(frozen=True)
class DiscordResult:
    discord: float
    c00: float
    c90: float
    phi_star: float
    chosen_theta: OptimalTheta
    s_joint: float
    s_b: float


def _joint_eigs(state: XState) -> tuple:
    """Eigenvalues of ρ_AB as floats: the X structure splits into two 2x2 blocks."""
    u, v, w1, w2 = state.u, state.v, state.w1, state.w2
    outer = hypot(u - v, 2.0 * abs(state.y))
    inner = hypot(w1 - w2, 2.0 * abs(state.x))
    return (
        (u + v + outer) / 2.0,
        (u + v - outer) / 2.0,
        (w1 + w2 + inner) / 2.0,
        (w1 + w2 - inner) / 2.0,
    )


def _theta_rows(theta) -> tuple:
    """The θ front end: cos²(θ/2), sin²(θ/2) and their product, at least 1-D."""
    # at least 1-D, so that every intermediate is an array that can be written in place
    half = np.atleast_1d(theta) / 2.0
    cos_half, sin_half = np.cos(half), np.sin(half, out=half)
    return cos_half * cos_half, sin_half * sin_half, np.square(cos_half * sin_half)


def _cos_rows(cos_theta) -> tuple:
    """The cos θ front end: the same rows from cos θ, with no trigonometry."""
    a2 = (1.0 + cos_theta) / 2.0
    b2 = (1.0 - cos_theta) / 2.0
    return a2, b2, a2 * b2


def _modulus2(state: XState, phi):
    """|x e^{iφ} + y e^{−iφ}|², through which alone C depends on φ."""
    turn = np.exp(1j * np.asarray(phi, dtype=float))
    return np.abs(state.x * turn + state.y * turn.conjugate()) ** 2


def _outcome_entropy(a2, b2, p_weights, b_weights, z4, lam) -> np.ndarray:
    """−p_k̃·H(λ_k̃) of one measurement outcome, in a new array of z4's shape.

    p_k̃ = a2·p_weights[0] + b2·p_weights[1], and b_k̃ likewise from b_weights.
    The splitting root and λ are written into `lam`, which may be z4 itself.
    Where p_k̃ ≤ _CLAMP the outcome is dead: it gets weight 0, and λ is
    computed with p = 1 so that it stays finite.
    """
    pk = a2 * p_weights[0] + b2 * p_weights[1]
    bk = a2 * b_weights[0] + b2 * b_weights[1]
    bk *= bk
    np.sqrt(np.add(bk, z4, out=lam), out=lam)
    del bk
    weight = pk
    # cos² + sin² = 1 up to rounding, so p_k̃ > _CLAMP at every θ when both weights exceed 2·_CLAMP
    if min(p_weights) <= 2.0 * _CLAMP:
        live = pk > _CLAMP
        weight, pk = np.where(live, pk, 0.0), np.where(live, pk, 1.0)
    # λ = (p + root) / 2p ≥ ½, so clipping into [0, 1] only caps it at 1
    np.divide(np.add(pk, lam, out=lam), 2.0 * pk, out=lam)
    np.minimum(lam, 1.0, out=lam)
    h = _xlog2x_array(lam)
    h += _xlog2x_array(np.subtract(1.0, lam, out=lam))
    h *= weight
    return h


def _entropy_rows(state: XState, a2, b2, ab2, modulus2) -> np.ndarray:
    """The shared body: C from either front end's rows and `_modulus2` of φ.

    The outcome probabilities take the shape of the rows alone; only the
    splitting root and the entropies take the full broadcast shape.  When
    the two outcomes are mirror images, u + w2 = w1 + v and u − w2 = v − w1
    as in every ring pair state, one is evaluated and counted twice.
    """
    # 4|z|², with z = cos(θ/2) sin(θ/2) (x e^{iφ} + y e^{-iφ})
    z4 = ab2 * modulus2
    z4 *= 4.0
    d0 = state.u + state.w2   # P(B=0) weight entering outcome probabilities
    d1 = state.w1 + state.v
    e0 = state.u - state.w2
    e1 = state.w1 - state.v
    if d0 == d1 and e0 == -e1:
        # the second outcome repeats the first bit for bit, and
        # (0 − h) − h == 0 − (h + h) exactly
        h = _outcome_entropy(a2, b2, (d0, d1), (e0, e1), z4, z4)
        h += h
        return np.subtract(0.0, h, out=h)
    out = _outcome_entropy(a2, b2, (d0, d1), (e0, e1), z4, np.empty(z4.shape))
    np.subtract(0.0, out, out=out)
    out -= _outcome_entropy(a2, b2, (d1, d0), (e1, e0), z4, z4)
    return out


def conditional_entropy_values(state: XState, theta, phi) -> np.ndarray:
    """C_{θ,φ} evaluated elementwise over broadcast angle arrays (radians).

    Angles are unrestricted; the expression is 2π-periodic and symmetric
    under θ → θ + π (the measurement pair {|0̃⟩, |1̃⟩} is unchanged).  It
    is also symmetric under θ → π − θ, which swaps cos²(θ/2) with
    sin²(θ/2), so the two outcomes trade their p and b, while
    cos(θ/2) sin(θ/2) stays the same; and under φ → φ + π, which only flips
    the sign of x e^{iφ} + y e^{−iφ}.  The two sides of each identity round
    differently, by at most ≈ 4e-15 (1.2e-14 where a conditional state is
    pure).  `distribution` folds both on its grids: one θ node of each
    mirror pair, and at an even n_phi half of each φ row, while its
    `n_samples` stays the nominal grid size.
    A branch with probability at most 1e-12 contributes zero.  This is the
    θ front end and the shared body, over the whole input in one pass.
    """
    theta = np.asarray(theta, dtype=float)
    shape = np.broadcast_shapes(theta.shape, np.shape(phi))
    return _entropy_rows(state, *_theta_rows(theta), _modulus2(state, phi)).reshape(shape)


def c00(state: XState) -> float:
    """C_{θ=0}: measuring B along the computational axis.

    Equals (u+w2) H(u/(u+w2)) + (v+w1) H(v/(v+w1)); empty branches contribute 0.
    """
    u, v = state.u, state.v
    out = 0.0
    p0 = u + state.w2
    if p0 > _CLAMP:
        out += p0 * _binary_entropy(u / p0)
    p1 = v + state.w1
    if p1 > _CLAMP:
        out += p1 * _binary_entropy(v / p1)
    return out


def c90(state: XState) -> tuple:
    """(C_{θ=π/2, φ*}, φ*): equatorial measurement at the optimal azimuth.

    C falls as |x e^{iφ} + y e^{-iφ}| grows.  At φ* = −arg(x y̅)/2 the two
    terms are parallel, so the modulus takes its maximum |x| + |y| (a quarter
    turn later it is ||x| − |y||).  With either amplitude zero the value is
    φ-independent and φ* = 0.
    """
    x, y = state.x, state.y
    abs_x, abs_y = abs(x), abs(y)
    if abs_x < _CLAMP or abs_y < _CLAMP:
        phi_star = 0.0
    else:
        phi_star = (-cmath.phase(x * y.conjugate()) / 2.0) % math.pi
    gap = state.u - state.v + state.w1 - state.w2
    lam = (1.0 + hypot(gap, 2.0 * (abs_x + abs_y))) / 2.0
    return _binary_entropy(lam if lam < 1.0 else 1.0), phi_star


def discord(state: XState) -> DiscordResult:
    """Quantum discord D(A:B) = min(C_00, C_90) − S(ρ_AB) + S(ρ_B).

    Ties between the two candidate angles (within `_TIE`) resolve to θ = 0.
    """
    c_zero = c00(state)
    c_ninety, phi_star = c90(state)
    e0, e1, e2, e3 = _joint_eigs(state)
    s_joint = 0.0 - _xlog2x(e0) - _xlog2x(e1) - _xlog2x(e2) - _xlog2x(e3)
    s_b = _binary_entropy(state.u + state.w2)
    if c_zero <= c_ninety + _TIE:
        chosen, c_min = _ZERO, c_zero
    else:
        chosen, c_min = _NINETY, c_ninety
    return DiscordResult(c_min - s_joint + s_b, c_zero, c_ninety, phi_star, chosen, s_joint, s_b)


def random_xstate(rng: np.random.Generator) -> XState:
    """Random valid X state: flat-simplex diagonal, coherences inside the
    positivity disks |x| ≤ sqrt(w1 w2), |y| ≤ sqrt(u v), uniform phases.

    The diagonal is what `rng.dirichlet(np.ones(4))` draws, bit for bit and
    with the same stream, without its per-call overhead: four unit-shape
    gammas, summed left to right, each times the reciprocal of the sum.
    Dividing by the sum instead would round differently.
    """
    g0, g1, g2, g3 = rng.standard_gamma(1.0, 4).tolist()
    scale = 1.0 / (g0 + g1 + g2 + g3)
    u, v, w1, w2 = g0 * scale, g1 * scale, g2 * scale, g3 * scale
    # the four uniforms on [0, 1) that four rng.uniform() calls would draw, in order
    x_radius, x_turn, y_radius, y_turn = rng.random(4).tolist()
    x = math.sqrt(w1 * w2) * x_radius * cmath.exp(2j * math.pi * x_turn)
    y = math.sqrt(u * v) * y_radius * cmath.exp(2j * math.pi * y_turn)
    return XState(u, v, w1, w2, x, y)
