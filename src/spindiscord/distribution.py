"""Distribution of the conditional entropy over measurement bases.

For a fixed two-qubit X state, the conditional entropy C(theta, phi) varies
with the measured basis.  This module aggregates its values into a histogram
P(C) and moments under a choice of sampling scheme:

  * UniformSphere: seeded Monte Carlo with cos(theta) uniform on [-1, 1],
    the proper solid-angle measure dOmega/(4 pi).
  * GaussGrid: Gauss-Legendre nodes in cos(theta) times a uniform phi grid,
    a deterministic quadrature of the same solid-angle measure.
  * AngleGrid: equal-weight uniform grid in (theta, phi) itself.  This is a
    different measure: relative to the sphere it oversamples the poles by
    1/sin(theta).  For zero-magnetization pair states, whose C depends on
    theta alone and is monotone in cos^2(theta), the solid-angle density of
    C has a single integrable divergence at the equator value, so histograms
    under the first two schemes are single-peaked; the angle-uniform measure
    adds a second divergence at the pole value and can therefore produce the
    twin-peaked histograms seen in coarse-grained basis surveys.

Moments, extrema, and the histogram are all computed from the raw weighted
values; bins, of one width `BIN_WIDTH`, are only for presentation and peaks.

C depends on phi only through |x e^{i phi} + y e^{-i phi}|, which is constant
when x = 0 or y = 0 (every ring pair state: its fixed S^z forces y = 0).
Such states are histogrammed over theta alone: a grid theta node carries the
weight of its phi row, and Monte Carlo skips its phi draws with
`bit_generator.advance`, which leaves the seeded stream where drawing them
would.  `n_samples` stays the nominal point count.

For every X state C is also unchanged under theta -> pi - theta, which
swaps cos^2(theta/2) with sin^2(theta/2), so the two outcomes trade their
p and b, while cos(theta/2) sin(theta/2) stays the same; and under
phi -> phi + pi, which only flips the sign of x e^{i phi} + y e^{-i phi}.
Both grids are mirror-symmetric in theta, and at an even n_phi their phi
node k + n_phi/2 is node k plus pi.  So a grid evaluates one theta node of
each mirror pair and, for a phi-dependent state at an even n_phi, the first
half of each phi row, each with the weight of the nodes it stands for.  A
phi-dependent grid evaluates a quarter of its nodes, a phi-free one half
of its theta nodes; `n_samples` stays n_theta * n_phi.

This module alone blocks the conditional-entropy path.  Grids evaluate the
kernel's theta front end once per theta node and the phi modulus once per
histogram; Monte Carlo hands its cos(theta) draws to the cos(theta) front
end.  Blocks of at most _BLOCK points (whole theta rows, or slices of each
2^18-sample draw) go to the kernel's body, and each is binned and summed
before the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, NamedTuple

import numpy as np

from .xstate import XState, _cos_rows, _entropy_rows, _modulus2, _theta_rows

__all__ = [
    "UniformSphere",
    "GaussGrid",
    "AngleGrid",
    "EntropyHistogram",
    "MomentsByAnisotropy",
    "sample_distribution",
    "moments_vs_delta",
]

# Points per call of `_entropy_rows`: a block's temporaries,
# a few arrays of this length, stay in the CPU cache.
_BLOCK = 1 << 13
# Monte Carlo samples per RNG call, which fixes the seeded stream.
_DRAW = 1 << 18
# Histogram bin width; C lies in [0, 1], and the last bin also takes C = 1.
BIN_WIDTH = 0.005
_N_BINS = math.ceil(1.0 / BIN_WIDTH) + 1


# Caps measured on 2 CPUs in a fresh process.  A 2^24-point grid evaluates
# 2^22-2^23 points after the mirror folds: its histogram takes 0.14-0.35 s
# and peaks at 131 MB RSS (AngleGrid(2^23, 2)), 101 MB with
# GaussGrid(2048, 8192), whose nodes take 0.7-1.6 s and 65 MB to build.
_MAX_POINTS = 1 << 24
_MAX_GAUSS_NODES = 2048


def _check_grid(n_theta: int, n_phi: int) -> None:
    if n_theta < 2 or n_phi < 2:
        raise ValueError("grid needs at least 2 nodes per axis")
    if n_theta * n_phi < 1000:
        raise ValueError(
            f"grid of {n_theta}x{n_phi} points is below the 1000-point minimum"
        )
    if n_theta * n_phi > _MAX_POINTS:
        raise ValueError(
            f"grid of {n_theta}x{n_phi} points is above the 2^24-point maximum "
            "(2^24 points take up to 0.35 s and 131 MB)"
        )


_GAUSS_NODES = {}  # n_theta -> read-only (polar angles, weights)


def _gauss_nodes(n_theta: int):
    """Gauss-Legendre nodes in cos(theta) as polar angles, with their weights."""
    nodes = _GAUSS_NODES.get(n_theta)
    if nodes is None:
        cos_theta, weights = np.polynomial.legendre.leggauss(n_theta)
        theta = np.arccos(cos_theta)
        theta.flags.writeable = False
        weights.flags.writeable = False
        nodes = _GAUSS_NODES[n_theta] = (theta, weights)
    return nodes


def _grid_blocks(state, theta, weights, phi, phi_free):
    """Broadcastable (theta-row columns, phi-modulus row, weight column) blocks.

    Node n-1-k of theta is pi minus node k, and C(pi - theta, phi) =
    C(theta, phi) (the outcomes trade their p and b; cos(theta/2) sin(theta/2)
    is unchanged): one node of each pair is evaluated with twice its weight,
    and an odd grid's equator node, its own mirror, with its own.  At an even
    n_phi node k + n_phi/2 is node k plus pi, and C(theta, phi + pi) =
    C(theta, phi) (x e^{i phi} + y e^{-i phi} only flips sign): the first half
    of the phi row is evaluated with twice its weight.  A phi-free state is
    blocked over theta nodes alone, each weighted by its phi row.  The caller
    keeps n_samples at the nominal n_theta * n_phi.  The product grid is never
    materialized: each block holds whole theta rows, at most _BLOCK points,
    and flattens theta-major.
    """
    half = (len(theta) + 1) // 2
    folded = 2.0 * weights[:half]
    if len(theta) % 2:
        folded[-1] = weights[half - 1]
    theta = theta[:half]
    if phi_free:
        folded *= len(phi)
        phi = np.zeros(1)
    elif len(phi) % 2 == 0:
        folded *= 2.0
        phi = phi[: len(phi) // 2]
    rows = max(1, _BLOCK // len(phi))
    modulus2 = _modulus2(state, phi[None, :])
    for start in range(0, len(theta), rows):
        block = slice(start, start + rows)
        yield _theta_rows(theta[block, None]), modulus2, folded[block, None]


@dataclass(frozen=True)
class UniformSphere:
    """Seeded Monte Carlo over the solid-angle measure."""

    n_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1000:
            raise ValueError(f"n_samples {self.n_samples} below minimum 1000")

    def _blocks(self, state, phi_free):
        """Blocks of draws that each weigh 1; `sample_distribution` scales by 1/n."""
        rng = np.random.default_rng(self.seed)
        modulus2 = _modulus2(state, 0.0)
        for drawn in range(0, self.n_samples, _DRAW):
            m = min(self.n_samples - drawn, _DRAW)
            cos_theta = rng.uniform(-1.0, 1.0, m)
            if phi_free:
                rng.bit_generator.advance(m)  # past the m phi draws, unused
            else:
                phi = rng.uniform(0.0, 2.0 * math.pi, m)
            for start in range(0, m, _BLOCK):
                block = slice(start, start + _BLOCK)
                modulus2 = modulus2 if phi_free else _modulus2(state, phi[block])
                yield _cos_rows(cos_theta[block]), modulus2, 1.0


@dataclass(frozen=True)
class GaussGrid:
    """Gauss-Legendre quadrature in cos(theta) times a uniform phi grid."""

    n_theta: int = 256
    n_phi: int = 256

    def __post_init__(self):
        if self.n_theta > _MAX_GAUSS_NODES:
            raise ValueError(
                f"n_theta {self.n_theta} is above the 2048-node Gauss maximum "
                "(2048 nodes take 0.7-1.6 s and 65 MB to build)"
            )
        _check_grid(self.n_theta, self.n_phi)

    def _blocks(self, state, phi_free):
        theta, weights = _gauss_nodes(self.n_theta)
        phi = (np.arange(self.n_phi) + 0.5) * (2.0 * math.pi / self.n_phi)
        return _grid_blocks(state, theta, weights / (2.0 * self.n_phi), phi, phi_free)


@dataclass(frozen=True)
class AngleGrid:
    """Equal-weight uniform grid in the angles (theta, phi) themselves."""

    n_theta: int = 8193
    n_phi: int = 256

    def __post_init__(self):
        _check_grid(self.n_theta, self.n_phi)

    def _blocks(self, state, phi_free):
        theta = np.linspace(0.0, math.pi, self.n_theta)
        phi = np.arange(self.n_phi) * (2.0 * math.pi / self.n_phi)
        weights = np.broadcast_to(1.0 / (self.n_theta * self.n_phi), self.n_theta)
        return _grid_blocks(state, theta, weights, phi, phi_free)


@dataclass(frozen=True)
class EntropyHistogram:
    """P(C), bin k covering [k·BIN_WIDTH, (k+1)·BIN_WIDTH), and raw-value moments and extrema."""

    bins: Dict[int, float]
    mean: float
    variance: float
    min_c: float
    max_c: float
    n_samples: int

    def __post_init__(self):
        total = sum(self.bins.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"histogram mass {total!r} does not sum to 1")
        if not self.min_c - 1e-12 <= self.mean <= self.max_c + 1e-12:
            raise ValueError(
                f"mean {self.mean!r} outside [{self.min_c!r}, {self.max_c!r}]"
            )
        if self.variance < 0.0:
            raise ValueError(f"variance {self.variance!r} negative")


class MomentsByAnisotropy(NamedTuple):
    """Conditional-entropy moments of the pair (1, 1+r) at one anisotropy.

    The fields are the `fig6` columns, in order.
    """

    delta: float
    r: int
    mean_c: float
    var_c: float
    min_c: float
    max_c: float


def sample_distribution(state: XState, scheme) -> EntropyHistogram:
    """Histogram, in bins of `BIN_WIDTH`, and moments of C(theta, phi) under the given scheme."""
    if not hasattr(scheme, "_blocks"):
        raise ValueError(f"unknown sampling scheme {scheme!r}")
    if isinstance(scheme, UniformSphere):
        # bins count draws and are scaled once, so a bin's mass is rounded
        # once however many draws it holds
        n_samples, scale = scheme.n_samples, 1.0 / scheme.n_samples
    else:
        n_samples, scale = scheme.n_theta * scheme.n_phi, 1.0
    dense = np.zeros(_N_BINS)
    s1 = 0.0
    s2 = 0.0
    lo = math.inf
    hi = -math.inf
    # C is constant along phi for these states: the schemes fold phi away
    for rows, modulus2, w in scheme._blocks(state, state.x == 0 or state.y == 0):
        values = _entropy_rows(state, *rows, modulus2)
        np.maximum(values, 0.0, out=values)
        # C-order flattening is theta-major: the order of the flat product grid
        weighted = values = values.ravel()
        if isinstance(w, np.ndarray):  # a grid's weight column; a draw weighs 1.0
            w = np.repeat(w, modulus2.size)  # each theta row's weight over its phi row
            weighted = w * values
        idx = np.minimum((values / BIN_WIDTH).astype(np.int64), _N_BINS - 1)
        np.add.at(dense, idx, w)  # in the block's size
        s1 += float(np.sum(weighted))
        s2 += float(np.sum(weighted * values))
        lo = min(lo, float(values.min()))
        hi = max(hi, float(values.max()))
    dense *= scale
    s1 *= scale
    s2 *= scale
    filled = np.flatnonzero(dense > 0.0)
    return EntropyHistogram(
        bins=dict(zip(filled.tolist(), dense[filled].tolist())),
        # a weighted sum of values in [lo, hi] can round just outside them
        mean=min(max(s1, lo), hi),
        variance=max(s2 - s1 * s1, 0.0),
        min_c=lo,
        max_c=hi,
        n_samples=n_samples,
    )


def moments_vs_delta(pairs, scheme=None):
    """Conditional-entropy moment rows over `pair_state_sweep` output."""
    if scheme is None:
        scheme = GaussGrid()
    for delta, r, state in pairs:
        hist = sample_distribution(state, scheme)
        yield MomentsByAnisotropy(delta, r, hist.mean, hist.variance, hist.min_c, hist.max_c)
