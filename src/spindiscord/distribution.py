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
values; bins exist only for presentation and peak counting.

C depends on phi only through |x e^{i phi} + y e^{-i phi}|, so for states
with x = 0 or y = 0 (every ring pair state, whose fixed S^z forces y = 0) it
does not depend on phi at all.  Such states are histogrammed over theta
alone: each grid theta node is evaluated once and carries the weight of its
whole phi row, and Monte Carlo still draws phi (keeping the seeded stream)
but evaluates at phi = 0.  `n_samples` stays the nominal point count.  The
Gauss-Legendre nodes are built once per n_theta and memoized read-only.

Every scheme hands whole chunks of angles to one array kernel,
`xstate.conditional_entropy_values`: the outcome probabilities are computed
once per theta, and the entropies of a chunk in place, from the same
p log2 p term as every other entropy in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .xstate import XState, conditional_entropy_values

__all__ = [
    "UniformSphere",
    "GaussGrid",
    "AngleGrid",
    "EntropyHistogram",
    "MomentsByAnisotropy",
    "sample_distribution",
    "moments_vs_delta",
]

_CHUNK = 1 << 18


def _check_grid(n_theta: int, n_phi: int) -> None:
    if n_theta < 2 or n_phi < 2:
        raise ValueError("grid needs at least 2 nodes per axis")
    if n_theta * n_phi < 1000:
        raise ValueError(
            f"grid of {n_theta}x{n_phi} points is below the 1000-point minimum"
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


def _grid_blocks(theta, weights, phi):
    """Broadcastable (theta column, phi row, weight column) blocks.

    The product grid theta x phi is never materialized: each block holds
    whole theta rows, at most _CHUNK points, and flattens theta-major.
    """
    rows = max(1, _CHUNK // len(phi))
    phi = phi[None, :]
    for start in range(0, len(theta), rows):
        block = slice(start, start + rows)
        yield theta[block, None], phi, weights[block, None]


@dataclass(frozen=True)
class UniformSphere:
    """Seeded Monte Carlo over the solid-angle measure."""

    n_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1000:
            raise ValueError(f"n_samples {self.n_samples} below minimum 1000")

    def _chunks(self):
        rng = np.random.default_rng(self.seed)
        weight = 1.0 / self.n_samples
        remaining = self.n_samples
        while remaining > 0:
            m = min(remaining, _CHUNK)
            cos_theta = rng.uniform(-1.0, 1.0, m)
            phi = rng.uniform(0.0, 2.0 * math.pi, m)
            yield np.arccos(cos_theta), phi, weight
            remaining -= m


@dataclass(frozen=True)
class GaussGrid:
    """Gauss-Legendre quadrature in cos(theta) times a uniform phi grid."""

    n_theta: int = 256
    n_phi: int = 256

    def __post_init__(self):
        _check_grid(self.n_theta, self.n_phi)

    def _chunks(self):
        theta, weights = _gauss_nodes(self.n_theta)
        phi = (np.arange(self.n_phi) + 0.5) * (2.0 * math.pi / self.n_phi)
        return _grid_blocks(theta, weights / (2.0 * self.n_phi), phi)


@dataclass(frozen=True)
class AngleGrid:
    """Equal-weight uniform grid in the angles (theta, phi) themselves."""

    n_theta: int = 8193
    n_phi: int = 256

    def __post_init__(self):
        _check_grid(self.n_theta, self.n_phi)

    def _chunks(self):
        theta = np.linspace(0.0, math.pi, self.n_theta)
        phi = np.arange(self.n_phi) * (2.0 * math.pi / self.n_phi)
        weights = np.full(self.n_theta, 1.0 / (self.n_theta * self.n_phi))
        return _grid_blocks(theta, weights, phi)


@dataclass(frozen=True)
class EntropyHistogram:
    """Binned P(C) plus moments and extrema from the raw weighted values."""

    bin_width: float
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


@dataclass(frozen=True)
class MomentsByAnisotropy:
    """Conditional-entropy moments of the pair (1, 1+r) at one anisotropy."""

    delta: float
    r: int
    mean_c: float
    var_c: float
    min_c: float
    max_c: float


def sample_distribution(state: XState, scheme, bin_width: float = 0.005) -> EntropyHistogram:
    """Histogram and moments of C(theta, phi) under the given scheme."""
    if not 0.0 < bin_width <= 1.0:
        raise ValueError(f"bin_width {bin_width!r} outside (0, 1]")
    if not hasattr(scheme, "_chunks"):
        raise ValueError(f"unknown sampling scheme {scheme!r}")
    n_bins = int(math.ceil(1.0 / bin_width)) + 1
    dense = np.zeros(n_bins)
    s1 = 0.0
    s2 = 0.0
    lo = math.inf
    hi = -math.inf
    total = 0
    phi_free = state.x == 0 or state.y == 0
    for theta, phi, w in scheme._chunks():
        n_points = np.broadcast(theta, phi).size
        if phi_free:
            # C is constant along phi: one value per theta stands for its phi row
            w = w * (n_points // theta.size)
            phi = 0.0
        values = np.maximum(conditional_entropy_values(state, theta, phi), 0.0)
        # C-order flattening is theta-major: the order of the flat product grid
        w = np.broadcast_to(w, values.shape).ravel()
        values = values.ravel()
        idx = np.minimum((values / bin_width).astype(np.int64), n_bins - 1)
        dense += np.bincount(idx, weights=w, minlength=n_bins)
        s1 += float(np.sum(w * values))
        s2 += float(np.sum(w * values * values))
        lo = min(lo, float(values.min()))
        hi = max(hi, float(values.max()))
        total += n_points
    return EntropyHistogram(
        bin_width=bin_width,
        bins={int(i): float(m) for i, m in enumerate(dense) if m > 0.0},
        # a weighted sum of values in [lo, hi] can round just outside them
        mean=min(max(s1, lo), hi),
        variance=max(s2 - s1 * s1, 0.0),
        min_c=lo,
        max_c=hi,
        n_samples=total,
    )


def moments_vs_delta(pairs, scheme=None, *, bin_width: float = 0.005):
    """Conditional-entropy moment rows over `pair_state_sweep` output."""
    if scheme is None:
        scheme = GaussGrid()
    for delta, r, state in pairs:
        hist = sample_distribution(state, scheme, bin_width)
        yield MomentsByAnisotropy(delta, r, hist.mean, hist.variance, hist.min_c, hist.max_c)
