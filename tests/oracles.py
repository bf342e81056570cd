"""Reference implementations the tests check the library against: a brute-force
scan of the measurement sphere, the Schmidt form of a pure state, and a peak
search over histogram bins."""

import math

import numpy as np

from spindiscord.xstate import XState, binary_entropy, c00, c90, conditional_entropy_values


def discord_grid_verify(state: XState, n_theta: int = 181, n_phi: int = 360) -> tuple:
    """(grid_min, closed_min, (θ, φ) of grid_min, closed_min − grid_min) over a (θ, φ) grid.

    A discrepancy above the grid resolution means the two-angle closed form
    missed the true optimum.  Grid ties resolve to the first (θ, φ).
    """
    if n_theta < 2 or n_phi < 1:
        raise ValueError("grid needs n_theta >= 2 and n_phi >= 1")
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    grid = conditional_entropy_values(state, thetas[:, None], phis[None, :])
    it, ip = np.unravel_index(int(np.argmin(grid)), grid.shape)
    grid_min = float(grid[it, ip])
    closed = min(c00(state), c90(state)[0])
    return grid_min, closed, (float(thetas[it]), float(phis[ip])), closed - grid_min


def pure_state_discord(a: complex, b: complex, c: complex, d: complex) -> tuple:
    """Discord of the pure state a|00⟩ + b|01⟩ + c|10⟩ + d|11⟩.

    The Schmidt weight is p = (1 + sqrt(1 − |2(bc − ad)|²))/2 and the discord
    equals the entanglement entropy H(p).  Returns (p, discord).
    """
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    norm = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"ket norm² {norm!r} is not 1")
    conc = 2.0 * abs(b * c - a * d)
    p = (1.0 + math.sqrt(max(0.0, 1.0 - conc * conc))) / 2.0
    return p, binary_entropy(p)


def find_peaks(histogram, min_separation: int = 5) -> list:
    """Bin indices that strictly dominate every bin closer than min_separation.

    Missing bins count as zero mass, so two reported peaks are always at
    least min_separation bins apart.
    """
    if min_separation < 1:
        raise ValueError(f"min_separation {min_separation} must be >= 1")
    bins = histogram.bins
    window = min_separation - 1
    peaks = []
    for i, mass in bins.items():
        neighbors = (bins.get(j, 0.0) for j in range(i - window, i + window + 1) if j != i)
        if all(mass > other for other in neighbors):
            peaks.append(i)
    return sorted(peaks)
