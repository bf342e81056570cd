"""Reference implementations the tests check the library against: the full
S^z = 0 basis and a dense sector Hamiltonian, a brute-force scan of the
measurement sphere, the Schmidt form of a pure state, and a peak search over
histogram bins."""

import math
from functools import cached_property

import numpy as np

from spindiscord import spinchain
from spindiscord.xstate import XState, binary_entropy, c00, c90, conditional_entropy_values


class SectorBasis:
    """All N-site configurations with a fixed number of up spins, ascending.

    Picking them from all 2^N bit patterns briefly holds about 2^N * 10 B,
    10 MB at N = 20.  `_diag_zz` and `_flip_pairs` give H on these
    configurations to `apply_hamiltonian`, for vectors too long for
    `dense_sector_hamiltonian`.
    """

    def __init__(self, n_sites: int, n_up: int):
        spinchain.check_ring_size(n_sites)
        if not 0 <= n_up <= n_sites:
            raise ValueError(f"n_up {n_up} outside [0, {n_sites}]")
        self.n_sites = n_sites
        self.n_up = n_up
        every = np.arange(1 << n_sites, dtype=np.uint64)
        self.states = every[np.bitwise_count(every) == n_up]
        self.states.flags.writeable = False
        self.dim = len(self.states)

    def index_of(self, config: int) -> int:
        """Position of a configuration in the basis; KeyError if absent."""
        pos = int(np.searchsorted(self.states, np.uint64(config)))
        if pos == self.dim or int(self.states[pos]) != config:
            raise KeyError(f"configuration {config:#x} not in sector")
        return pos

    def _anti_bonds(self) -> list:
        """Per bond, bits i and i+1 mod N: 1 where a configuration is anti-aligned there, else 0."""
        n, states = self.n_sites, self.states
        return [((states >> np.uint64(i)) ^ (states >> np.uint64((i + 1) % n))) & np.uint64(1)
                for i in range(n)]

    @cached_property
    def _diag_zz(self) -> np.ndarray:
        """Σ_bonds s^z s^z per configuration: (aligned − anti-aligned)/4."""
        anti = sum(self._anti_bonds()).astype(np.float64)
        return (self.n_sites - 2.0 * anti) / 4.0

    @cached_property
    def _flip_pairs(self):
        """(src, dst, 1/2): index pairs connected by one neighbor flip-flop."""
        n = self.n_sites
        src = [np.flatnonzero(anti) for anti in self._anti_bonds()]
        targets = [self.states[s] ^ np.uint64((1 << i) | (1 << ((i + 1) % n)))
                   for i, s in enumerate(src)]
        return np.concatenate(src), np.searchsorted(self.states, np.concatenate(targets)), 0.5


def sector_configs(n_sites: int) -> list:
    """The S^z = 0 configurations of an N-site ring as ascending ints (bit i−1 holds site i)."""
    return SectorBasis(n_sites, n_sites // 2).states.tolist()


def expand(sector, phi: np.ndarray) -> np.ndarray:
    """U·φ: a `MomentumSector` vector's amplitudes on the ascending S^z = 0 configurations."""
    orbit, coef = sector._locate(SectorBasis(sector.n_sites, sector.n_up).states)
    return phi[orbit] * coef


def dense_sector_hamiltonian(n_sites: int, delta: float) -> np.ndarray:
    """Dense S^z = 0 Hamiltonian built from scratch with plain integer bit ops.

    Deliberately shares no construction code with `apply_hamiltonian`; the
    configuration order is ascending, as in `SectorBasis`.
    """
    dim = math.comb(n_sites, n_sites // 2)
    if dim > 4096:
        raise ValueError(f"sector dimension {dim} too large for the dense oracle")
    configs = sector_configs(n_sites)
    index = {c: a for a, c in enumerate(configs)}
    h = np.zeros((dim, dim))
    for a, c in enumerate(configs):
        aligned = 0
        for i in range(n_sites):
            j = (i + 1) % n_sites
            if ((c >> i) & 1) == ((c >> j) & 1):
                aligned += 1
            else:
                h[index[c ^ ((1 << i) | (1 << j))], a] += 0.5
        h[a, a] = delta * (2 * aligned - n_sites) / 4.0
    return h


def dense_spectrum_oracle(n_sites: int, delta: float) -> np.ndarray:
    """All S^z = 0 eigenvalues, ascending, via dense diagonalization."""
    return np.linalg.eigvalsh(dense_sector_hamiltonian(n_sites, delta))


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
