import numpy as np
import pytest

from spindiscord import spinchain
from spindiscord.spinchain import ground_state


@pytest.fixture(scope="session")
def solve():
    """Memoized ground-state solver shared across the test session."""
    cache = {}

    def _solve(n_sites, delta, **kwargs):
        key = (n_sites, delta, tuple(sorted(kwargs.items())))
        if key not in cache:
            cache[key] = ground_state(n_sites, delta, **kwargs)
        return cache[key]

    return _solve


@pytest.fixture
def spoil_first_check(monkeypatch):
    """Make the explicit residual check of one Δ's first converged run fail.

    `spoil(delta, steps)` shifts the matvec row of `delta` by 1e-6 on its
    `steps + 1`-th appearance, the explicit check after a run of `steps`
    Lanczos steps, so that Δ restarts from its Ritz vector.  The row is
    counted per Δ, so the spoiled call is the same in any block.
    """

    def spoil(delta, steps):
        real, seen = spinchain.apply_hamiltonian, []

        def matvec(basis, deltas, psi):
            out = real(basis, deltas, psi)
            for row, value in enumerate(np.atleast_1d(deltas).tolist()):
                if value == delta:
                    seen.append(row)
                    if len(seen) == steps + 1:
                        out[row] += 1e-6
            return out

        monkeypatch.setattr(spinchain, "apply_hamiltonian", matvec)

    return spoil
