"""Quantum discord toolkit for two-qubit X states and XXZ Heisenberg rings."""

from .xstate import XState, discord
from .spinchain import ground_state
from .correlators import two_site_rdm, k_ratio
from .distribution import GaussGrid, sample_distribution

__version__ = "0.1.0"
