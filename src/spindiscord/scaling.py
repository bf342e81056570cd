"""Phenomenological critical scaling of pair correlators and discord.

Near a continuous transition at reduced temperature t = 1 the correlation
length diverges as a power law, xi(t) = XI0*|1-t|^(-NU).  Two model
correlators follow:

  * pair at separation r:  gamma_far(t, r) = exp(-r/xi(t))/r,
  * nearest neighbors:     gamma_nn(t)     = GAMMA_C - (GAMMA_C - GAMMA_0)|1-t|^(1-ALPHA),

with GAMMA_C the critical-point value and GAMMA_0 the t = 0 value.  Discord
along the curve is the isotropic closed form evaluated at the (negative,
antiferromagnetic-sign) correlator and normalized by its t = 1 value, which
produces a peak of height 1 at the critical point with a kink.  The far
pair's one-sided slopes go as |1-t|^(NU-1) and diverge for NU < 1; the
nearest neighbors' go as |1-t|^(-ALPHA) and diverge only for ALPHA > 0.

The constants are illustrative.  ALPHA and NU lie near the 3D Ising values
alpha ~ 0.110 and nu ~ 0.630 (Pelissetto & Vicari, Phys. Rep. 368, 549
(2002)), where both slopes diverge.  For the 3D Heisenberg class of a
Heisenberg antiferromagnet, alpha ~ -0.134 and nu ~ 0.711 (Campostrini et
al., PRB 65, 144520 (2002)): only the far pair's slope would diverge, and
the nearest-neighbor curve would meet t = 1 with a finite slope.

The five model constants are fixed; the far pair's separation r is the
model's one setting.  The model functions take a float or an array of t, so
a whole curve is one numpy evaluation of the correlator and one of the
closed form.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .correlators import discord_isotropic

__all__ = [
    "PairKind",
    "ScalingDomainError",
    "correlation_length",
    "gamma_far",
    "gamma_nn",
    "normalized_discord_curve",
]

ALPHA = 0.1  # specific-heat exponent of the nearest-neighbor cusp
NU = 0.6  # correlation-length exponent
XI0 = 4.0  # correlation-length amplitude
GAMMA_C = -0.25  # nearest-neighbor correlator at t = 1
GAMMA_0 = -1.0 / 6.0  # nearest-neighbor correlator at t = 0


class PairKind(Enum):
    NN = "nn"
    FAR = "far"


class ScalingDomainError(ValueError):
    """Raised for reduced temperatures or separations outside the model's domain."""


def correlation_length(t):
    """xi(t) for a float or an array of t; +inf at t = 1 (documented sentinel)."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        return XI0 * np.abs(1.0 - t) ** (-NU)


def gamma_far(t, r):
    """Correlator magnitude exp(-r/xi)/r of a pair at separation r; 1/r at t = 1."""
    return np.exp(-r / correlation_length(t)) / r


def gamma_nn(t):
    """Nearest-neighbor correlator GAMMA_C - (GAMMA_C - GAMMA_0)|1-t|^(1-ALPHA)."""
    t = np.asarray(t, dtype=float)
    outside = ~((0.0 <= t) & (t <= 2.0))
    if outside.any():
        raise ScalingDomainError(f"t {float(t[outside].flat[0])!r} outside the model window [0, 2]")
    return GAMMA_C - (GAMMA_C - GAMMA_0) * np.abs(1.0 - t) ** (1.0 - ALPHA)


def normalized_discord_curve(ts, pair: PairKind, r: int = 20) -> list:
    """Discord along the model correlator, normalized to its t = 1 value.

    Returns one float per entry of `ts`, in order.  The far pair feeds
    -gamma_far(t, r) into the isotropic closed form (the reference correlator
    is antiferromagnetic, hence negative); normalization uses the t = 1
    limits GAMMA_C and -1/r, so the far pair needs r >= 4.  The reference
    goes through the same array kernel as the points, so the curve equals
    1.0 exactly at the critical point.
    """
    if pair is PairKind.FAR:
        if r < 4:
            raise ScalingDomainError(
                f"far-pair separation r={r} needs r >= 4: its t = 1 correlator "
                "-1/r is below -1/4, which no pair state has"
            )
        gamma_at = lambda t: -gamma_far(t, r)
        reference = -1.0 / r
    elif pair is PairKind.NN:
        gamma_at = gamma_nn
        reference = GAMMA_C
    else:
        raise ValueError(f"unknown pair kind {pair!r}")
    scale = discord_isotropic(np.array([reference]))
    values = discord_isotropic(gamma_at(np.asarray(ts, dtype=float))) / scale
    return values.tolist()
