"""Phenomenological critical scaling of pair correlators and discord.

Near a continuous transition at reduced temperature t = 1 the correlation
length either diverges as a power law, xi0*|1-t|^(-nu), or with the essential
singularity exp(pi/sqrt(t-1)) of a Kosterlitz-Thouless transition (defined
for t > 1 only).  Two model correlators follow:

  * well-separated pair:   gamma_far(t) = exp(-r/xi(t))/r,
  * nearest neighbors:     gamma_nn(t)  = gamma_c - (gamma_c - gamma_0)|1-t|^(1-alpha),

with gamma_c the critical-point value and gamma_0 the t = 0 value.  Discord
along the curve is the isotropic closed form evaluated at the (negative,
antiferromagnetic-sign) correlator and normalized by its t = 1 value, which
produces a peak of height 1 at the critical point with a kink: the one-sided
slopes diverge because of the |1-t|^(1-alpha) and |1-t|^nu cusps.

The model functions take a float or an array of t, so a whole curve is one
numpy evaluation of the correlator and one of the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .correlators import discord_isotropic

__all__ = [
    "ScalingForm",
    "PairKind",
    "ScalingParams",
    "ScalingDomainError",
    "correlation_length",
    "gamma_far",
    "gamma_nn",
    "normalized_discord_curve",
]


class ScalingForm(Enum):
    POWER_LAW = "power_law"
    KOSTERLITZ_THOULESS = "kosterlitz_thouless"


class PairKind(Enum):
    NN = "nn"
    FAR = "far"


class ScalingDomainError(ValueError):
    """Raised for reduced temperatures outside a form's validity domain."""


@dataclass(frozen=True)
class ScalingParams:
    """Exponents, amplitudes, and reference correlator values."""

    alpha: float = 0.1
    nu: float = 0.6
    xi0: float = 4.0
    r: int = 20
    form: ScalingForm = ScalingForm.POWER_LAW
    gamma_c: float = -0.25
    gamma_0: float = -1.0 / 6.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha {self.alpha!r} outside (0, 1)")
        if not self.nu > 0.0:
            raise ValueError(f"nu {self.nu!r} must be positive")
        if not self.xi0 > 0.0:
            raise ValueError(f"xi0 {self.xi0!r} must be positive")
        if self.r < 1:
            raise ValueError(f"separation r {self.r!r} must be >= 1")


def _check_domain(t: np.ndarray, outside: np.ndarray, message: str) -> None:
    """Raise ScalingDomainError for the first t flagged in `outside`."""
    if outside.any():
        raise ScalingDomainError(message.format(float(t[outside].flat[0])))


def correlation_length(params: ScalingParams, t):
    """xi(t) for a float or an array of t; +inf at t = 1 for the power law (documented sentinel).

    For Kosterlitz-Thouless, xi beyond the float range (t − 1 below about
    2e-5) is +inf too, which leaves gamma_far at its t = 1 value 1/r.
    """
    t = np.asarray(t, dtype=float)
    if params.form is ScalingForm.KOSTERLITZ_THOULESS:
        _check_domain(
            t, t <= 1.0, "Kosterlitz-Thouless correlation length defined for t > 1, got {!r}"
        )
        with np.errstate(over="ignore"):
            return np.exp(np.pi / np.sqrt(t - 1.0))
    with np.errstate(divide="ignore"):
        return params.xi0 * np.abs(1.0 - t) ** (-params.nu)


def gamma_far(params: ScalingParams, t):
    """Large-separation correlator magnitude exp(-r/xi)/r; 1/r at t = 1."""
    xi = correlation_length(params, t)
    return np.exp(-params.r / xi) / params.r


def gamma_nn(params: ScalingParams, t):
    """Nearest-neighbor correlator gamma_c - (gamma_c - gamma_0)|1-t|^(1-alpha)."""
    t = np.asarray(t, dtype=float)
    _check_domain(t, ~((0.0 <= t) & (t <= 2.0)), "t {!r} outside the model window [0, 2]")
    return params.gamma_c - (params.gamma_c - params.gamma_0) * np.abs(1.0 - t) ** (
        1.0 - params.alpha
    )


def normalized_discord_curve(params: ScalingParams, ts, pair: PairKind) -> list:
    """Discord along the model correlator, normalized to its t = 1 value.

    Returns one float per entry of `ts`, in order.  The far pair feeds
    -gamma_far into the isotropic closed form (the reference correlator is
    antiferromagnetic, hence negative); normalization uses the t = 1 limits
    gamma_c and -1/r, so the far pair needs r >= 4.  The reference goes
    through the same array kernel as the points, so the curve equals 1.0
    exactly at the critical point.
    """
    if pair is PairKind.FAR:
        if params.r < 4:
            raise ScalingDomainError(
                f"far-pair separation r={params.r} needs r >= 4: its t = 1 correlator "
                "-1/r is below -1/4, which no pair state has"
            )
        gamma_at = lambda t: -gamma_far(params, t)
        reference = -1.0 / params.r
    elif pair is PairKind.NN:
        gamma_at = lambda t: gamma_nn(params, t)
        reference = params.gamma_c
    else:
        raise ValueError(f"unknown pair kind {pair!r}")
    scale = discord_isotropic(np.array([reference]))
    values = discord_isotropic(gamma_at(np.asarray(ts, dtype=float))) / scale
    return values.tolist()
