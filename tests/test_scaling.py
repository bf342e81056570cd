"""Tests for the phenomenological critical-scaling module."""

import math

import numpy as np
import pytest
from pytest import approx

from spindiscord import correlators, scaling
from spindiscord.correlators import discord_isotropic
from spindiscord.scaling import (
    ALPHA,
    GAMMA_0,
    GAMMA_C,
    NU,
    XI0,
    PairKind,
    ScalingDomainError,
    correlation_length,
    gamma_far,
    gamma_nn,
    normalized_discord_curve,
)


def reference_curve(ts, pair, r=20):
    """Per-point curve: the model correlator and the isotropic closed form, in `math`."""

    def gamma(t):
        if pair is PairKind.NN:
            return GAMMA_C - (GAMMA_C - GAMMA_0) * abs(1.0 - t) ** (1.0 - ALPHA)
        xi = math.inf if t == 1.0 else XI0 * abs(1.0 - t) ** (-NU)
        return -math.exp(-r / xi) / r

    def h(p):
        p = min(max(p, 0.0), 1.0)
        return -sum(q * math.log2(q) for q in (p, 1.0 - p) if q > 0.0)

    def discord(g):
        eigs = [0.25 + g, 0.25 + g, 0.25 + g, 0.25 - 3.0 * g]
        s_joint = -sum(e * math.log2(e) for e in eigs if e > 0.0)
        return 1.0 - s_joint + min(h(0.5 + 2.0 * g), h(0.5 + 2.0 * g))

    g_ref = GAMMA_C if pair is PairKind.NN else -1.0 / r
    return [discord(gamma(t)) / discord(g_ref) for t in ts]


# the fig1 benchmark grid 0:2:0.0001, built as the CLI builds a range
FINE_GRID = [round(i * 0.0001, 12) + 0.0 for i in range(20001)]


def power_grid(step=0.01):
    # symmetric window around the critical point, t = 1 landed exactly
    return [round(0.5 + step * i, 10) for i in range(int(round(1.0 / step)) + 1)]


class TestModelConstants:
    def test_values(self):
        assert (ALPHA, NU, XI0, GAMMA_C, GAMMA_0) == (0.1, 0.6, 4.0, -0.25, -1.0 / 6.0)


class TestCorrelationLength:
    def test_power_law_unit_distance(self):
        # |1 - t| = 1 leaves only the amplitude
        assert correlation_length(0.0) == approx(4.0, abs=0.0)
        assert correlation_length(2.0) == approx(4.0, abs=0.0)

    def test_power_law_value(self):
        assert correlation_length(1.5) == approx(6.062866266041592, abs=1e-14)
        assert correlation_length(0.5) == approx(6.062866266041592, abs=1e-14)

    def test_power_law_critical_sentinel(self):
        assert correlation_length(1.0) == math.inf

    def test_power_law_diverges_toward_critical(self):
        xs = [correlation_length(1.0 + h) for h in (0.5, 0.1, 0.01, 0.001)]
        assert all(b > a for a, b in zip(xs, xs[1:]))


class TestGammaFar:
    def test_critical_value(self):
        # infinite correlation length leaves the bare 1/r amplitude
        assert gamma_far(1.0, 20) == approx(0.05, abs=0.0)

    def test_deep_disordered_value(self):
        assert gamma_far(0.0, 20) == approx(0.00033689734995427336, abs=1e-18)

    def test_maximal_at_critical_point(self):
        ts = power_grid()
        peak = gamma_far(1.0, 20)
        for t in ts:
            if t != 1.0:
                assert gamma_far(t, 20) < peak

    def test_positive_everywhere(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            t = float(rng.uniform(0.0, 2.0))
            assert gamma_far(t, 20) > 0.0


class TestGammaNN:
    def test_endpoint_values(self):
        assert gamma_nn(1.0) == approx(-0.25, abs=0.0)
        assert gamma_nn(0.0) == approx(-1.0 / 6.0, abs=1e-15)
        assert gamma_nn(2.0) == approx(-1.0 / 6.0, abs=1e-15)

    def test_midpoint_value(self):
        assert gamma_nn(0.5) == approx(-0.2053427723943211, abs=1e-15)

    def test_continuous_at_critical_point(self):
        for h in (1e-3, 1e-6, 1e-9):
            assert gamma_nn(1.0 - h) == approx(-0.25, abs=10 * h ** (1 - ALPHA))
            assert gamma_nn(1.0 + h) == approx(-0.25, abs=10 * h ** (1 - ALPHA))

    def test_bounded_by_endpoints(self):
        # |1 - t| <= 1 keeps the correlator between its t=0 and t=1 values
        rng = np.random.default_rng(23)
        for _ in range(200):
            t = float(rng.uniform(0.0, 2.0))
            assert -0.25 - 1e-15 <= gamma_nn(t) <= -1.0 / 6.0 + 1e-15

    def test_rejects_outside_window(self):
        with pytest.raises(ScalingDomainError):
            gamma_nn(-0.1)
        with pytest.raises(ScalingDomainError):
            gamma_nn(2.5)


class TestNormalizedCurve:
    def test_exactly_one_at_critical_point(self):
        for pair in (PairKind.NN, PairKind.FAR):
            (value,) = normalized_discord_curve([1.0], pair)
            assert value == 1.0

    def test_strictly_below_one_off_critical(self):
        ts = power_grid()
        for pair in (PairKind.NN, PairKind.FAR):
            for t, value in zip(ts, normalized_discord_curve(ts, pair)):
                if t != 1.0:
                    assert 0.0 < value < 1.0

    def test_frozen_spot_values(self):
        nn = dict(zip([0.5, 0.9], normalized_discord_curve([0.5, 0.9], PairKind.NN)))
        far = dict(zip([0.5, 0.9], normalized_discord_curve([0.5, 0.9], PairKind.FAR)))
        assert nn[0.5] == approx(0.6536065250949649, abs=1e-12)
        assert nn[0.9] == approx(0.895309416707947, abs=1e-12)
        assert far[0.5] == approx(0.0015936165548300126, abs=1e-14)
        assert far[0.9] == approx(0.09051603548917683, abs=1e-12)

    def test_symmetric_about_critical_point(self):
        # power-law model depends on t only through |1 - t|
        for pair in (PairKind.NN, PairKind.FAR):
            lo = normalized_discord_curve([0.6, 0.8, 0.95], pair)
            hi = normalized_discord_curve([1.4, 1.2, 1.05], pair)
            for a, b in zip(lo, hi):
                assert a == approx(b, abs=1e-12)

    def test_nn_curve_is_discord_of_nn_correlator(self):
        # the critical correlator -1/4 is the fully entangled reference point
        assert discord_isotropic(GAMMA_C) == approx(1.0, abs=1e-12)
        for t, value in zip([0.7, 1.3], normalized_discord_curve([0.7, 1.3], PairKind.NN)):
            assert value == approx(discord_isotropic(gamma_nn(t)), abs=1e-12)

    def test_kink_slopes_diverge(self):
        steps = (1e-2, 1e-3, 1e-4, 1e-5)
        for pair, growth in ((PairKind.NN, 2.0), (PairKind.FAR, 10.0)):
            for side in (+1.0, -1.0):
                ts = [1.0 + side * h for h in steps]
                vals = normalized_discord_curve(ts, pair)
                slopes = [(1.0 - value) / h for value, h in zip(vals, steps)]
                assert all(b > a for a, b in zip(slopes, slopes[1:]))
                assert slopes[-1] > growth * slopes[0]

    def test_rejects_unknown_pair(self):
        with pytest.raises(ValueError):
            normalized_discord_curve([1.0], "near")

    def test_random_params_normalize_to_one(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            r = int(rng.integers(5, 60))
            for pair in (PairKind.NN, PairKind.FAR):
                (value,) = normalized_discord_curve([1.0], pair, r)
                assert value == 1.0


class TestCurveMatchesReference:
    @pytest.mark.parametrize("pair", [PairKind.NN, PairKind.FAR])
    def test_fine_grid(self, pair):
        points = normalized_discord_curve(FINE_GRID, pair)
        assert len(points) == len(FINE_GRID)
        want = reference_curve(FINE_GRID, pair)
        assert max(abs(value - w) for value, w in zip(points, want)) <= 1e-13
        assert FINE_GRID[10000] == 1.0 and points[10000] == 1.0

    def test_accepts_arrays_and_ranges(self):
        want = normalized_discord_curve([0.0, 1.0, 2.0], PairKind.NN)
        for ts in (np.array([0.0, 1.0, 2.0]), range(3)):
            assert normalized_discord_curve(ts, PairKind.NN) == want

    def test_points_are_plain_floats(self):
        points = normalized_discord_curve([0.5], PairKind.NN)
        assert type(points) is list and type(points[0]) is float
        assert points[0] == approx(0.6536065250949649, abs=1e-12)

    @pytest.mark.parametrize("pair", [PairKind.NN, PairKind.FAR])
    def test_one_kernel_call_for_the_points_and_one_for_the_reference(self, monkeypatch, pair):
        calls = []
        real = correlators._symmetric_discord

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(correlators, "_symmetric_discord", counting)
        points = normalized_discord_curve(FINE_GRID, pair)
        assert len(points) == 20001
        assert len(calls) <= 2

    @pytest.mark.parametrize("pair", [PairKind.NN, PairKind.FAR])
    def test_the_curve_calls_the_public_closed_form(self, monkeypatch, pair):
        calls = []

        def counting(gamma_d):
            calls.append(np.shape(gamma_d))
            return discord_isotropic(gamma_d)

        monkeypatch.setattr(scaling, "discord_isotropic", counting)
        normalized_discord_curve(FINE_GRID, pair)
        assert calls == [(1,), (20001,)]  # the reference, then the points


class TestDomainMessages:
    """Domain errors name the first offending input, in the same words as before."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: gamma_nn(-0.1), "t -0.1 outside the model window [0, 2]"),
            (lambda: gamma_nn(2.5), "t 2.5 outside the model window [0, 2]"),
            (
                lambda: normalized_discord_curve([0.5, 2.5, -1.0], PairKind.NN),
                "t 2.5 outside the model window [0, 2]",
            ),
            (
                # the reference correlator -1/r is unphysical: refused before the kernel
                lambda: normalized_discord_curve([0.5], PairKind.FAR, 2),
                "far-pair separation r=2 needs r >= 4: its t = 1 correlator -1/r is below "
                "-1/4, which no pair state has",
            ),
        ],
    )
    def test_scaling_domain(self, call, message):
        with pytest.raises(ScalingDomainError) as info:
            call()
        assert str(info.value) == message


class TestQuadraticLaw:
    """The far-pair curve follows the square of the correlator ratio.

    The quadratic law is the leading term of an expansion in the correlator,
    so pointwise 1% agreement needs the normalization correlator itself to
    be small.  At the default separation (peak correlator 0.05) the cubic
    correction at the normalization point is already a 15% rescaling of the
    whole curve, so only a loose absolute envelope holds there.
    """

    def test_small_correlator_regime_within_one_percent(self):
        r = 500
        offsets = (0.001, 0.002, 0.004, 0.006, 0.008)
        ts = [1.0 + s * d for d in offsets for s in (+1.0, -1.0)]
        g1 = 1.0 / r
        for t, value in zip(ts, normalized_discord_curve(ts, PairKind.FAR, r)):
            law = (gamma_far(t, r) / g1) ** 2
            assert value == approx(law, rel=0.01)

    def test_default_separation_absolute_envelope(self):
        g1 = gamma_far(1.0, 20)
        worst = 0.0
        ts = power_grid()
        for t, value in zip(ts, normalized_discord_curve(ts, PairKind.FAR)):
            law = (gamma_far(t, 20) / g1) ** 2
            worst = max(worst, abs(value - law))
        # measured 0.0215 at the kink shoulders with the default separation
        assert worst < 0.025
        assert worst > 0.01
