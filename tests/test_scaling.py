"""Tests for the phenomenological critical-scaling module."""

import math

import numpy as np
import pytest
from pytest import approx

from spindiscord import correlators, scaling
from spindiscord.correlators import CorrelatorDomainError, discord_isotropic
from spindiscord.scaling import (
    NormalizedDiscordPoint,
    PairKind,
    ScalingDomainError,
    ScalingForm,
    ScalingParams,
    correlation_length,
    gamma_far,
    gamma_nn,
    normalized_discord_curve,
)


def reference_curve(params, ts, pair):
    """Per-point curve: the model correlator and the isotropic closed form, in `math`."""

    def gamma(t):
        if pair is PairKind.NN:
            return params.gamma_c - (params.gamma_c - params.gamma_0) * abs(1.0 - t) ** (
                1.0 - params.alpha
            )
        if params.form is ScalingForm.KOSTERLITZ_THOULESS:
            xi = math.exp(math.pi / math.sqrt(t - 1.0))
        else:
            xi = math.inf if t == 1.0 else params.xi0 * abs(1.0 - t) ** (-params.nu)
        return -math.exp(-params.r / xi) / params.r

    def h(p):
        p = min(max(p, 0.0), 1.0)
        return -sum(q * math.log2(q) for q in (p, 1.0 - p) if q > 0.0)

    def discord(g):
        eigs = [0.25 + g, 0.25 + g, 0.25 + g, 0.25 - 3.0 * g]
        s_joint = -sum(e * math.log2(e) for e in eigs if e > 0.0)
        return 1.0 - s_joint + min(h(0.5 + 2.0 * g), h(0.5 + 2.0 * g))

    g_ref = params.gamma_c if pair is PairKind.NN else -1.0 / params.r
    return [discord(gamma(t)) / discord(g_ref) for t in ts]


# the fig1 benchmark grid 0:2:0.0001, built as the CLI builds a range
FINE_GRID = [round(i * 0.0001, 12) + 0.0 for i in range(20001)]


def power_grid(step=0.01):
    # symmetric window around the critical point, t = 1 landed exactly
    return [round(0.5 + step * i, 10) for i in range(int(round(1.0 / step)) + 1)]


class TestScalingParams:
    def test_defaults(self):
        p = ScalingParams()
        assert p.alpha == approx(0.1, abs=0.0)
        assert p.nu == approx(0.6, abs=0.0)
        assert p.xi0 == approx(4.0, abs=0.0)
        assert p.r == 20
        assert p.form is ScalingForm.POWER_LAW
        assert p.gamma_c == approx(-0.25, abs=0.0)
        assert p.gamma_0 == approx(-1.0 / 6.0, abs=0.0)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            ScalingParams(alpha=0.0)
        with pytest.raises(ValueError):
            ScalingParams(alpha=1.0)
        with pytest.raises(ValueError):
            ScalingParams(nu=0.0)
        with pytest.raises(ValueError):
            ScalingParams(nu=-0.5)
        with pytest.raises(ValueError):
            ScalingParams(xi0=0.0)
        with pytest.raises(ValueError):
            ScalingParams(r=0)

    def test_frozen(self):
        p = ScalingParams()
        with pytest.raises(Exception):
            p.alpha = 0.2


class TestCorrelationLength:
    def test_power_law_unit_distance(self):
        # |1 - t| = 1 leaves only the amplitude
        p = ScalingParams()
        assert correlation_length(p, 0.0) == approx(4.0, abs=0.0)
        assert correlation_length(p, 2.0) == approx(4.0, abs=0.0)

    def test_power_law_value(self):
        p = ScalingParams()
        assert correlation_length(p, 1.5) == approx(6.062866266041592, abs=1e-14)
        assert correlation_length(p, 0.5) == approx(6.062866266041592, abs=1e-14)

    def test_power_law_critical_sentinel(self):
        assert correlation_length(ScalingParams(), 1.0) == math.inf

    def test_power_law_diverges_toward_critical(self):
        p = ScalingParams()
        xs = [correlation_length(p, 1.0 + h) for h in (0.5, 0.1, 0.01, 0.001)]
        assert all(b > a for a, b in zip(xs, xs[1:]))

    def test_kt_unit_exponent(self):
        p = ScalingParams(form=ScalingForm.KOSTERLITZ_THOULESS)
        assert correlation_length(p, 1.0 + math.pi**2) == approx(math.e, abs=1e-15)

    def test_kt_value(self):
        p = ScalingParams(form=ScalingForm.KOSTERLITZ_THOULESS)
        assert correlation_length(p, 1.5) == approx(85.01969522320721, abs=1e-11)

    def test_kt_beyond_float_range_is_infinite(self):
        # exp(pi/sqrt(t - 1)) overflows for t - 1 < 1.96e-5: the far correlator is then 1/r
        p = ScalingParams(form=ScalingForm.KOSTERLITZ_THOULESS)
        assert correlation_length(p, 1.0 + 1e-6) == math.inf
        assert gamma_far(p, 1.0 + 1e-6) == 1.0 / p.r
        (pt,) = normalized_discord_curve(p, [1.0 + 1e-6], PairKind.FAR)
        assert pt.value == 1.0

    def test_kt_rejects_low_side(self):
        p = ScalingParams(form=ScalingForm.KOSTERLITZ_THOULESS)
        with pytest.raises(ScalingDomainError):
            correlation_length(p, 1.0)
        with pytest.raises(ScalingDomainError):
            correlation_length(p, 0.5)


class TestGammaFar:
    def test_critical_value(self):
        # infinite correlation length leaves the bare 1/r amplitude
        assert gamma_far(ScalingParams(), 1.0) == approx(0.05, abs=0.0)

    def test_deep_disordered_value(self):
        assert gamma_far(ScalingParams(), 0.0) == approx(
            0.00033689734995427336, abs=1e-18
        )

    def test_maximal_at_critical_point(self):
        p = ScalingParams()
        ts = power_grid()
        peak = gamma_far(p, 1.0)
        for t in ts:
            if t != 1.0:
                assert gamma_far(p, t) < peak

    def test_positive_everywhere(self):
        rng = np.random.default_rng(11)
        p = ScalingParams()
        for _ in range(200):
            t = float(rng.uniform(0.0, 2.0))
            assert gamma_far(p, t) > 0.0


class TestGammaNN:
    def test_endpoint_values(self):
        p = ScalingParams()
        assert gamma_nn(p, 1.0) == approx(-0.25, abs=0.0)
        assert gamma_nn(p, 0.0) == approx(-1.0 / 6.0, abs=1e-15)
        assert gamma_nn(p, 2.0) == approx(-1.0 / 6.0, abs=1e-15)

    def test_midpoint_value(self):
        assert gamma_nn(ScalingParams(), 0.5) == approx(
            -0.2053427723943211, abs=1e-15
        )

    def test_continuous_at_critical_point(self):
        p = ScalingParams()
        for h in (1e-3, 1e-6, 1e-9):
            assert gamma_nn(p, 1.0 - h) == approx(-0.25, abs=10 * h ** (1 - p.alpha))
            assert gamma_nn(p, 1.0 + h) == approx(-0.25, abs=10 * h ** (1 - p.alpha))

    def test_bounded_by_endpoints(self):
        # |1 - t| <= 1 keeps the correlator between its t=0 and t=1 values
        rng = np.random.default_rng(23)
        for _ in range(200):
            alpha = float(rng.uniform(0.05, 0.95))
            t = float(rng.uniform(0.0, 2.0))
            g = gamma_nn(ScalingParams(alpha=alpha), t)
            assert -0.25 - 1e-15 <= g <= -1.0 / 6.0 + 1e-15

    def test_rejects_outside_window(self):
        p = ScalingParams()
        with pytest.raises(ScalingDomainError):
            gamma_nn(p, -0.1)
        with pytest.raises(ScalingDomainError):
            gamma_nn(p, 2.5)


class TestNormalizedCurve:
    def test_exactly_one_at_critical_point(self):
        p = ScalingParams()
        for pair in (PairKind.NN, PairKind.FAR):
            (pt,) = normalized_discord_curve(p, [1.0], pair)
            assert isinstance(pt, NormalizedDiscordPoint)
            assert pt.t == 1.0
            assert pt.value == 1.0

    def test_strictly_below_one_off_critical(self):
        p = ScalingParams()
        ts = power_grid()
        for pair in (PairKind.NN, PairKind.FAR):
            for pt in normalized_discord_curve(p, ts, pair):
                if pt.t != 1.0:
                    assert 0.0 < pt.value < 1.0

    def test_frozen_spot_values(self):
        p = ScalingParams()
        nn = {pt.t: pt.value for pt in normalized_discord_curve(p, [0.5, 0.9], PairKind.NN)}
        far = {pt.t: pt.value for pt in normalized_discord_curve(p, [0.5, 0.9], PairKind.FAR)}
        assert nn[0.5] == approx(0.6536065250949649, abs=1e-12)
        assert nn[0.9] == approx(0.895309416707947, abs=1e-12)
        assert far[0.5] == approx(0.0015936165548300126, abs=1e-14)
        assert far[0.9] == approx(0.09051603548917683, abs=1e-12)

    def test_symmetric_about_critical_point(self):
        # power-law model depends on t only through |1 - t|
        p = ScalingParams()
        for pair in (PairKind.NN, PairKind.FAR):
            lo = normalized_discord_curve(p, [0.6, 0.8, 0.95], pair)
            hi = normalized_discord_curve(p, [1.4, 1.2, 1.05], pair)
            for a, b in zip(lo, hi):
                assert a.value == approx(b.value, abs=1e-12)

    def test_nn_curve_is_discord_of_nn_correlator(self):
        # the critical correlator -1/4 is the fully entangled reference point
        p = ScalingParams()
        assert discord_isotropic(p.gamma_c) == approx(1.0, abs=1e-12)
        for pt in normalized_discord_curve(p, [0.7, 1.3], PairKind.NN):
            assert pt.value == approx(
                discord_isotropic(gamma_nn(p, pt.t)), abs=1e-12
            )

    def test_kink_slopes_diverge(self):
        p = ScalingParams()
        steps = (1e-2, 1e-3, 1e-4, 1e-5)
        for pair, growth in ((PairKind.NN, 2.0), (PairKind.FAR, 10.0)):
            for side in (+1.0, -1.0):
                ts = [1.0 + side * h for h in steps]
                vals = normalized_discord_curve(p, ts, pair)
                slopes = [(1.0 - pt.value) / h for pt, h in zip(vals, steps)]
                assert all(b > a for a, b in zip(slopes, slopes[1:]))
                assert slopes[-1] > growth * slopes[0]

    def test_kt_curve_values(self):
        p = ScalingParams(form=ScalingForm.KOSTERLITZ_THOULESS)
        pts = normalized_discord_curve(p, [1.05, 1.2, 1.5], PairKind.FAR)
        assert pts[0].value == approx(0.9999704613508681, abs=1e-12)
        assert pts[1].value == approx(0.9673249309568761, abs=1e-12)
        assert pts[2].value == approx(0.6431349737551343, abs=1e-12)
        assert pts[0].value > pts[1].value > pts[2].value

    def test_kt_rejects_low_side(self):
        p = ScalingParams(form=ScalingForm.KOSTERLITZ_THOULESS)
        with pytest.raises(ScalingDomainError):
            normalized_discord_curve(p, [1.2, 0.9], PairKind.FAR)

    def test_rejects_unknown_pair(self):
        with pytest.raises(ValueError):
            normalized_discord_curve(ScalingParams(), [1.0], "near")

    def test_random_params_normalize_to_one(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            p = ScalingParams(
                alpha=float(rng.uniform(0.05, 0.95)),
                nu=float(rng.uniform(0.3, 1.5)),
                xi0=float(rng.uniform(1.0, 8.0)),
                r=int(rng.integers(5, 60)),
            )
            for pair in (PairKind.NN, PairKind.FAR):
                (pt,) = normalized_discord_curve(p, [1.0], pair)
                assert pt.value == 1.0


class TestCurveMatchesReference:
    @pytest.mark.parametrize("pair", [PairKind.NN, PairKind.FAR])
    def test_fine_grid(self, pair):
        p = ScalingParams()
        points = normalized_discord_curve(p, FINE_GRID, pair)
        assert len(points) == len(FINE_GRID)
        assert [pt.t for pt in points] == FINE_GRID
        want = reference_curve(p, FINE_GRID, pair)
        assert max(abs(pt.value - w) for pt, w in zip(points, want)) <= 1e-13
        assert points[10000].t == 1.0 and points[10000].value == 1.0

    def test_kosterlitz_thouless_side(self):
        p = ScalingParams(form=ScalingForm.KOSTERLITZ_THOULESS)
        ts = FINE_GRID[10001:]
        points = normalized_discord_curve(p, ts, PairKind.FAR)
        want = reference_curve(p, ts, PairKind.FAR)
        assert max(abs(pt.value - w) for pt, w in zip(points, want)) <= 1e-13

    def test_accepts_arrays_and_ranges(self):
        p = ScalingParams()
        want = [pt.value for pt in normalized_discord_curve(p, [0.0, 1.0, 2.0], PairKind.NN)]
        for ts in (np.array([0.0, 1.0, 2.0]), range(3)):
            points = normalized_discord_curve(p, ts, PairKind.NN)
            assert [pt.t for pt in points] == [0.0, 1.0, 2.0]
            assert [pt.value for pt in points] == want

    def test_points_unpack_as_pairs(self):
        (pt,) = normalized_discord_curve(ScalingParams(), [0.5], PairKind.NN)
        t, value = pt
        assert (t, value) == (pt.t, pt.value)
        assert value == approx(0.6536065250949649, abs=1e-12)

    @pytest.mark.parametrize("pair", [PairKind.NN, PairKind.FAR])
    def test_one_kernel_call_for_the_points_and_one_for_the_reference(self, monkeypatch, pair):
        calls = []
        real = correlators._symmetric_discord

        def counting(*args):
            calls.append(1)
            return real(*args)

        # the curve may reach the kernel through either module's binding
        monkeypatch.setattr(correlators, "_symmetric_discord", counting)
        monkeypatch.setattr(scaling, "_symmetric_discord", counting, raising=False)
        points = normalized_discord_curve(ScalingParams(), FINE_GRID, pair)
        assert len(points) == 20001
        assert len(calls) <= 2


KT = ScalingParams(form=ScalingForm.KOSTERLITZ_THOULESS)


class TestDomainMessages:
    """Domain errors name the first offending input, in the same words as before."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: correlation_length(KT, 1.0), "Kosterlitz-Thouless correlation length defined for t > 1, got 1.0"),
            (lambda: correlation_length(KT, 0.5), "Kosterlitz-Thouless correlation length defined for t > 1, got 0.5"),
            (lambda: gamma_nn(ScalingParams(), -0.1), "t -0.1 outside the model window [0, 2]"),
            (lambda: gamma_nn(ScalingParams(), 2.5), "t 2.5 outside the model window [0, 2]"),
            (
                lambda: normalized_discord_curve(KT, [1.2, 0.9], PairKind.FAR),
                "Kosterlitz-Thouless correlation length defined for t > 1, got 0.9",
            ),
            (
                lambda: normalized_discord_curve(KT, [1.5, 1.0, 0.2], PairKind.FAR),
                "Kosterlitz-Thouless correlation length defined for t > 1, got 1.0",
            ),
            (
                lambda: normalized_discord_curve(ScalingParams(), [0.5, 2.5, -1.0], PairKind.NN),
                "t 2.5 outside the model window [0, 2]",
            ),
        ],
    )
    def test_scaling_domain(self, call, message):
        with pytest.raises(ScalingDomainError) as info:
            call()
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "params, ts, pair, gamma",
        [
            # the reference correlator -1/r is already unphysical
            (ScalingParams(r=2), [0.5], PairKind.FAR, "gamma_d=-0.5, gamma_o=-1.0"),
            (ScalingParams(gamma_c=0.2), [0.5], PairKind.NN, "gamma_d=0.2, gamma_o=0.4"),
            # only the t = 2 point leaves the physical window
            (ScalingParams(gamma_0=0.2), [1.0, 0.5, 2.0, 0.0], PairKind.NN, "gamma_d=0.2, gamma_o=0.4"),
        ],
    )
    def test_correlator_domain(self, params, ts, pair, gamma):
        eigs = {
            "gamma_d=-0.5, gamma_o=-1.0": "[-0.25, -0.25, -0.25, 1.75]",
            "gamma_d=0.2, gamma_o=0.4": "[0.45, 0.45, 0.45, -0.35000000000000003]",
        }[gamma]
        with pytest.raises(CorrelatorDomainError) as info:
            normalized_discord_curve(params, ts, pair)
        assert str(info.value) == (
            f"eigenvalues {eigs} of the symmetric pair state are negative for {gamma}; "
            "|gamma_o| + gamma_d must stay within 1/4"
        )


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
        p = ScalingParams(r=r)
        offsets = (0.001, 0.002, 0.004, 0.006, 0.008)
        ts = [1.0 + s * d for d in offsets for s in (+1.0, -1.0)]
        g1 = 1.0 / r
        for pt in normalized_discord_curve(p, ts, PairKind.FAR):
            law = (gamma_far(p, pt.t) / g1) ** 2
            assert pt.value == approx(law, rel=0.01)

    def test_default_separation_absolute_envelope(self):
        p = ScalingParams()
        g1 = gamma_far(p, 1.0)
        worst = 0.0
        for pt in normalized_discord_curve(p, power_grid(), PairKind.FAR):
            law = (gamma_far(p, pt.t) / g1) ** 2
            worst = max(worst, abs(pt.value - law))
        # measured 0.0215 at the kink shoulders with the default separation
        assert worst < 0.025
        assert worst > 0.01
