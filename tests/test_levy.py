"""Laplace exponent, Lundberg root, NPC, and the nu-functional oracle."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

from qscale.config import _JUMP_KINDS, model_from_dict
from qscale.exceptions import ConfigError, DomainError, NumericalError
from qscale.levy import (
    CompoundPoissonExponential,
    CompoundPoissonGamma,
    GammaSubordinator,
    JumpMeasure,
    LevyModel,
    NoJumps,
    check_npc,
    convex_root,
    laplace_exponent,
    laplace_exponent_deriv,
    lundberg_exponent,
    quadratic_bracket,
)
from qscale.levy import _log1p
from qscale.oracles import _mp_jump_functionals, nu_functional_exact


def _tail(jumps, x):
    """nubar(x) = nu((x, inf)) in closed form."""
    x = np.asarray(x, dtype=float)
    if isinstance(jumps, CompoundPoissonExponential):
        return jumps.rate * np.exp(-jumps.mu * x)
    if isinstance(jumps, CompoundPoissonGamma):
        return jumps.rate * special.gammaincc(jumps.shape, x / jumps.scale)
    return jumps.shape * special.exp1(jumps.rate * x)  # GammaSubordinator


def _second_moment(jumps) -> float:
    """nu(z^2) in closed form."""
    if isinstance(jumps, CompoundPoissonGamma):
        return jumps.rate * jumps.shape * (jumps.shape + 1.0) * jumps.scale**2
    return jumps.shape / jumps.rate**2  # GammaSubordinator


def _truncated_moments(jumps, eps: float) -> tuple[float, float]:
    """(integral of z nu(dz), integral of z^2 nu(dz)) over (0, eps], in closed form."""
    if isinstance(jumps, CompoundPoissonExponential):
        mu = jumps.mu
        m1 = jumps.rate / mu * special.gammainc(2.0, mu * eps)
        m2 = 2.0 * jumps.rate / mu**2 * special.gammainc(3.0, mu * eps)
        return (m1, m2)
    a, b = jumps.shape, jumps.rate  # GammaSubordinator
    return (a / b * (-math.expm1(-b * eps)), a / b**2 * special.gammainc(2.0, b * eps))


class TestLaplaceExponent:
    def test_no_jumps_closed_form(self, brownian_model):
        # psi(2) = c*2 + D*4 = 2 + 4 with c = 1, D = 1
        m = LevyModel(x0=0, c=1.0, D=1.0, jumps=NoJumps(), q=0.0)
        assert laplace_exponent(m, 2.0) == pytest.approx(6.0, abs=0)

    def test_zero_at_origin(self, exp_jump_model, gamma_sub_model, cp_gamma_model):
        for m in (exp_jump_model, gamma_sub_model, cp_gamma_model):
            assert laplace_exponent(m, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_matches_quadrature_exponential(self):
        m = LevyModel(x0=0, c=1.5, D=0.0, jumps=CompoundPoissonExponential(1.0, 1.0), q=0.0)
        jump_part, _ = quad(lambda z: (np.exp(-z) - 1.0) * np.exp(-z), 0, np.inf)
        assert laplace_exponent(m, 1.0) == pytest.approx(1.5 + jump_part, abs=1e-10)

    @pytest.mark.parametrize(
        "jumps",
        [
            CompoundPoissonExponential(1.3, 0.7),
            CompoundPoissonGamma(0.8, 2.0, 0.5),
            GammaSubordinator(0.6, 1.2),
        ],
    )
    def test_closed_form_vs_quadrature(self, jumps):
        m = LevyModel(x0=0, c=3.0, D=0.2, jumps=jumps, q=0.0)
        for theta in (0.3, 1.0, 2.5):
            integral, _ = quad(
                lambda z: (np.exp(-theta * z) - 1.0) * float(jumps.density(z)),
                0,
                np.inf,
                limit=200,
            )
            expected = 3.0 * theta + 0.2 * theta**2 + integral
            assert laplace_exponent(m, theta) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize(
        "jumps", [CompoundPoissonGamma(0.8, 0.3, 1.7), GammaSubordinator(0.6, 1.2)]
    )
    @pytest.mark.parametrize("theta", [1e-12, 1e-8, 1e-6, 1.0])
    def test_exp_functional_full_relative_accuracy(self, jumps, theta):
        with mpmath.workdps(40):
            t = mpmath.mpf(theta)
            if isinstance(jumps, CompoundPoissonGamma):
                s = jumps.scale * t
                want = jumps.rate * ((1 + s) ** -mpmath.mpf(jumps.shape) - 1)
            else:
                want = -jumps.shape * mpmath.log1p(t / jumps.rate)
            want = float(want)
        eps = np.finfo(float).eps
        assert abs(jumps.exp_functional(theta) - want) <= 4 * eps * abs(want)

    def test_derivative_at_zero_is_npc_margin(self):
        m = LevyModel(x0=0, c=1.0, D=1.0, jumps=NoJumps(), q=0.0)
        assert laplace_exponent_deriv(m, 0.0) == pytest.approx(1.0, abs=0)
        m2 = LevyModel(x0=0, c=1.5, D=0.0, jumps=CompoundPoissonExponential(1.0, 1.0), q=0.0)
        assert laplace_exponent_deriv(m2, 0.0) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("theta", [0.1, 0.5, 1.0, 3.0])
    def test_derivative_matches_finite_difference(self, exp_jump_model, theta):
        h = 1e-6
        fd = (
            laplace_exponent(exp_jump_model, theta + h)
            - laplace_exponent(exp_jump_model, theta - h)
        ) / (2 * h)
        assert laplace_exponent_deriv(exp_jump_model, theta) == pytest.approx(fd, abs=1e-6)

    @given(
        t1=st.floats(0.0, 5.0),
        t2=st.floats(0.0, 5.0),
        lam=st.floats(0.2, 2.0),
        w=st.floats(0.01, 0.99),
    )
    @settings(max_examples=50, deadline=None)
    def test_convexity_chord(self, t1, t2, lam, w):
        m = LevyModel(x0=0, c=2.0, D=0.4, jumps=CompoundPoissonExponential(lam, 1.0), q=0.0)
        lo, hi = min(t1, t2), max(t1, t2)
        mid = w * lo + (1 - w) * hi
        chord = w * laplace_exponent(m, lo) + (1 - w) * laplace_exponent(m, hi)
        assert laplace_exponent(m, mid) <= chord + 1e-12


class TestLundbergExponent:
    def test_zero_at_q_zero(self, exp_jump_model):
        assert lundberg_exponent(exp_jump_model, 0.0) == 0.0

    def test_brownian_quadratic_root(self):
        c, D, q = 1.5, 0.5, 0.3
        m = LevyModel(x0=0, c=c, D=D, jumps=NoJumps(), q=q)
        expected = (-c + np.sqrt(c * c + 4 * D * q)) / (2 * D)
        assert lundberg_exponent(m, q) == pytest.approx(expected, rel=1e-12)

    def test_residual_below_tolerance(self, cramer_lundberg_model):
        root = lundberg_exponent(cramer_lundberg_model, 0.1)
        resid = abs(laplace_exponent(cramer_lundberg_model, root) - 0.1)
        assert resid <= 1e-12

    def test_monotone_in_q(self, exp_jump_model):
        qs = np.linspace(0.0, 5.0, 21)
        roots = [lundberg_exponent(exp_jump_model, float(q)) for q in qs]
        assert np.all(np.diff(roots) >= 0)

    def test_psi_at_root_equals_q_on_grid(self, gamma_sub_model):
        for q in np.linspace(0.25, 5.0, 8):
            root = lundberg_exponent(gamma_sub_model, float(q))
            assert laplace_exponent(gamma_sub_model, root) == pytest.approx(q, abs=1e-11)

    def test_npc_violation_raises(self):
        m = LevyModel(x0=0, c=1.0, D=0.1, jumps=CompoundPoissonExponential(2.0, 1.0), q=0.1)
        with pytest.raises(DomainError):
            lundberg_exponent(m, 0.1)

    def test_root_at_1e9(self):
        # psi(theta) = 1e-10 theta reaches q = 0.1 only at 1e9
        m = LevyModel(x0=0, c=1e-10, D=0.0, jumps=NoJumps(), q=0.1)
        assert lundberg_exponent(m, 0.1) == pytest.approx(1e9, rel=1e-14, abs=0)


class TestConvexRoot:
    """``convex_root``: Newton's method from the right end of a convex f with f(0) < 0."""

    @pytest.mark.parametrize(
        "f, df, hi, root",
        [
            (lambda x: math.expm1(x) - 1.0, math.exp, 5.0, math.log(2.0)),
            (lambda x: x * x - 1e-20, lambda x: 2.0 * x, 3.0, 1e-10),
            (lambda x: 1e-10 * x - 0.1, lambda x: 1e-10, 2e9, 1e9),
            (lambda x: x**8 + x - 2.0, lambda x: 8.0 * x**7 + 1.0, 40.0, 1.0),
        ],
        ids=["exp", "tiny-quadratic-root", "linear", "steep"],
    )
    def test_iterates_fall_onto_the_root(self, f, df, hi, root):
        seen = []

        def logged(x):
            seen.append(x)
            return f(x)

        got = convex_root(logged, df, hi)
        assert seen[0] == hi and all(b < a for a, b in zip(seen, seen[1:]))
        # every iterate but a last one that rounding puts at or below the root
        assert all(f(x) > 0.0 for x in seen[:-1])
        assert got == seen[-1]
        assert got == pytest.approx(root, rel=4 * np.finfo(float).eps, abs=0)

    @pytest.mark.parametrize("end_value", [0.0, -1.0])
    def test_nonpositive_end_raises(self, end_value):
        with pytest.raises(DomainError):
            convex_root(lambda x: end_value, lambda x: 1.0, 1.0)

    @pytest.mark.parametrize(
        "f, df",
        [
            (lambda x: math.nan, lambda x: 1.0),
            (lambda x: x - 0.5, lambda x: math.nan),
            (lambda x: math.nan if x < 1.0 else x * x - 0.25, lambda x: 2.0 * x),
        ],
        ids=["f-at-end", "slope", "f-at-iterate"],
    )
    def test_nan_raises(self, f, df):
        with pytest.raises(NumericalError, match="NaN"):
            convex_root(f, df, 2.0)

    def test_step_cap_raises(self):
        # x^1000 - 1 from 2: each step shrinks x by about 1/1000, so the
        # root at 1 is some 700 steps away
        with pytest.raises(NumericalError, match="no convergence"):
            convex_root(lambda x: x**1000 - 1.0, lambda x: 1000.0 * x**999, 2.0)


class TestQuadraticBracket:
    @pytest.mark.parametrize(
        "D, b, a", [(0.5, 1.5, 0.1), (0.0, 0.3, 2.6), (1.0, 0.0, 4.0), (2.0, -3.0, 0.5)],
    )
    def test_lower_bound_clears_a(self, D, b, a):
        hi = quadratic_bracket(D, b, a)
        r_star = hi / 2.0
        assert D * r_star**2 + b * r_star == pytest.approx(a, rel=1e-12)
        assert D * hi**2 + b * hi - a >= a

    def test_no_cancellation_for_negative_b(self):
        # r* = 3 + 1e-20 / 3 rounds to 3, where b + sqrt(b^2 + 4 D a) rounds to 0
        assert quadratic_bracket(1.0, -3.0, 1e-20) == 6.0

    @pytest.mark.parametrize("b", [0.0, -1.0])
    def test_infinite_without_positive_root(self, b):
        assert quadratic_bracket(0.0, b, 1.0) == math.inf


def _positive_root(a2: float, a1: float, a0: float) -> float:
    """Positive root of a2 t^2 + a1 t + a0 (a2 > 0 > a0), branch chosen so nothing cancels."""
    disc = np.sqrt(a1 * a1 - 4.0 * a2 * a0)
    if a1 > 0:
        return -2.0 * a0 / (a1 + disc)
    return (-a1 + disc) / (2.0 * a2)


class TestLundbergAccuracy:
    """Phi(q) against psi(theta) = q solved as a quadratic, to 1e-14 relative,
    and against a 50-digit root for every family."""

    QS = [1e-12, 1e-8, 1e-6, 1e-4, 0.1, 10.0]

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("c, D", [(1.5, 0.5), (0.2, 3.0)])
    def test_brownian_with_drift(self, c, D, q):
        # D t^2 + c t - q = 0
        m = LevyModel(x0=0, c=c, D=D, jumps=NoJumps(), q=q)
        want = _positive_root(D, c, -q)
        assert lundberg_exponent(m, q) == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("q", QS)
    def test_cramer_lundberg_exponential(self, cramer_lundberg_model, q):
        # c t - lam t / (mu + t) = q  <=>  c t^2 + (c mu - lam - q) t - q mu = 0
        c, jumps = cramer_lundberg_model.c, cramer_lundberg_model.jumps
        lam, mu = jumps.rate, jumps.mu
        want = _positive_root(c, c * mu - lam - q, -q * mu)
        assert lundberg_exponent(cramer_lundberg_model, q) == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("D", [0.0, 0.3, 1e-300])
    @pytest.mark.parametrize(
        "jumps",
        [
            NoJumps(),
            CompoundPoissonExponential(1.0, 1.0),
            CompoundPoissonGamma(1.0, 0.3, 1.0),
            GammaSubordinator(0.5, 1.0),
        ],
        ids=lambda j: type(j).__name__,
    )
    def test_matches_mpmath_root(self, jumps, D):
        # measured worst: 5.4e-16 (exponential jumps, D = 0.3, q = 1e-4)
        nu_e, _ = _mp_jump_functionals(jumps)
        for q in 10.0 ** np.arange(-12, 5):
            got = lundberg_exponent(LevyModel(x0=0, c=1.5, D=D, jumps=jumps, q=q), q)
            with mpmath.workdps(50):
                want = mpmath.findroot(
                    lambda t: 1.5 * t + mpmath.mpf(D) * t * t + nu_e(t) - q, mpmath.mpf(got)
                )
                assert float(abs(got - want) / want) <= 1e-15, q


class TestCheckNpc:
    def test_holds_with_margin(self):
        m = LevyModel(x0=0, c=1.5, D=0.0, jumps=CompoundPoissonExponential(1.0, 1.0), q=0.0)
        assert check_npc(m) == pytest.approx(0.5)

    def test_fails_with_negative_margin(self):
        m = LevyModel(x0=0, c=1.0, D=0.0, jumps=CompoundPoissonExponential(2.0, 1.0), q=0.0)
        assert check_npc(m) == pytest.approx(-1.0)

    def test_no_jumps_margin_is_c(self):
        m = LevyModel(x0=0, c=0.7, D=1.0, jumps=NoJumps(), q=0.0)
        assert check_npc(m) == pytest.approx(0.7)


class TestNuFunctionalExact:
    def test_mean_exponential(self):
        m = LevyModel(x0=0, c=9.0, D=0.0, jumps=CompoundPoissonExponential(1.0, 0.5), q=0.0)
        assert nu_functional_exact(m, lambda z: z) == pytest.approx(0.5, rel=1e-9)

    def test_total_mass(self):
        m = LevyModel(x0=0, c=9.0, D=0.0, jumps=CompoundPoissonGamma(1.7, 2.0, 0.3), q=0.0)
        assert nu_functional_exact(m, lambda z: np.ones_like(z)) == pytest.approx(1.7, rel=1e-9)

    def test_gamma_subordinator_exponential_functional(self):
        a, b = 1.0, 1.0
        m = LevyModel(x0=0, c=9.0, D=0.0, jumps=GammaSubordinator(a, b), q=0.0)
        got = nu_functional_exact(m, lambda z: np.expm1(-z))
        assert got == pytest.approx(-a * np.log(1 + 1 / b), rel=1e-9)

    def test_vector_valued(self):
        m = LevyModel(x0=0, c=9.0, D=0.0, jumps=CompoundPoissonExponential(1.0, 1.0), q=0.0)
        got = nu_functional_exact(m, lambda z: np.vstack([z, z * z]))
        assert got == pytest.approx([1.0, 2.0], rel=1e-8)

    def test_closed_form_moments_match(self, gamma_sub_model, cp_gamma_model):
        for m in (gamma_sub_model, cp_gamma_model):
            assert nu_functional_exact(m, lambda z: z) == pytest.approx(
                m.jumps.mean(), rel=1e-8
            )
            assert nu_functional_exact(m, lambda z: z * z) == pytest.approx(
                _second_moment(m.jumps), rel=1e-8
            )

    def test_exp_moment_matches(self, exp_jump_model):
        got = nu_functional_exact(exp_jump_model, lambda z: z * np.exp(-0.7 * z))
        assert got == pytest.approx(exp_jump_model.jumps.exp_moment(0.7), rel=1e-9)


class TestJumpMeasureInvariants:
    INTERFACE = {"density", "mean", "exp_functional", "exp_moment", "draw_jumps"}

    def test_interface_is_four_functionals_and_a_sampler(self):
        assert {name for name in vars(JumpMeasure) if not name.startswith("_")} == self.INTERFACE

    @pytest.mark.parametrize("cls", list(_JUMP_KINDS.values()), ids=list(_JUMP_KINDS))
    def test_family_implements_the_interface(self, cls):
        """Every family, the zero measure included, defines each method
        itself rather than inheriting the base class's stub."""
        inherited = sorted(self.INTERFACE - set(vars(cls)))
        assert not inherited, f"{cls.__name__} inherits {inherited}"

    @pytest.mark.parametrize(
        "jumps",
        [
            CompoundPoissonExponential(1.0, 1.0),
            CompoundPoissonGamma(0.9, 1.5, 0.8),
            GammaSubordinator(0.7, 1.1),
        ],
    )
    def test_tail_nonincreasing_nonnegative(self, jumps):
        xs = np.linspace(0.01, 20, 200)
        tail = _tail(jumps, xs)
        assert np.all(tail >= 0)
        assert np.all(np.diff(tail) <= 1e-14)

    @pytest.mark.parametrize(
        "jumps",
        [CompoundPoissonExponential(1.0, 1.0), GammaSubordinator(0.7, 1.1)],
    )
    def test_small_jump_mass_finite(self, jumps):
        m1, m2 = _truncated_moments(jumps, 1.0)
        assert 0 < m1 < np.inf and 0 < m2 < np.inf

    def test_truncated_moments_ramp(self):
        jumps = CompoundPoissonExponential(1.3, 0.5)
        m1, _ = _truncated_moments(jumps, 200.0)
        assert m1 == pytest.approx(jumps.mean(), rel=1e-10)
        got1, got2 = _truncated_moments(jumps, 0.4)
        want1, _ = quad(lambda z: z * float(jumps.density(z)), 0, 0.4)
        want2, _ = quad(lambda z: z * z * float(jumps.density(z)), 0, 0.4)
        assert got1 == pytest.approx(want1, rel=1e-9)
        assert got2 == pytest.approx(want2, rel=1e-9)


@pytest.mark.parametrize("shape", [0.3, 1.0, 2.0, 7.5, 40.0])
def test_gamma_density_normalizer_matches_special_gamma(shape):
    # the density divides by math.gamma, which agrees with scipy's to rounding
    jumps = CompoundPoissonGamma(rate=1.3, shape=shape, scale=0.4)
    z = np.linspace(0.01, 30.0, 61)
    want = 1.3 * z ** (shape - 1.0) * np.exp(-z / 0.4) / (special.gamma(shape) * 0.4**shape)
    np.testing.assert_allclose(jumps.density(z), want, rtol=1e-15, atol=0)


class TestComplexLog1p:
    """log1p for the complex nodes of the coefficient transform and of Talbot's contour."""

    ANGLES = np.random.default_rng(3).uniform(-np.pi, np.pi, 364)
    Z = np.concatenate([np.logspace(-300, 3, 304), np.logspace(-15, -1, 60)]) * np.exp(1j * ANGLES)
    Z[304:] -= 1.0  # and near the branch point z = -1

    def test_matches_mpmath_from_1e_300_to_1e3(self):
        # numpy's complex log1p, the plain log(1 + z), is off by up to 100%
        # here, and 2 atanh(z / (2 + z)) alone by 7e-5 near z = -1
        with mpmath.workdps(40):
            want = np.array([complex(mpmath.log1p(mpmath.mpc(z.real, z.imag))) for z in self.Z])
        err = np.abs(_log1p(self.Z) - want) / np.abs(want)
        assert np.max(err) <= 2 * np.finfo(float).eps

    def test_real_input_keeps_numpy_log1p(self):
        x = np.concatenate([-np.geomspace(0.999, 1e-300, 50), [0.0], np.geomspace(1e-300, 1e300, 50)])
        assert np.array_equal(_log1p(x), np.log1p(x))
        assert _log1p(0.25) == np.log1p(0.25)

    @pytest.mark.parametrize(
        "jumps, exact",
        [
            (CompoundPoissonGamma(0.9, 1.5, 0.8), lambda t: 0.9 * mpmath.expm1(-1.5 * mpmath.log1p(0.8 * t))),
            (GammaSubordinator(0.7, 1.1), lambda t: -0.7 * mpmath.log1p(t / 1.1)),
        ],
    )
    def test_exp_functional_near_zero(self, jumps, exact):
        # at 1e-12 + 1e-13j the plain log(1 + z) was off by 8.8e-5 relative
        for theta in (1e-12 + 1e-13j, -3e-9 + 2e-8j, 0.004 - 0.003j):
            with mpmath.workdps(40):
                want = complex(exact(mpmath.mpc(theta.real, theta.imag)))
            assert abs(jumps.exp_functional(theta) - want) <= 1e-15 * abs(want)


class TestThetaParams:
    def test_negative_inputs_rejected(self):
        from qscale.levy import ThetaParams

        with pytest.raises(DomainError):
            ThetaParams(D=-0.1, gamma=0.0)
        with pytest.raises(DomainError):
            ThetaParams(D=0.5, gamma=-0.1)


class TestModelSerialization:
    def test_round_trip_sigma(self):
        d = {
            "x0": 1.0, "c": 1.5, "sigma": 1.0, "q": 0.1,
            "jumps": {"kind": "compound-poisson-exponential", "rate": 1.0, "jump_mean": 1.0},
        }
        m = model_from_dict(d)
        assert m.D == pytest.approx(0.5)
        assert isinstance(m.jumps, CompoundPoissonExponential)

    def test_both_sigma_and_D_rejected(self):
        with pytest.raises(ConfigError):
            model_from_dict({"x0": 0, "c": 1, "sigma": 1, "D": 0.5, "jumps": {"kind": "none"}})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            model_from_dict({"x0": 0, "c": 1, "D": 0.5, "jumps": {"kind": "lognormal"}})

    def test_missing_params_rejected(self):
        with pytest.raises(ConfigError):
            model_from_dict(
                {"x0": 0, "c": 1, "D": 0.5, "jumps": {"kind": "gamma-subordinator", "shape": 1}}
            )
