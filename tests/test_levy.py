"""Laplace exponent, Lundberg root, NPC, and the nu-functional oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qscale.config import model_from_dict
from qscale.exceptions import ConfigError, DomainError
from qscale.levy import (
    CompoundPoissonExponential,
    CompoundPoissonGamma,
    GammaSubordinator,
    LevyModel,
    NoJumps,
    check_npc,
    laplace_exponent,
    laplace_exponent_deriv,
    lundberg_exponent,
)
from qscale.oracles import nu_functional_exact


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


def _positive_root(a2: float, a1: float, a0: float) -> float:
    """Positive root of a2 t^2 + a1 t + a0 (a2 > 0 > a0), branch chosen so nothing cancels."""
    disc = np.sqrt(a1 * a1 - 4.0 * a2 * a0)
    if a1 > 0:
        return -2.0 * a0 / (a1 + disc)
    return (-a1 + disc) / (2.0 * a2)


class TestLundbergAccuracy:
    """Phi(q) against psi(theta) = q solved as a quadratic, to 1e-14 relative."""

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


class TestCheckNpc:
    def test_holds_with_margin(self):
        m = LevyModel(x0=0, c=1.5, D=0.0, jumps=CompoundPoissonExponential(1.0, 1.0), q=0.0)
        res = check_npc(m)
        assert res.holds and res.margin == pytest.approx(0.5)

    def test_fails_with_negative_margin(self):
        m = LevyModel(x0=0, c=1.0, D=0.0, jumps=CompoundPoissonExponential(2.0, 1.0), q=0.0)
        res = check_npc(m)
        assert not res.holds and res.margin == pytest.approx(-1.0)

    def test_no_jumps_margin_is_c(self):
        m = LevyModel(x0=0, c=0.7, D=1.0, jumps=NoJumps(), q=0.0)
        res = check_npc(m)
        assert res.holds and res.margin == pytest.approx(0.7)


class TestNuFunctionalExact:
    def test_mean_exponential(self):
        m = LevyModel(x0=0, c=9.0, D=0.0, jumps=CompoundPoissonExponential(1.0, 0.5), q=0.0)
        assert nu_functional_exact(m, lambda z: z) == pytest.approx(0.5, rel=1e-9)

    def test_total_rate(self):
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
                m.jumps.second_moment(), rel=1e-8
            )

    def test_exp_moment_matches(self, exp_jump_model):
        got = nu_functional_exact(exp_jump_model, lambda z: z * np.exp(-0.7 * z))
        assert got == pytest.approx(exp_jump_model.jumps.exp_moment(0.7), rel=1e-9)


class TestJumpMeasureInvariants:
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
        tail = jumps.tail(xs)
        assert np.all(tail >= 0)
        assert np.all(np.diff(tail) <= 1e-14)

    @pytest.mark.parametrize(
        "jumps",
        [CompoundPoissonExponential(1.0, 1.0), GammaSubordinator(0.7, 1.1)],
    )
    def test_small_jump_mass_finite(self, jumps):
        m1, m2 = jumps.truncated_moments(1.0)
        assert 0 < m1 < np.inf and 0 < m2 < np.inf

    def test_truncated_moments_ramp(self):
        jumps = CompoundPoissonExponential(1.3, 0.5)
        m1, _ = jumps.truncated_moments(200.0)
        assert m1 == pytest.approx(jumps.mean(), rel=1e-10)
        got1, got2 = jumps.truncated_moments(0.4)
        want1, _ = quad(lambda z: z * float(jumps.density(z)), 0, 0.4)
        want2, _ = quad(lambda z: z * z * float(jumps.density(z)), 0, 0.4)
        assert got1 == pytest.approx(want1, rel=1e-9)
        assert got2 == pytest.approx(want2, rel=1e-9)


class TestThetaParams:
    @given(D=st.floats(0.0, 5.0), gamma=st.floats(0.0, 5.0), c=st.floats(0.01, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_beta_dominates_gamma(self, D, gamma, c):
        from qscale.levy import ThetaParams

        th = ThetaParams(D=D, gamma=gamma)
        beta = th.beta(c)
        assert beta >= gamma
        if D > 0:
            assert beta > 0

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
