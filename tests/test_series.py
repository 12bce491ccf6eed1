"""Coefficient functionals, triangular system, and the W_K / Z_K evaluators."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from qscale import series as series_mod
from qscale.exceptions import DomainError, IllConditionedError, NumericalError
from qscale.laguerre import LaguerreParams, laguerre_fn_all, psi_integral_all
from qscale.levy import (
    CompoundPoissonExponential,
    CompoundPoissonGamma,
    GammaSubordinator,
    LevyModel,
    NoJumps,
    ThetaParams,
    lundberg_exponent,
)
from qscale.oracles import (
    coeffs_reference,
    compound_geometric_grid,
    ftilde_q,
    h_functionals_per_jump,
    laplace_invert_scale,
    residue_scale,
)
from qscale.series import (
    _exp_atoms,
    _expm1_ratio,
    _expm1_ratio_db,
    Kernel,
    build_Af,
    coeffs_true,
    eval_P,
    eval_Q_all,
    gamma_window,
    kernels,
    p_value,
    scale_approx,
    solve_aG,
)


class TestFtildeQ:
    def test_zero_for_no_jumps(self, brownian_model):
        th = brownian_model.theta0()
        xs = np.linspace(0, 5, 11)
        assert np.all(ftilde_q(brownian_model, th, xs) == 0.0)

    def test_uniform_bound(self, exp_jump_model):
        th = exp_jump_model.theta0()
        xs = np.linspace(0, 20, 50)
        vals = ftilde_q(exp_jump_model, th, xs)
        bound = exp_jump_model.jumps.mean() / exp_jump_model.D
        assert np.all(vals >= 0) and np.all(vals <= bound + 1e-12)

    def test_matches_nested_quadrature(self, exp_jump_model):
        th = exp_jump_model.theta0()
        beta = exp_jump_model.c / th.D + th.gamma
        x = 1.0

        def inner(y):
            val, _ = quad(
                lambda z: np.exp(-beta * (x - y)) * np.exp(-th.gamma * (z - y)) * np.exp(-z),
                y, np.inf, limit=200,
            )
            return val

        want, _ = quad(inner, 0, x, limit=200)
        want /= exp_jump_model.D
        assert ftilde_q(exp_jump_model, th, x) == pytest.approx(want, abs=1e-8)

    def test_d_zero_branch(self, cramer_lundberg_model):
        th = cramer_lundberg_model.theta0()
        # c^{-1} int_x^inf e^{-gamma(z-x)} e^{-z} dz for Exp(1) jumps at rate 1
        x = 0.7
        want, _ = quad(
            lambda z: np.exp(-th.gamma * (z - x)) * np.exp(-z), x, np.inf, limit=200
        )
        want /= cramer_lundberg_model.c
        assert ftilde_q(cramer_lundberg_model, th, x) == pytest.approx(want, rel=1e-9)


class TestPValue:
    def test_zero_for_no_jumps(self, brownian_model):
        assert p_value(brownian_model, brownian_model.theta0()) == 0.0

    def test_in_unit_interval(self, exp_jump_model, cramer_lundberg_model, gamma_sub_model,
                              cp_gamma_model):
        for m in (exp_jump_model, cramer_lundberg_model, gamma_sub_model, cp_gamma_model):
            p = p_value(m, m.theta0())
            assert 0.0 < p < 1.0

    def test_q_zero_closed_form(self):
        # q = 0, D = 0: H_p(z) = z/c so p = lambda / (c mu) = 2/3
        m = LevyModel(x0=0, c=1.5, D=0.0, jumps=CompoundPoissonExponential(1.0, 1.0), q=0.0)
        assert p_value(m, m.theta0()) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_equals_mass_of_ftilde(self, exp_jump_model):
        th = exp_jump_model.theta0()
        mass, _ = quad(lambda x: ftilde_q(exp_jump_model, th, x), 0, np.inf, limit=200)
        assert p_value(exp_jump_model, th) == pytest.approx(mass, rel=1e-8)

    def test_npc_failure_raises(self):
        m = LevyModel(x0=0, c=0.5, D=0.0, jumps=CompoundPoissonExponential(1.0, 1.0), q=0.0)
        with pytest.raises(DomainError):
            p_value(m, ThetaParams(D=0.0, gamma=0.0))


class TestHFunctionals:
    def test_hp_closed_form(self, exp_jump_model, params20):
        th = exp_jump_model.theta0()
        beta = exp_jump_model.c / th.D + th.gamma
        z = np.array([0.5, 2.0, 7.0])
        H_p, _, _ = h_functionals_per_jump(exp_jump_model.c, th.D, th.gamma, params20, z)[0]
        want = (1 - np.exp(-th.gamma * z)) / (beta * exp_jump_model.D * th.gamma)
        assert H_p == pytest.approx(want, rel=1e-12)

    def test_all_zero_at_origin(self, exp_jump_model, params20):
        th = exp_jump_model.theta0()
        H_p, H_f, H_F = h_functionals_per_jump(
            exp_jump_model.c, th.D, th.gamma, params20, np.array([0.0])
        )[0]
        assert H_p == pytest.approx([0.0], abs=1e-14)
        assert np.max(np.abs(H_f)) < 1e-13 and np.max(np.abs(H_F)) < 1e-13

    def test_hf_bounded_by_hp(self, exp_jump_model, params20):
        th = exp_jump_model.theta0()
        rng = np.random.default_rng(3)
        z = rng.uniform(0.01, 10.0, size=40)
        H_p, H_f, _ = h_functionals_per_jump(exp_jump_model.c, th.D, th.gamma, params20, z)[0]
        bound = np.sqrt(2 * params20.alpha) * np.abs(H_p)
        assert np.all(np.abs(H_f) <= bound[None, :] * (1 + 1e-10))

    @staticmethod
    def _assert_matches_transform(model, empirical_coeffs, z):
        # the kernels at a jump z are T times the coefficients of delta_z / T
        th, p, T = model.theta0(), LaguerreParams(1.0, 12), 1000.0
        want = h_functionals_per_jump(model.c, th.D, th.gamma, p, np.array([z]))[0]
        got = empirical_coeffs(model.c, th, p, [z], T)
        for g, w in zip(got, want):
            assert np.max(np.abs(T * np.ravel(g) - np.ravel(w))) <= 1e-12 * np.max(np.abs(w))

    @pytest.mark.parametrize("z", [0.5, 2.0, 4.0])
    def test_matches_empirical_transform_diffusive(self, exp_jump_model, empirical_coeffs, z):
        self._assert_matches_transform(exp_jump_model, empirical_coeffs, z)

    @pytest.mark.parametrize("z", [0.7, 3.0])
    def test_matches_empirical_transform_bv(self, cramer_lundberg_model, empirical_coeffs, z):
        self._assert_matches_transform(cramer_lundberg_model, empirical_coeffs, z)

    def test_continuous_across_gamma_zero(self):
        # gamma = 0 runs the forward Psi sweep, gamma = 1e-16 the backward one;
        # a seed of its own per z left 9.4e-14 of sup between them here
        p, z = LaguerreParams(0.25, 64), np.geomspace(0.1, 120.0, 400)
        at_zero = h_functionals_per_jump(1.5, 0.3, 0.0, p, z)[0][2]
        above = h_functionals_per_jump(1.5, 0.3, 1e-16, p, z)[0][2]
        assert np.max(np.abs(above - at_zero)) <= 2e-14 * np.max(np.abs(at_zero))


def _fd_gamma(c, D, gamma, params, z, h=1e-6):
    up = h_functionals_per_jump(c, D, gamma + h, params, z)[0]
    dn = h_functionals_per_jump(c, D, gamma - h, params, z)[0]
    return [(a - b) / (2 * h) for a, b in zip(up, dn)]


class TestHFunctionalsGammaDerivative:
    @pytest.mark.parametrize("D", [0.5, 1e-310, 0.0])
    @pytest.mark.parametrize("gamma", [0.0625, 0.0, 1e-12])
    def test_matches_central_fd(self, params20, D, gamma):
        z = np.linspace(0.05, 8.0, 40)
        vals, d_gamma = h_functionals_per_jump(1.5, D, gamma, params20, z)
        for v, d, fd in zip(vals, d_gamma, _fd_gamma(1.5, D, gamma, params20, z)):
            scale = max(np.max(np.abs(v)), np.max(np.abs(d)))
            assert np.max(np.abs(d - fd)) <= 1e-7 * scale

    @pytest.mark.parametrize("D,gamma", [(0.5, 0.0625), (0.0, 0.0711)])
    def test_matches_fd_of_empirical_transform(self, empirical_coeffs, D, gamma):
        # every order k: |d/dgamma H - FD| within 1e-7 of max_H |d/dgamma H_k|
        z, h, T = 2.0, 1e-4, 1000.0
        p = LaguerreParams(1.0, 12)
        _, d_gamma = h_functionals_per_jump(1.5, D, gamma, p, np.array([z]))
        up = empirical_coeffs(1.5, ThetaParams(D, gamma + h), p, [z], T)
        dn = empirical_coeffs(1.5, ThetaParams(D, gamma - h), p, [z], T)
        got = np.broadcast_arrays(*(np.ravel(d) for d in d_gamma))
        fd = np.broadcast_arrays(*(T * np.ravel(a - b) / (2 * h) for a, b in zip(up, dn)))
        scale = np.max(np.abs(got), axis=0)
        assert np.all(np.max(np.abs(np.subtract(got, fd)), axis=0) <= 1e-7 * scale)


class TestHFunctionalsSmallD:
    """The D-scaled kernels are continuous as D -> 0+, subnormal D included."""

    @pytest.mark.parametrize("D", [1e-100, 1e-300, 1e-310, 5e-324])
    @pytest.mark.parametrize("gamma", [0.0, 0.06])
    def test_tends_to_bounded_variation_kernels(self, params20, D, gamma):
        z = np.linspace(0.0, 8.0, 41)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = h_functionals_per_jump(1.5, D, gamma, params20, z)
            want = h_functionals_per_jump(1.5, 0.0, gamma, params20, z)
        for g, w in zip(got[0] + got[1], want[0] + want[1]):
            assert np.all(np.isfinite(g))
            assert np.max(np.abs(g - w)) <= 1e-15 * np.max(np.abs(w))


def _expm1_ratio_db_reference(b: float, x: float) -> float:
    """x^2 sum_m (m+1)/(m+2)! (bx)^m in exact rational arithmetic, to 1e-40."""
    u = Fraction(b) * Fraction(x)
    total, power, fact, m = Fraction(0), Fraction(1), 2, 0
    while True:
        term = (m + 1) * power / fact
        total += term
        if m > 10 and abs(term) < Fraction(1, 10**40):
            return float(Fraction(x) ** 2 * total)
        m += 1
        power *= u
        fact *= m + 2


class TestExpm1RatioDb:
    """d/db of (e^{bx} - 1)/b: the starred b-derivative and the gamma-window derivative."""

    XS = np.linspace(0.0, 10.0, 41)

    @pytest.mark.parametrize("b", [2e-10, -2e-10, 1e-8, -1e-8, 1e-3, -1e-3, 0.5, -0.5])
    def test_matches_taylor_reference(self, b):
        got = _expm1_ratio_db(b, self.XS)
        want = np.array([_expm1_ratio_db_reference(b, x) for x in self.XS])
        assert got[0] == want[0] == 0.0
        assert np.max(np.abs(got[1:] - want[1:]) / np.abs(want[1:])) <= 1e-14

    def test_limit_at_zero(self):
        assert np.array_equal(_expm1_ratio_db(0.0, self.XS), 0.5 * self.XS**2)

    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0])
    def test_continuous_across_series_switch(self, x):
        # |bx| = 0.1 is where the Taylor branch hands over to the closed form
        for b in (0.1 / x, -0.1 / x):
            below, above = np.nextafter(b, 0.0), b
            lo, hi = _expm1_ratio_db(below, np.array([x])), _expm1_ratio_db(above, np.array([x]))
            assert hi[0] == pytest.approx(lo[0], rel=1e-14)

    @pytest.mark.parametrize("b", [-1e160, -1e300])
    def test_huge_rate_does_not_overflow(self, b):
        # g(u) = 1/u^2 + O(e^u / u) as u -> -inf: x^2 g(bx) -> 1/b^2, here below
        # the smallest double; u^2 itself overflows
        with np.errstate(all="raise"):
            got = _expm1_ratio_db(b, self.XS)
        assert np.all(got == 0.0)

    @pytest.mark.parametrize("gamma", [2e-10, 1e-8, 1e-3, 0.5, 0.0])
    def test_gamma_window_derivative(self, gamma):
        z = np.array([0.5, 1.0, 3.0])
        got = gamma_window(gamma, z)[1]
        want = -np.array([_expm1_ratio_db_reference(-gamma, zz) for zz in z])
        assert got == pytest.approx(want, rel=1e-14, abs=0)
        # and it is the derivative of the window itself
        if gamma >= 1e-3:
            h = 1e-5
            fd = (_expm1_ratio(-(gamma + h), z) - _expm1_ratio(-(gamma - h), z)) / (2 * h)
            assert got == pytest.approx(fd, rel=1e-7)

    @pytest.mark.parametrize("b", [2e-10, -1e-8, 0.3])
    def test_starred_atom_derivative(self, b):
        x = np.linspace(0.0, 10.0, 11)
        _, d_atoms = _exp_atoms(x, b)
        assert np.array_equal(d_atoms[1], _expm1_ratio_db(b, x))


def _approx_kernels(approx, x, U, g):
    """``kernels`` at the coefficients of ``approx`` with weights U and g derivative columns."""
    cs = approx.coeffs
    return kernels(cs.params, x, cs.p, cs.theta.gamma, cs.theta.D, approx.c, U, g)


class TestScaleApproxSmallD:
    """W_K tends to its D = 0 form as D -> 0+ (x > 0): the atom at b = -beta,
    beta = c/D + gamma, drops out, and where c/D overflows it is not formed."""

    EXP = dict(c=1.5, jumps=CompoundPoissonExponential(1.0, 1.0), q=0.1)
    GAMMA = dict(c=2.0, jumps=CompoundPoissonGamma(rate=1.0, shape=2.0, scale=0.4), q=0.05)
    GSUB = dict(c=1.5, jumps=GammaSubordinator(shape=0.5, rate=1.0), q=0.2)

    @staticmethod
    def _approx(D, c, jumps, q):
        model = LevyModel(x0=0.0, c=c, D=D, jumps=jumps, q=q)
        return scale_approx(model, LaguerreParams(1.0, 20))

    @classmethod
    def _w(cls, D, c, jumps, q, x):
        return cls._approx(D, c, jumps, q).w(x)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("D", [1e-12, 1e-20, 1e-100, 1e-300])
    def test_exponential_jumps(self, D):
        # the window of the Psi seed at b = -beta was once below the spacing
        # of doubles at x, which gave W_K(1) = -7.32 from D = 1e-20 down
        want = self._w(0.0, **self.EXP, x=1.0)
        assert want == pytest.approx(1.1210597, abs=1e-7)
        assert self._w(D, **self.EXP, x=1.0) == pytest.approx(want, abs=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("D", [1e-310, 5e-324])
    @pytest.mark.parametrize("family", ["EXP", "GAMMA"])
    def test_subnormal_D(self, D, family):
        # c/D overflows: the closed exponential coefficients and the kernels
        # once gave NaN here
        kw = getattr(self, family)
        xs = np.linspace(0.5, 10.0, 20)
        want = self._w(0.0, **kw, x=xs)
        assert np.max(np.abs(self._w(D, **kw, x=xs) - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.all(np.isfinite(want))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("D", [5e-324, 1e-310, 9e-309, 1.2e-308, 1e-300, 1e-12])
    @pytest.mark.parametrize("family", ["EXP", "GAMMA", "GSUB"])
    def test_continuous_at_D_zero(self, D, family):
        # the benchmark's three jump families; c/D overflows below D = c / 1.8e308
        kw = getattr(self, family)
        x = np.linspace(0.0, 10.0, 41)
        approx, approx0 = self._approx(D, **kw), self._approx(0.0, **kw)
        k, k0 = (_approx_kernels(a, x, a.coeffs.a_G[:, None], 1) for a in (approx, approx0))
        assert all(np.all(np.isfinite(part)) for kern in k for part in kern)

        def at_positive_x(a, kern):
            # coefficients, W_K and every kernel's value and (p, gamma) gradient on x > 0
            cs = a.coeffs
            return [cs.a_f, cs.a_F, cs.a_G, a.w_from(kern)[1:]] + [
                part[..., 1:] for kk in kern for part in kk
            ]

        for got, want in zip(at_positive_x(approx, k), at_positive_x(approx0, k0)):
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
        # W(0) = 0 while the atom at -beta is formed, else the D = 0 value, which
        # is 1/c up to the truncation at K = 20 (0.75% for the gamma subordinator)
        w0, w0_bv = approx.w_from(k)[0], approx0.w_from(k0)[0]
        assert w0_bv == pytest.approx(1.0 / kw["c"], rel=1e-2)
        if math.isfinite(kw["c"] / D):
            assert w0 == 0.0
        else:
            assert w0 == pytest.approx(w0_bv, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("D", [1.2e-308, 9e-309])
    def test_exponential_jumps_where_c_over_D_is_near_overflow(self, D):
        # c/D is finite, but lam mu / (D (gamma + mu)) alone is not when lam > c,
        # and beta x overflows from x = 1.5 on
        kw = dict(c=1.5, jumps=CompoundPoissonExponential(3.0, 1.0 / 3.0), q=0.1)
        xs = np.linspace(0.5, 10.0, 20)
        want = self._w(0.0, **kw, x=xs)
        approx = self._approx(D, **kw)
        k = _approx_kernels(approx, xs, approx.coeffs.a_G[:, None], 1)
        assert np.max(np.abs(approx.w_from(k) - want)) <= 1e-12 * np.max(np.abs(want))
        assert all(np.all(np.isfinite(part)) for kern in k for part in kern)


def _exponential_closed_coeffs(model, params):
    """a^f, a^F of the two-exponential p f_q = C (e^{-mu x} - e^{-beta x}) for Exp(mu) jumps.

    C = lam mu / ((gamma + mu) D (beta - mu)); beta enters as beta D = c + gamma D,
    so D = 0 is covered.  The generic beta != mu form, in 40-digit arithmetic,
    which survives its cancellation near beta = mu.
    """
    with mpmath.workdps(40):
        lam, mu = mpmath.mpf(model.jumps.rate), mpmath.mpf(model.jumps.mu)
        c, D, gamma = (mpmath.mpf(v) for v in (model.c, model.D, model.theta0().gamma))
        alpha = mpmath.mpf(params.alpha)
        bD, sq2a = c + gamma * D, mpmath.sqrt(2 * alpha)
        C = lam * mu / ((gamma + mu) * (c + D * (gamma - mu)))
        a_f, a_F = [], []
        for k in range(params.K + 1):
            L_mu = sq2a / (mu + alpha) * ((mu - alpha) / (mu + alpha)) ** k
            L_b = sq2a * D / (bD + alpha * D) * ((bD - alpha * D) / (bD + alpha * D)) ** k
            a_f.append(float(C * (L_mu - L_b)))
            a_F.append(float(C / mu * L_mu - C * D / bD * L_b))
    return np.array(a_f), np.array(a_F)


def _exponential_limit_coeffs(model, params):
    """a^f, a^F at beta = mu, where p f_q = lam mu / (D (gamma + mu)) x e^{-mu x}."""
    lam, mu, gamma = model.jumps.rate, model.jumps.mu, model.theta0().gamma
    front = lam * mu / (model.D * (gamma + mu))
    s, a = mu + params.alpha, params.alpha
    u, k = (s - 2.0 * a) / s, np.arange(params.K + 1)
    L_mu = params.sq2a / s * u**k
    # the transform of x e^{-mu x} is -d/dmu of that of e^{-mu x}
    L_x = params.sq2a * (u**k / s**2 - 2.0 * a * k * u ** np.maximum(k - 1, 0) / s**3)
    return front * L_x, front * (L_x / mu + L_mu / mu**2)


class TestCoeffsTrue:
    def test_no_jumps_all_zero(self, brownian_model, params20):
        cs = coeffs_true(brownian_model, params20)
        assert cs.p == 0.0
        assert np.all(cs.a_f == 0) and np.all(cs.a_F == 0) and np.all(cs.a_G == 0)

    def test_closed_matches_quadrature(self):
        # the reference's trapezoidal rule on |w| = 1/2 against the exact
        # exponential form: each rounded once to doubles from 35 digits or
        # more, they agree to the last bit of sup (measured: 8.5e-36 of sup)
        for D, alpha, K in ((0.5, 1.0, 20), (0.5, 0.25, 64), (0.0, 3.0, 64)):
            model = LevyModel(0.0, 1.5, D, CompoundPoissonExponential(1.0, 1.0), q=0.1)
            params = LaguerreParams(alpha, K)
            a_f, a_F = _exponential_closed_coeffs(model, params)
            r_f, r_F = coeffs_reference(model, params)
            sup = max(np.max(np.abs(a_f)), np.max(np.abs(a_F)))
            assert np.max(np.abs(r_f - a_f)) <= 2.3e-16 * sup
            assert np.max(np.abs(r_F - a_F)) <= 2.3e-16 * sup

    @pytest.mark.parametrize("D", [0.4, 0.0, 1e-310, 1.2e-308])
    @pytest.mark.parametrize("rate,mean", [(0.2, 5.0), (1.0, 1.0), (3.0, 1.0 / 3.0)])
    def test_matches_exponential_closed_form(self, rate, mean, D, monkeypatch):
        # the N/2-rule check then also holds the error estimate to 1e-13 of sup
        monkeypatch.setattr(series_mod, "_WEEKS_RTOL", 1e-13)
        model = LevyModel(0.0, 1.5, D, CompoundPoissonExponential(rate, mean), q=0.1)
        gamma = model.theta0().gamma
        # and at gamma one ulp either side of Phi(q), so the error does not
        # hang on the root's last bit; both sides then describe q = psi(gamma)
        for shifted in (gamma, np.nextafter(gamma, 0.0), np.nextafter(gamma, 1.0)):
            theta = ThetaParams(D, float(shifted))
            monkeypatch.setattr(LevyModel, "theta0", lambda self: theta)
            for alpha in (0.25, 1.0, 3.0):
                for K in (0, 1, 5, 20, 64, 100):
                    params = LaguerreParams(alpha, K)
                    cs = coeffs_true(model, params)
                    a_f, a_F = _exponential_closed_coeffs(model, params)
                    sup = max(np.max(np.abs(a_f)), np.max(np.abs(a_F)))
                    assert np.max(np.abs(cs.a_f - a_f)) <= 1e-14 * sup
                    assert np.max(np.abs(cs.a_F - a_F)) <= 1e-14 * sup
                    assert cs.p == p_value(model, cs.theta)

    @pytest.mark.parametrize(
        "model,alpha,K",
        [
            (LevyModel(0.0, 2.0, 0.3, CompoundPoissonGamma(1.0, 0.3, 1.0), q=0.05), 1.0, 20),
            (LevyModel(0.0, 2.0, 0.3, CompoundPoissonGamma(1.0, 0.3, 1.0), q=0.05), 3.0, 64),
            (LevyModel(0.0, 2.0, 0.0, CompoundPoissonGamma(1.0, 2.0, 0.4), q=0.05), 0.25, 20),
            (LevyModel(0.0, 1.5, 0.0, GammaSubordinator(0.2, 0.3), q=0.1), 3.0, 64),
            (LevyModel(0.0, 1.5, 0.3, GammaSubordinator(0.5, 1.0), q=0.0), 1.0, 40),
            (LevyModel(0.0, 1.5, 1e-310, GammaSubordinator(0.5, 1.0), q=0.1), 0.25, 20),
            # gamma = 0 with a small alpha, where an adaptive cubature of the
            # H-kernels against nu did not converge
            (LevyModel(0.0, 1.5, 0.3, GammaSubordinator(0.5, 1.0), q=0.0), 0.25, 20),
            (LevyModel(0.0, 1.5, 0.3, GammaSubordinator(0.5, 1.0), q=0.0), 0.25, 64),
            (LevyModel(0.0, 1.5, 0.5, CompoundPoissonExponential(1.0, 1.0), q=0.1), 1.0, 20),
            (LevyModel(0.0, 1.5, 0.5, NoJumps(), q=0.1), 1.0, 20),
        ],
        ids=[
            "cpg-shape0.3", "cpg-shape0.3-K64", "cpg-D0", "gs-0.2-0.3", "gs-q0", "gs-D1e-310",
            "gs-q0-alpha0.25", "gs-q0-alpha0.25-K64", "exp", "no-jumps",
        ],
    )
    def test_matches_quadrature_oracle(self, model, alpha, K, monkeypatch):
        # the oracle is Weeks' trapezoidal rule at r = 1/2 in mpmath, exact
        # to 1e-25 (measured: within 1.2e-15 of sup)
        monkeypatch.setattr(series_mod, "_WEEKS_RTOL", 1e-13)
        params = LaguerreParams(alpha, K)
        cs = coeffs_true(model, params)
        r_f, r_F = coeffs_reference(model, params)
        sup = max(np.max(np.abs(cs.a_f)), np.max(np.abs(cs.a_F)))
        assert np.max(np.abs(cs.a_f - r_f)) <= 5e-15 * sup
        assert np.max(np.abs(cs.a_F - r_F)) <= 5e-15 * sup

    @pytest.mark.parametrize("delta", [1e-9, 1e-7, 1e-5])
    def test_continuous_through_beta_equals_mu(self, delta):
        # Exp(1) jumps: beta = c/D + gamma crosses mu = 1 at D0, where the
        # two-exponential form of p f_q meets its x e^{-x} limit
        def model(D):
            return LevyModel(0.0, 1.5, D, CompoundPoissonExponential(1.0, 1.0), q=0.1)

        D0 = brentq(lambda D: 1.5 + D * (model(D).theta0().gamma - 1.0), 1.0, 3.0, xtol=1e-15)
        params = LaguerreParams(1.0, 40)
        at = coeffs_true(model(D0), params)
        sup = max(np.max(np.abs(at.a_f)), np.max(np.abs(at.a_F)))
        a_f, a_F = _exponential_limit_coeffs(model(D0), params)
        assert np.max(np.abs(at.a_f - a_f)) <= 1e-13 * sup
        assert np.max(np.abs(at.a_F - a_F)) <= 1e-13 * sup
        for D in (D0 * (1.0 - delta), D0 * (1.0 + delta)):
            cs = coeffs_true(model(D), params)
            a_f, a_F = _exponential_closed_coeffs(model(D), params)
            assert np.max(np.abs(cs.a_f - a_f)) <= 1e-13 * sup
            assert np.max(np.abs(cs.a_F - a_F)) <= 1e-13 * sup

    def test_too_coarse_rule_raises(self, monkeypatch):
        model = LevyModel(0.0, 1.5, 0.5, CompoundPoissonExponential(0.2, 5.0), q=0.1)
        params = LaguerreParams(3.0, 20)
        coeffs_true(model, params)
        monkeypatch.setattr(series_mod, "_WEEKS_MIN_NODES", 64)
        monkeypatch.setattr(series_mod, "_WEEKS_ALIAS", 1.0)
        with pytest.raises(NumericalError, match="node rules disagree"):
            coeffs_true(model, params)

    def test_needs_no_cubature_or_kernel_sweep(self, gamma_sub_model, params20, monkeypatch):
        from scipy import integrate

        def forbidden(*args, **kwargs):
            raise AssertionError("coeffs_true must not integrate the H-kernels")

        monkeypatch.setattr(integrate, "cubature", forbidden)
        monkeypatch.setattr(series_mod, "h_functionals_at", forbidden)
        cs = coeffs_true(gamma_sub_model, params20)
        assert np.all(np.isfinite(cs.a_G))

    def test_solve_residual(self, exp_jump_model, params40):
        cs = coeffs_true(exp_jump_model, params40)
        A = build_Af(cs.a_f, params40.alpha)
        resid = np.max(np.abs(A @ cs.a_G - cs.a_F))
        assert resid <= 1e-12 * max(1.0, np.max(np.abs(cs.a_F)))


class TestBuildAf:
    def test_zero_coeffs_identity(self):
        assert build_Af(np.zeros(5), 1.0) == pytest.approx(np.eye(5))

    def test_k1_explicit(self):
        u, v = 0.3, 0.1
        alpha = 1.0
        r = np.sqrt(2.0)
        A = build_Af(np.array([u, v]), alpha)
        want = np.array([[1 - u / r, 0.0], [-(v - u) / r, 1 - u / r]])
        assert A == pytest.approx(want)

    def test_constant_diagonal(self, exp_jump_model, params20):
        cs = coeffs_true(exp_jump_model, params20)
        A = build_Af(cs.a_f, params20.alpha)
        diag = np.diag(A)
        assert np.all(diag == diag[0])
        assert diag[0] == pytest.approx(1 - cs.a_f[0] / np.sqrt(2 * params20.alpha))


class TestSolveAG:
    def test_identity_passthrough(self):
        rhs = np.array([1.0, -2.0, 0.5])
        assert solve_aG(np.eye(3), rhs) == pytest.approx(rhs)

    def test_zero_rhs(self):
        A = np.tril(np.random.default_rng(0).uniform(0.5, 2.0, (4, 4)))
        assert solve_aG(A, np.zeros(4)) == pytest.approx(np.zeros(4))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_residual(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        A = np.tril(rng.uniform(-1.0, 1.0, (n, n)))
        np.fill_diagonal(A, rng.uniform(0.5, 2.0, n))
        rhs = rng.uniform(-1.0, 1.0, n)
        x = solve_aG(A, rhs)
        assert np.max(np.abs(A @ x - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_near_singular_raises(self):
        A = np.eye(3)
        A[1, 1] = 1e-12
        with pytest.raises(IllConditionedError):
            solve_aG(A, np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        with pytest.raises(NumericalError):
            solve_aG(build_Af(np.array([0.1, bad, 0.2]), 1.0), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(NumericalError):
            solve_aG(np.eye(3), np.array([1.0, bad, 3.0]))


class TestGbarPartialSum:
    def test_zero_for_no_jumps(self, brownian_model, params20):
        cs = coeffs_true(brownian_model, params20)
        xs = np.linspace(0, 10, 11)
        assert np.all(np.tensordot(cs.a_G, laguerre_fn_all(cs.params, xs), 1) == 0.0)

    def test_value_at_zero_approaches_p(self, exp_jump_model, params40):
        # Gbar_q(0) = p (the compound geometric has atom 1 - p at zero)
        cs = coeffs_true(exp_jump_model, params40)
        gbar0 = np.tensordot(cs.a_G, laguerre_fn_all(cs.params, 0.0), 1)
        assert gbar0 == pytest.approx(cs.p, abs=2e-2)

    def test_sup_error_vs_grid_oracle_decreases_in_K(self, exp_jump_model):
        th = exp_jump_model.theta0()
        h = 0.01
        xs_g = np.arange(0, 40 + h / 2, h)
        p = p_value(exp_jump_model, th)
        f = ftilde_q(exp_jump_model, th, xs_g) / p
        oracle = compound_geometric_grid(f, p, h)
        probe = np.linspace(0, 10, 201)
        want = oracle.tail_at(probe)
        errs = []
        for K in (10, 20, 40):
            cs = coeffs_true(exp_jump_model, LaguerreParams(1.0, K))
            gbar = np.tensordot(cs.a_G, laguerre_fn_all(cs.params, probe), 1)
            errs.append(np.max(np.abs(gbar - want)))
        # nonincreasing within 10% noise as K doubles
        assert errs[1] <= errs[0] * 1.1
        assert errs[2] <= errs[1] * 1.1
        assert errs[2] <= 2e-2


class TestEvaluators:
    def test_P_at_zero_diffusive(self):
        assert eval_P(0.0, 0.3, 0.2, 0.5, 1.5) == pytest.approx(0.0, abs=1e-15)

    def test_P_brownian_formula(self):
        # p = 0, D > 0: P(x) = (e^{gx} - e^{-bx}) / (D (b + g))
        c, D, gamma = 1.5, 0.5, 0.2
        beta = c / D + gamma
        xs = np.linspace(0, 8, 9)
        want = (np.exp(gamma * xs) - np.exp(-beta * xs)) / (D * (beta + gamma))
        assert eval_P(xs, 0.0, gamma, D, c) == pytest.approx(want, rel=1e-14)

    def test_p_at_least_one_rejected(self):
        with pytest.raises(DomainError):
            eval_P(1.0, 1.0, 0.1, 0.5, 1.5)

    def test_Q_matches_kernel_quadrature(self, exp_jump_model, params20):
        th = exp_jump_model.theta0()
        cs = coeffs_true(exp_jump_model, params20)
        beta = exp_jump_model.c / th.D + th.gamma
        gamma, D, c, p = th.gamma, th.D, exp_jump_model.c, cs.p
        x = 2.7
        Q = eval_Q_all(params20, np.array([x]), p, gamma, D, c)
        for k in (0, 4, 15):
            want, _ = quad(
                lambda z: (gamma * np.exp(gamma * (x - z)) + beta * np.exp(-beta * (x - z)))
                * laguerre_fn_all(params20, z)[k],
                0, x, limit=300,
            )
            want /= D * (1 - p) * (beta + gamma)
            assert Q[k, 0] == pytest.approx(want, abs=1e-9)


class TestScaleApprox:
    def test_brownian_exact_any_K(self, brownian_model):
        # nu = 0 forces a^G = 0, so W_K is the closed form for every K
        gamma = lundberg_exponent(brownian_model, brownian_model.q)
        beta = brownian_model.c / brownian_model.D + gamma
        xs = np.linspace(0, 10, 101)
        want = (np.exp(gamma * xs) - np.exp(-beta * xs)) / (
            brownian_model.D * (beta + gamma)
        )
        for K in (0, 3, 17):
            ap = scale_approx(brownian_model, LaguerreParams(1.0, K))
            assert np.max(np.abs(ap.w(xs) - want)) <= 1e-12

    def test_boundary_values_diffusive(self, exp_jump_model, params40):
        ap = scale_approx(exp_jump_model, params40)
        assert ap.w(0.0) == pytest.approx(0.0, abs=1e-14)
        assert ap.z(0.0) == pytest.approx(1.0, abs=1e-14)

    def test_w0_bounded_variation(self, cramer_lundberg_model, params40):
        # W(0) = 1/c when D = 0
        ap = scale_approx(cramer_lundberg_model, params40)
        assert ap.w(0.0) == pytest.approx(1.0 / cramer_lundberg_model.c, abs=2e-2)

    def test_against_talbot_oracle(self, exp_jump_model, params40):
        ap = scale_approx(exp_jump_model, params40)
        xs = np.linspace(0.1, 10, 34)
        wt = np.array([laplace_invert_scale(exp_jump_model, float(x)).value for x in xs])
        assert np.max(np.abs(ap.w(xs) - wt)) <= 1e-2 * np.max(np.abs(wt))

    def test_Z_equals_one_plus_q_int_W(self, exp_jump_model, params40):
        ap = scale_approx(exp_jump_model, params40)
        xs = np.linspace(0.0, 10.0, 4001)
        wk = ap.w(xs)
        h = xs[1] - xs[0]
        trap = np.concatenate([[0.0], np.cumsum(0.5 * h * (wk[1:] + wk[:-1]))])
        want = 1.0 + exp_jump_model.q * trap
        assert np.max(np.abs(ap.z(xs) - want)) <= 1e-4

    def test_wiggle_bound(self, exp_jump_model, gamma_sub_model, params40):
        for m in (exp_jump_model, gamma_sub_model):
            ap = scale_approx(m, params40)
            xs = np.linspace(0.0, 10.0, 501)
            wk = ap.w(xs)
            running_sup = np.maximum.accumulate(np.abs(wk))
            assert np.all(wk >= -0.02 * np.maximum(running_sup, 1e-10))


_ACCEPTANCE = LevyModel(0.0, 1.5, 0.5, CompoundPoissonExponential(1.0, 1.0), q=0.1)
_GAMMA_SHAPE2 = LevyModel(0.0, 2.0, 0.0, CompoundPoissonGamma(1.0, 2.0, 0.4), q=0.05)
_GAMMA_SHAPE3 = LevyModel(0.0, 2.0, 0.3, CompoundPoissonGamma(1.0, 3.0, 0.4), q=0.05)


# jump rates and atom rates c/D + gamma near alpha = 1/2, and near alpha = 2
_EXP_ALPHA_HALF = LevyModel(0.0, 1.0, 2.0, CompoundPoissonExponential(0.2, 2.0), q=0.1)
_EXP_ALPHA_HALF_Q0 = LevyModel(0.0, 1.5, 2.0, CompoundPoissonExponential(0.2, 1.0), q=0.0)
_GAMMA_ALPHA_HALF = LevyModel(0.0, 1.0, 2.0, CompoundPoissonGamma(0.2, 2.0, 1.0), q=0.05)
_EXP_ALPHA_TWO = LevyModel(0.0, 1.0, 0.5, CompoundPoissonExponential(0.2, 0.5), q=0.1)
_EXP_ALPHA_TWO_Q0 = LevyModel(0.0, 1.5, 0.5, CompoundPoissonExponential(1.0, 0.5), q=0.0)


class TestUniformConvergence:
    """W_K -> W and Z_K -> Z uniformly, against the exact residue sums on 41
    points of [0, 10]: sup errors relative to sup |W| and sup |Z|, within a
    few times those measured.  The rows at alpha = 1/2 and 2 take models and
    K where the series has reached rounding."""

    @pytest.mark.parametrize(
        "model,alpha,K,w_tol,z_tol",
        [
            (_ACCEPTANCE, 1.0, 20, 5e-8, 3e-9),       # measured 1.8e-8, 9.6e-10
            (_ACCEPTANCE, 1.0, 40, 1e-12, 5e-14),     # 2.3e-13, 1.0e-14
            (_ACCEPTANCE, 1.0, 64, 3e-15, 2e-15),     # 5.6e-16, 4.0e-16
            (_GAMMA_SHAPE2, 1.0, 20, 4e-7, 1e-9),     # 1.2e-7, 2.0e-10
            (_GAMMA_SHAPE2, 1.0, 40, 2e-12, 5e-15),   # 6.5e-13, 1.1e-15
            (_GAMMA_SHAPE2, 1.0, 64, 1e-14, 1e-15),   # 1.9e-15, 1.5e-16
            (_GAMMA_SHAPE3, 1.0, 20, 2e-5, 2e-7),     # 4.6e-6, 5.3e-8
            (_GAMMA_SHAPE3, 1.0, 40, 5e-8, 5e-10),    # 1.4e-8, 1.4e-10
            (_GAMMA_SHAPE3, 1.0, 64, 5e-11, 5e-13),   # 1.4e-11, 1.4e-13
            (_EXP_ALPHA_HALF, 0.5, 40, 2e-15, 2e-15),     # 1.7e-16, 1.9e-16
            (_EXP_ALPHA_HALF_Q0, 0.5, 40, 2e-15, 2e-15),  # 1.8e-16, 0
            (_GAMMA_ALPHA_HALF, 0.5, 40, 2e-15, 2e-15),   # 3.9e-16, 2.8e-16
            (_EXP_ALPHA_TWO, 2.0, 40, 2e-15, 2e-15),      # 1.6e-16, 3.3e-16
            (_EXP_ALPHA_TWO_Q0, 2.0, 40, 2e-15, 2e-15),   # 1.1e-16, 0
            (_GAMMA_SHAPE2, 2.0, 40, 2e-15, 1e-15),       # 3.7e-16, 1.5e-16
            (_GAMMA_SHAPE2, 2.0, 64, 2e-15, 1e-15),       # 4.6e-16, 1.5e-16
            (_GAMMA_SHAPE3, 2.0, 64, 3e-15, 2e-15),       # 7.1e-16, 4.0e-16
        ],
        ids=[
            *(
                f"{m}-K{K}"
                for m in ("acceptance", "gamma-shape2-D0", "gamma-shape3")
                for K in (20, 40, 64)
            ),
            "exp-alpha0.5-K40", "exp-q0-alpha0.5-K40", "gamma-shape2-alpha0.5-K40",
            "exp-alpha2-K40", "exp-q0-alpha2-K40",
            "gamma-shape2-D0-alpha2-K40", "gamma-shape2-D0-alpha2-K64", "gamma-shape3-alpha2-K64",
        ],
    )
    def test_sup_error_against_residues(self, model, alpha, K, w_tol, z_tol):
        xs = np.linspace(0.0, 10.0, 41)
        W, Z = residue_scale(model, xs)
        ap = scale_approx(model, LaguerreParams(alpha, K))
        assert np.max(np.abs(ap.w(xs) - W)) <= w_tol * np.max(np.abs(W))
        assert np.max(np.abs(ap.z(xs) - Z)) <= z_tol * np.max(np.abs(Z))


class TestGammaSubordinatorRate:
    """The uniform convergence the expansion guarantees has, for the gamma
    subordinator (shape 0.5, rate 1, c 1.5, D 0.3, q 0.05), an algebraic rate,
    about K^(-3.2): pinned against a 30-digit Talbot inversion of
    1 / (psi(theta) - q) on 5 points (alpha = 1).  At K = 256 the backward
    seed splits every gap at auxiliary stations."""

    def test_rate(self):
        x = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        with mpmath.workdps(30):
            c, D, shape, rate, q = (mpmath.mpf(v) for v in (1.5, 0.3, 0.5, 1.0, 0.05))

            def transform(theta):
                return 1 / (c * theta + D * theta**2 - shape * mpmath.log1p(theta / rate) - q)

            exact = np.array([float(mpmath.invertlaplace(transform, xi, method="talbot")) for xi in x])
        model = LevyModel(0.0, 1.5, 0.3, GammaSubordinator(0.5, 1.0), q=0.05)
        errs = {}
        for K, measured in ((20, 4.0e-5), (64, 9.0e-7), (256, 1.1e-8)):
            errs[K] = np.max(np.abs(scale_approx(model, LaguerreParams(1.0, K)).w(x) - exact))
            assert measured / 2 <= errs[K] <= 2 * measured, (K, errs[K])
        assert -3.6 <= math.log(errs[256] / errs[64]) / math.log(4.0) <= -3.0, errs


_X_SHAPES = {
    "scalar": np.float64(2.5),
    "empty": np.empty(0),
    "one point": np.array([1.3]),
    "grid": np.linspace(0.0, 10.0, 201),
}


class TestContractedKernels:
    """``kernels`` with (K+1, r) weights U against U^T times its identity-weight rows."""

    @pytest.mark.parametrize("x_case", list(_X_SHAPES))
    @pytest.mark.parametrize("gamma", [0.0, 0.2])
    @pytest.mark.parametrize("D", [0.0, 1e-300, 0.5])
    @pytest.mark.parametrize("K", [0, 20, 64])
    def test_weights_contract_the_rows(self, K, D, gamma, x_case):
        self.check_weights_contract_the_rows(1.0, K, D, gamma, x_case)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    @pytest.mark.parametrize("x_case", list(_X_SHAPES))
    @pytest.mark.parametrize("gamma", [0.0, 0.2])
    @pytest.mark.parametrize("D", [0.0, 1e-300, 0.5])
    @pytest.mark.parametrize("K", [0, 20, 64])
    def test_weights_contract_the_rows_off_unit_alpha(self, K, D, gamma, x_case, alpha):
        self.check_weights_contract_the_rows(alpha, K, D, gamma, x_case)

    def check_weights_contract_the_rows(self, alpha, K, D, gamma, x_case):
        params, x, c, p = LaguerreParams(alpha, K), _X_SHAPES[x_case], 1.5, 0.3
        rows = kernels(params, x, p, gamma, D, c, np.eye(K + 1), K + 1)
        assert rows.Q.value.shape == rows.Qstar.d_gamma.shape == (K + 1,) + np.shape(x)
        rng = np.random.default_rng(K)
        for U in [np.eye(K + 1)] + [rng.normal(size=(K + 1, r)) for r in (1, 3, K + 1)]:
            got = kernels(params, x, p, gamma, D, c, U, U.shape[1])
            for name in ("P", "Pstar"):
                for part, want in zip(getattr(got, name), getattr(rows, name)):
                    assert np.array_equal(part, want)

            def mag(a):
                # the rounding scale of U^T a: sup over x of |U|^T |a|
                return np.max(np.tensordot(np.abs(U), np.abs(a), axes=(0, 0)), initial=0.0)

            for name in ("Q", "Qstar"):
                parts = zip(Kernel._fields, getattr(got, name), getattr(rows, name))
                for field, part, full in parts:
                    want = np.tensordot(U, full, axes=(0, 0))
                    assert part.shape == want.shape == (U.shape[1],) + np.shape(x)
                    # the forward ladder and its adjoint round apart over K steps; a
                    # gamma-derivative also carries the three-term identity's Psi
                    # rows, weighted by (2k+1) / (2 alpha): ~ (K+1) / alpha |U|^T |Q*|
                    scale = mag(full) + (field == "d_gamma") * (K + 1) / alpha * mag(rows.Qstar.value)
                    assert np.max(np.abs(part - want), initial=0.0) <= 1e-14 * scale

    @pytest.mark.parametrize("gamma", [-0.5, -2.0, -4.0])
    @pytest.mark.parametrize("K", [0, 20, 64])
    def test_negative_gamma_against_the_psi_rows(self, K, gamma):
        # at gamma < 0 both atoms may sweep backward (-0.5, -2), and below
        # -c/(2D) the atom at -beta = 1 sweeps forward (-4); Q and Q* are
        # (gamma Psi(gamma) + beta Psi(-beta)) / N and (Psi(gamma) - Psi(-beta)) / N
        params, x, c, D, p = LaguerreParams(1.0, K), np.linspace(0.0, 10.0, 41), 1.5, 0.5, 0.3
        beta, N = c / D + gamma, (1.0 - p) * (c + 2.0 * gamma * D)
        got = kernels(params, x, p, gamma, D, c, np.eye(K + 1), 0)
        at_gamma, at_atom = psi_integral_all(params, x, gamma), psi_integral_all(params, x, -beta)
        for part, want in (
            (got.Q.value, (gamma * at_gamma + beta * at_atom) / N),
            (got.Qstar.value, (at_gamma - at_atom) / N),
        ):
            # measured at most 3.6e-15 of sup (K = 64, gamma = -0.5)
            assert np.max(np.abs(part - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("model", [_ACCEPTANCE, _GAMMA_SHAPE2], ids=["D>0", "D=0"])
    def test_one_laguerre_recurrence_over_x(self, model, monkeypatch):
        # phi, the backward seed (D > 0) and both sweeps' sources share one
        # recurrence over the x; at K = 64 the grid's gaps are within the seed
        # rule's reach, so it needs no auxiliary station
        import qscale.laguerre as laguerre_mod

        approx = scale_approx(model, LaguerreParams(1.0, 64))
        x = np.linspace(0.0, 10.0, 201)
        points = []
        rows = laguerre_mod.weighted_laguerre_all

        def counted(kmax, alpha, x):
            points.append(np.size(x))
            return rows(kmax, alpha, x)

        monkeypatch.setattr(laguerre_mod, "weighted_laguerre_all", counted)
        monkeypatch.setattr(series_mod, "weighted_laguerre_all", counted)
        approx.kernels(x)
        assert points == [x.size], points

    def test_no_row_stack_beyond_the_sweep(self, monkeypatch):
        # W_K at K = 64 on 201 points allocates less than one (2K+4) x 201
        # array beyond the backward seed's own peak
        import tracemalloc

        import qscale.series as series_mod

        K, x = 64, np.linspace(0.0, 10.0, 201)
        approx = scale_approx(_ACCEPTANCE, LaguerreParams(1.0, K))
        approx.w(x)
        sweep_peaks = []
        sweep = series_mod.backward_seed

        def measured(rows, alpha, xx, b):
            # the seed's peak over what is held when it starts
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = sweep(rows, alpha, xx, b)
            sweep_peaks.append(tracemalloc.get_traced_memory()[1] - held)
            return out

        monkeypatch.setattr(series_mod, "backward_seed", measured)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            approx.w(x)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(sweep_peaks) == 1
        assert peak - sweep_peaks[0] < (2 * K + 4) * x.size * 8, (peak, sweep_peaks)


class TestDerivativeWeights:
    """``kernels`` forms gamma-derivatives for U's first g columns; no value depends on g."""

    @pytest.mark.parametrize("x_case", list(_X_SHAPES))
    @pytest.mark.parametrize("K", [0, 20, 64])
    @pytest.mark.parametrize("model", [_ACCEPTANCE, _GAMMA_SHAPE2], ids=["D>0", "D=0"])
    def test_values_do_not_depend_on_g(self, model, K, x_case):
        cs, x = scale_approx(model, LaguerreParams(1.0, K)).coeffs, _X_SHAPES[x_case]
        rng = np.random.default_rng(K)
        for U in (cs.a_G[:, None], np.column_stack([cs.a_G, rng.normal(size=(K + 1, K + 2))])):
            gs = (0, 1, U.shape[1])
            runs = [
                kernels(cs.params, x, cs.p, cs.theta.gamma, cs.theta.D, model.c, U, g) for g in gs
            ]
            for run in runs[1:]:
                for kern, want in zip(run, runs[0]):
                    assert np.array_equal(kern.value, want.value)
            assert [run.Q.d_gamma.shape for run in runs] == [(g,) + np.shape(x) for g in gs]
            assert all(kern.d_gamma.shape == (0,) + np.shape(x) for kern in runs[0])

    @pytest.mark.parametrize("g", [-1, 2])
    def test_g_outside_the_columns(self, g):
        approx = scale_approx(_ACCEPTANCE, LaguerreParams(1.0, 20))
        with pytest.raises(DomainError, match="derivative columns"):
            _approx_kernels(approx, np.linspace(0.0, 10.0, 11), approx.coeffs.a_G[:, None], g)

    @pytest.mark.parametrize("model", [_ACCEPTANCE, _GAMMA_SHAPE2], ids=["D>0", "D=0"])
    def test_curves_form_no_gamma_derivative(self, model, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a curve formed a gamma-derivative")

        approx = scale_approx(model, LaguerreParams(1.0, 20))
        x = np.linspace(-1.0, 10.0, 45)
        want = approx.w(x), approx.z(x)
        monkeypatch.setattr(series_mod, "_expm1_ratio_db", forbidden)
        monkeypatch.setattr(series_mod, "t_multiplier", forbidden)
        assert all(np.array_equal(got, w) for got, w in zip((approx.w(x), approx.z(x)), want))
        with pytest.raises(AssertionError, match="gamma-derivative"):
            _approx_kernels(approx, x, approx.coeffs.a_G[:, None], 1)

    @pytest.mark.parametrize("model", [_ACCEPTANCE, _GAMMA_SHAPE2], ids=["D>0", "D=0"])
    def test_one_ladder_runs_both_atoms(self, model, monkeypatch):
        # the atom at gamma and, for D > 0, the one at -beta: their adjoint
        # ladders run side by side in one call, over [U | Z U_g]'s r + g columns each
        K = 20
        approx = scale_approx(model, LaguerreParams(1.0, K))
        shapes, ladder = [], series_mod.ladder

        def counted(y0, d, diag, off, out=None):
            shapes.append(np.shape(d))
            return ladder(y0, d, diag, off, out)

        monkeypatch.setattr(series_mod, "ladder", counted)
        atoms = 2 if model.D > 0 else 1
        x = np.linspace(0.0, 10.0, 11)
        for g in (0, 1):
            shapes.clear()
            _approx_kernels(approx, x, approx.coeffs.a_G[:, None], g)
            width = 1 + g
            assert shapes == [(K, atoms * width)], shapes


class TestNegativeX:
    """W^(q) = 0 and Z^(q) = 1 on x < 0, with zero gradients."""

    XS = np.array([-np.inf, -1.0, -1e-300, 0.0, 1e-300])

    @pytest.mark.parametrize("model", [_ACCEPTANCE, _GAMMA_SHAPE2], ids=["D>0", "D=0"])
    def test_scale_approx(self, model):
        self.check_scale_approx(model, 1.0)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    @pytest.mark.parametrize("model", [_ACCEPTANCE, _GAMMA_SHAPE2], ids=["D>0", "D=0"])
    def test_scale_approx_off_unit_alpha(self, model, alpha):
        self.check_scale_approx(model, alpha)

    def check_scale_approx(self, model, alpha):
        approx = scale_approx(model, LaguerreParams(alpha, 20))
        U = np.column_stack([approx.coeffs.a_G, np.ones((21, 2))])
        k = _approx_kernels(approx, self.XS, U, 1)
        W, Z = approx.w_from(k), approx.z_from(k)
        assert np.array_equal(W[:3], np.zeros(3)) and np.array_equal(Z[:3], np.ones(3))
        assert all(not np.any(part[..., :3]) for kern in k for part in kern)
        assert np.array_equal(approx.w(self.XS[:3]), np.zeros(3))
        assert np.array_equal(approx.z(-1.0), np.float64(1.0))
        # at and just above 0 the values of the parent formula
        assert np.all(np.isfinite(W)) and np.all(np.isfinite(Z))
        assert W[4] == pytest.approx(W[3], abs=1e-15) and Z[3] == 1.0
        if model.D > 0:
            assert W[3] == 0.0

    @pytest.mark.parametrize("model", [_ACCEPTANCE, _GAMMA_SHAPE2, _GAMMA_SHAPE3])
    def test_residue_scale(self, model):
        W, Z = residue_scale(model, self.XS)
        assert np.array_equal(W[:3], np.zeros(3)) and np.array_equal(Z[:3], np.ones(3))
        assert W[3] == pytest.approx(0.0 if model.D > 0 else 1.0 / model.c, abs=1e-15)
        assert W[4] == pytest.approx(W[3], abs=1e-15) and Z[3] == 1.0
