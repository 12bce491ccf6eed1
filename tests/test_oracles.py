"""Talbot inversion, compound-geometric grid oracle, residue sums for rational psi."""

from __future__ import annotations

import mpmath
import numpy as np
import pytest

from qscale.exceptions import DomainError, GridTooCoarseError
from qscale.laguerre import LaguerreParams
from qscale.levy import (
    CompoundPoissonExponential,
    CompoundPoissonGamma,
    GammaSubordinator,
    JumpMeasure,
    LevyModel,
    NoJumps,
    laplace_exponent_deriv,
)
from qscale.oracles import (
    coeffs_reference,
    compound_geometric_grid,
    ftilde_q,
    laplace_invert_scale,
    residue_scale,
)
from qscale.series import p_value, scale_approx


def _talbot(model, xs):
    return np.array([laplace_invert_scale(model, float(x)).value for x in xs])


def _mp_residue_scale(model, xs):
    """(W, Z) from 40-digit ``mpmath.polyroots`` residues of (psi - q) d, with
    nu(e^{-theta z} - 1) = N / d written out per family."""
    jumps = model.jumps
    with mpmath.workdps(40):
        mp = mpmath.mpf
        if isinstance(jumps, NoJumps):
            N, d = [mp(0)], [mp(1)]
        elif isinstance(jumps, CompoundPoissonExponential):
            N, d = [mp(0), -mp(jumps.rate)], [mp(jumps.mu), mp(1)]
        else:  # compound Poisson gamma of integer shape: d = (1 + scale theta)^shape
            n = int(jumps.shape)
            d = [mpmath.binomial(n, j) * mp(jumps.scale) ** j for j in range(n + 1)]
            N = [mp(jumps.rate) * ((j == 0) - dj) for j, dj in enumerate(d)]
        P = [mp(0)] * (len(d) + 2)
        for i, a in enumerate([-mp(model.q), mp(model.c), mp(model.D)]):
            for j, b in enumerate(d):
                P[i + j] += a * b
        for i, a in enumerate(N):
            P[i] += a
        while P[-1] == 0:
            P.pop()
        # extra precision spans the ~1e310 spread of the roots at tiny D
        roots = mpmath.polyroots(P[::-1], maxsteps=500, extraprec=2200)

        def ev(coef, t):
            return mpmath.fsum(ci * t**i for i, ci in enumerate(coef))

        dP = [i * P[i] for i in range(1, len(P))]
        res = [ev(d, r) / ev(dP, r) for r in roots]  # 1/psi'(r)
        W, Z = [], []
        for x in map(mp, xs):
            W.append(mpmath.re(mpmath.fsum(mpmath.exp(r * x) * s for r, s in zip(roots, res))))
            Z.append(mpmath.re(1 + mp(model.q) * mpmath.fsum(
                mpmath.expm1(r * x) / r * s for r, s in zip(roots, res)
            )))
    return np.array(W, dtype=float), np.array(Z, dtype=float)


class TestTalbot:
    # against the exact residue sums the inversion is off by 1.6e-11 and
    # 1.2e-11 of sup on these two models
    def test_brownian_closed_form(self, brownian_model):
        xs = np.linspace(0.1, 10, 25)
        want = residue_scale(brownian_model, xs)[0]
        assert np.max(np.abs(_talbot(brownian_model, xs) - want)) <= 1e-9 * np.max(np.abs(want))

    def test_cramer_lundberg_partial_fractions(self, cramer_lundberg_model):
        xs = np.linspace(0.1, 10, 25)
        want = residue_scale(cramer_lundberg_model, xs)[0]
        got = _talbot(cramer_lundberg_model, xs)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_small_x_tends_to_zero(self, exp_jump_model):
        # W(0+) = 0 for unbounded-variation paths (D > 0)
        vals = [laplace_invert_scale(exp_jump_model, x).value for x in (1e-3, 1e-2, 0.1)]
        assert abs(vals[0]) < 5e-3
        assert abs(vals[0]) < abs(vals[1]) < abs(vals[2])

    def test_rejects_nonpositive_x(self, exp_jump_model):
        with pytest.raises(DomainError):
            laplace_invert_scale(exp_jump_model, 0.0)

    def test_error_estimate_reported(self, exp_jump_model):
        res = laplace_invert_scale(exp_jump_model, 2.0)
        assert res.error_estimate >= 0.0 and not res.flagged


class TestCompoundGeometricGrid:
    @staticmethod
    def _exp_case(p=2.0 / 3.0, mu=1.0, h=0.01, xmax=40.0):
        xs = np.arange(0, xmax + h / 2, h)
        f = mu * np.exp(-mu * xs)
        return xs, compound_geometric_grid(f, p, h), p, mu

    def test_exponential_closed_form(self):
        xs, gd, p, mu = self._exp_case()
        want = p * np.exp(-mu * (1 - p) * xs)
        assert np.max(np.abs(gd.tail - want)) <= 1e-4

    def test_atom_and_tail_at_zero(self):
        _, gd, p, _ = self._exp_case()
        assert gd.atom == pytest.approx(1 - p)
        assert gd.tail[0] == pytest.approx(p)

    def test_mass_conservation(self):
        _, gd, p, _ = self._exp_case()
        mass = gd.atom + np.trapezoid(gd.density, dx=gd.h)
        assert abs(mass - 1.0) <= 1e-6

    def test_h_refinement_improves(self):
        # marching scheme converges: halving h cuts the error (observed
        # second-order, ratio ~ 1/4; assert at least a 35% reduction)
        _, gd1, p, mu = self._exp_case(h=0.02)
        _, gd2, _, _ = self._exp_case(h=0.01)
        xs1 = gd1.x
        xs2 = gd2.x
        e1 = np.max(np.abs(gd1.tail - p * np.exp(-mu * (1 - p) * xs1)))
        e2 = np.max(np.abs(gd2.tail - p * np.exp(-mu * (1 - p) * xs2)))
        assert 0.05 <= e2 / e1 <= 0.65

    def test_tiny_p_limit(self):
        # p -> 0: the tail vanishes and the atom carries all the mass
        h = 0.01
        xs = np.arange(0, 40 + h / 2, h)
        f = np.exp(-xs)
        gd = compound_geometric_grid(f, 1e-8, h)
        assert np.max(np.abs(gd.tail)) <= 2e-8
        assert gd.atom == pytest.approx(1.0, abs=2e-8)

    def test_p_out_of_range_rejected(self):
        xs = np.arange(0, 40, 0.01)
        f = np.exp(-xs)
        for p in (0.0, 1.0, 1.3):
            with pytest.raises(DomainError):
                compound_geometric_grid(f, p, 0.01)

    def test_mass_deficit_rejected(self):
        xs = np.arange(0, 2, 0.01)  # truncates most of the density
        f = 0.2 * np.exp(-0.2 * xs)
        with pytest.raises(GridTooCoarseError):
            compound_geometric_grid(f, 0.5, 0.01)


class TestClosedFormW:
    """``residue_scale``: one residue sum over the roots of psi - q for every rational psi."""

    XS = np.linspace(0, 10, 41)

    def test_brownian_q0(self):
        c, D = 1.5, 0.5
        W, Z = residue_scale(LevyModel(x0=0, c=c, D=D, jumps=NoJumps(), q=0.0), self.XS)
        want = (1.0 - np.exp(-c * self.XS / D)) / c
        assert W == pytest.approx(want, rel=1e-12)
        assert np.all(Z == 1.0)

    def test_zero_at_origin_diffusive(self):
        # W(0) = sum_i 1/psi'(r_i) = 0 when D > 0, to rounding
        for model in (
            LevyModel(x0=0, c=1.5, D=0.5, jumps=NoJumps(), q=0.3),
            LevyModel(x0=0, c=1.5, D=0.5, jumps=CompoundPoissonExponential(1.0, 1.0), q=0.0),
            LevyModel(x0=0, c=2.0, D=0.3, jumps=CompoundPoissonGamma(1.0, 3.0, 0.4), q=0.05),
        ):
            W = residue_scale(model, self.XS)[0]
            assert abs(W[0]) <= 1e-15 * np.max(np.abs(W))

    @pytest.mark.parametrize(
        "model",
        [
            LevyModel(x0=0, c=1.5, D=0.0, jumps=NoJumps(), q=0.1),
            LevyModel(x0=0, c=1.5, D=0.0, jumps=CompoundPoissonExponential(1.0, 1.0), q=0.1),
            LevyModel(x0=0, c=2.0, D=0.0, jumps=CompoundPoissonGamma(1.0, 2.0, 0.4), q=0.0),
        ],
        ids=["drift", "cramer-lundberg", "gamma-shape2-q0"],
    )
    def test_inverse_premium_at_origin_bounded_variation(self, model):
        assert residue_scale(model, 0.0)[0] == pytest.approx(1.0 / model.c, rel=1e-15)

    def test_z_is_one_plus_q_integral_of_w(self, exp_jump_model):
        # 40-node Gauss-Legendre on [0, x] is exact to rounding for these exponentials
        t, w = np.polynomial.legendre.leggauss(40)
        xs = np.array([0.5, 2.0, 7.0])
        nodes = np.outer(xs, t + 1.0) / 2.0
        integral = xs / 2.0 * (residue_scale(exp_jump_model, nodes)[0] @ w)
        want = 1.0 + exp_jump_model.q * integral
        assert residue_scale(exp_jump_model, xs)[1] == pytest.approx(want, rel=1e-14)

    def test_cl_exponential_ruin_probability(self):
        # 1 - psi'(0+) W^{(0)}(x) = (lam/(c mu)) e^{-(mu - lam/c) x}; validate
        # against the compound geometric grid before trusting it
        c, lam, mu = 1.5, 1.0, 1.0
        m = LevyModel(x0=0, c=c, D=0.0, jumps=CompoundPoissonExponential(lam, 1 / mu), q=0.0)
        xs = self.XS
        W = residue_scale(m, xs)[0]
        ruin = 1.0 - laplace_exponent_deriv(m, 0.0) * W
        want = lam / (c * mu) * np.exp(-(mu - lam / c) * xs)
        assert ruin == pytest.approx(want, rel=1e-10)
        # grid-oracle cross-validation
        th = m.theta0()
        h = 0.01
        xs_g = np.arange(0, 40 + h / 2, h)
        p = p_value(m, th)
        f = ftilde_q(m, th, xs_g) / p
        oracle = compound_geometric_grid(f, p, h)
        assert np.max(np.abs(oracle.tail_at(xs) - ruin)) <= 1e-4

    def test_unsupported_kind(self):
        # psi is not rational for the gamma subordinator or a non-integer gamma shape
        for jumps in (GammaSubordinator(0.5, 1.0), CompoundPoissonGamma(1.0, 0.3, 1.0)):
            with pytest.raises(DomainError, match="not rational"):
                residue_scale(LevyModel(x0=0, c=2.0, D=0.3, jumps=jumps, q=0.1), 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("D", [1e-12, 1e-300, 1e-310, 0.5])
    @pytest.mark.parametrize(
        "jumps",
        [CompoundPoissonExponential(1.0, 1.0), NoJumps(), CompoundPoissonGamma(1.0, 3.0, 0.4)],
        ids=["exponential", "none", "gamma-shape3"],
    )
    def test_small_D_against_mpmath_residues(self, jumps, D):
        # the root near -c/D is far beyond the others (past the doubles at
        # 1e-310); at D = 1e-12 and 1e-300 the closeness test once took the
        # distinct roots -0.42 and 0.157 for a repeated one
        model = LevyModel(x0=0, c=1.5, D=D, jumps=jumps, q=0.1)
        W, Z = residue_scale(model, self.XS)
        W_ref, Z_ref = _mp_residue_scale(model, self.XS)
        assert np.max(np.abs(W - W_ref)) <= 2e-15 * np.max(np.abs(W_ref))
        assert np.max(np.abs(Z - Z_ref)) <= 2e-15 * np.max(np.abs(Z_ref))

    def test_repeated_root_rejected(self):
        # with D = 1/2, c = 3/2, Gamma(2, 1/8) sizes at rate lam = 21/4 and
        # q = 279/4, psi - q = psi' = 0 at theta = -12: a double pole of the
        # transform, which has no simple-pole residue sum
        jumps = CompoundPoissonGamma(5.25, 2.0, 0.125)
        with pytest.raises(DomainError, match="repeated root"):
            residue_scale(LevyModel(x0=0, c=1.5, D=0.5, jumps=jumps, q=69.75), 1.0)


class TestThreeWayAgreement:
    def test_cramer_lundberg_all_routes(self, cramer_lundberg_model):
        xs = np.linspace(0.1, 10, 34)
        w_exact = residue_scale(cramer_lundberg_model, xs)[0]
        w_talbot = _talbot(cramer_lundberg_model, xs)
        w_K = scale_approx(cramer_lundberg_model, LaguerreParams(1.0, 40)).w(xs)
        scale = np.max(np.abs(w_exact))
        assert np.max(np.abs(w_talbot - w_exact)) <= 1e-9 * scale
        assert np.max(np.abs(w_K - w_exact)) <= 1e-14 * scale
        assert np.max(np.abs(w_K - w_talbot)) <= 1e-9 * scale


class _UnitJumps(JumpMeasure):
    """Unit jumps at rate 1/2: a family the reference has no mpmath form for."""

    def mean(self) -> float:
        return 0.5

    def exp_functional(self, theta):
        return 0.5 * np.expm1(-theta)

    def exp_moment(self, theta):
        return 0.5 * np.exp(-theta)


class TestCoeffsReference:
    def test_unlisted_family_raises(self):
        model = LevyModel(0.0, 1.5, 0.5, _UnitJumps(), q=0.1)
        with pytest.raises(DomainError, match="no mpmath"):
            coeffs_reference(model, LaguerreParams(1.0, 5))
