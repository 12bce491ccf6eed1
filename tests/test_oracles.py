"""Talbot inversion, compound-geometric grid oracle, closed forms."""

from __future__ import annotations

import numpy as np
import pytest

from qscale.exceptions import DomainError, GridTooCoarseError
from qscale.laguerre import LaguerreParams
from qscale.levy import CompoundPoissonExponential, LevyModel, NoJumps, laplace_exponent_deriv
from qscale.oracles import (
    closed_form_W,
    compound_geometric_grid,
    compound_geometric_series,
    ftilde_q,
    laplace_invert_scale,
)
from qscale.series import coeffs_true, p_value, scale_approx


class TestTalbot:
    def test_brownian_closed_form(self, brownian_model):
        xs = np.linspace(0.1, 10, 25)
        want = closed_form_W("brownian-drift", {"c": 1.5, "D": 0.5}, 0.1, xs)
        got = np.array([laplace_invert_scale(brownian_model, float(x)).value for x in xs])
        assert np.max(np.abs(got - want)) <= 1e-6

    def test_cramer_lundberg_partial_fractions(self, cramer_lundberg_model):
        xs = np.linspace(0.1, 10, 25)
        want = closed_form_W(
            "cramer-lundberg-exponential", {"c": 1.5, "rate": 1.0, "jump_mean": 1.0}, 0.1, xs
        )
        got = np.array(
            [laplace_invert_scale(cramer_lundberg_model, float(x)).value for x in xs]
        )
        assert np.max(np.abs(got - want)) <= 1e-6

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

    def test_series_cross_check(self):
        h = 0.01
        xs = np.arange(0, 40 + h / 2, h)
        f = np.exp(-xs)
        gd = compound_geometric_grid(f, 0.5, h)
        ser = compound_geometric_series(f, 0.5, h)
        assert np.max(np.abs(ser - gd.tail)) <= 1e-4

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
    def test_brownian_q0(self):
        c, D = 1.5, 0.5
        xs = np.linspace(0, 10, 21)
        want = (1.0 - np.exp(-c * xs / D)) / c
        assert closed_form_W("brownian-drift", {"c": c, "D": D}, 0.0, xs) == pytest.approx(
            want, rel=1e-12
        )

    def test_zero_at_origin_diffusive(self):
        assert closed_form_W("brownian-drift", {"c": 1.5, "D": 0.5}, 0.3, 0.0) == 0.0

    def test_cl_exponential_ruin_probability(self):
        # 1 - psi'(0+) W^{(0)}(x) = (lam/(c mu)) e^{-(mu - lam/c) x}; validate
        # against the compound geometric grid before trusting it
        c, lam, mu = 1.5, 1.0, 1.0
        m = LevyModel(x0=0, c=c, D=0.0, jumps=CompoundPoissonExponential(lam, 1 / mu), q=0.0)
        xs = np.linspace(0, 10, 41)
        W = closed_form_W(
            "cramer-lundberg-exponential", {"c": c, "rate": lam, "jump_mean": 1 / mu}, 0.0, xs
        )
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
        with pytest.raises(DomainError):
            closed_form_W("stable", {}, 0.1, 1.0)


class TestThreeWayAgreement:
    def test_cramer_lundberg_all_routes(self, cramer_lundberg_model):
        xs = np.linspace(0.1, 10, 34)
        w_closed = closed_form_W(
            "cramer-lundberg-exponential", {"c": 1.5, "rate": 1.0, "jump_mean": 1.0}, 0.1, xs
        )
        w_talbot = np.array(
            [laplace_invert_scale(cramer_lundberg_model, float(x)).value for x in xs]
        )
        ap = scale_approx(cramer_lundberg_model, LaguerreParams(1.0, 40))
        w_K = ap.w(xs)
        scale = np.max(np.abs(w_closed))
        assert np.max(np.abs(w_talbot - w_closed)) <= 2e-2 * scale
        assert np.max(np.abs(w_K - w_closed)) <= 2e-2 * scale
        assert np.max(np.abs(w_K - w_talbot)) <= 2e-2 * scale
