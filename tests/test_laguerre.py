"""Laguerre polynomials, basis functions, convolution integrals, projections."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import comb, factorial

from qscale.laguerre import (
    LaguerreParams,
    ladder,
    laguerre_fn,
    laguerre_fn_all,
    laguerre_poly,
    partial_sum,
    psi_integral,
    psi_integral_all,
    psi_integral_db_all,
)
from qscale.oracles import project_grid
from qscale.series import _lag_transform_exp


def binomial_sum_laguerre(k: int, x: float) -> float:
    """Direct evaluation of L_k(x) = sum_j C(k,j) (-x)^j / j! (small k only)."""
    j = np.arange(k + 1)
    return float(np.sum(comb(k, j) * (-x) ** j / factorial(j)))


class TestLaguerrePoly:
    def test_order_zero_is_one(self):
        for x in (-3.0, 0.0, 1.7, 100.0):
            assert laguerre_poly(0, x) == 1.0

    def test_order_two_closed_form(self):
        # L_2(x) = 1 - 2x + x^2/2; at x = 2 this is -1
        assert laguerre_poly(2, 2.0) == pytest.approx(-1.0, abs=1e-14)
        for x in (0.3, 1.1, 4.0):
            assert laguerre_poly(2, x) == pytest.approx(1 - 2 * x + x * x / 2, rel=1e-14)

    def test_matches_binomial_sum(self):
        assert laguerre_poly(10, 3.7) == pytest.approx(binomial_sum_laguerre(10, 3.7), abs=1e-10)

    def test_vectorized(self):
        xs = np.linspace(0, 5, 7)
        got = laguerre_poly(4, xs)
        want = [laguerre_poly(4, float(x)) for x in xs]
        assert got == pytest.approx(want)


class TestLaguerreFn:
    def test_value_at_zero_any_order(self):
        p = LaguerreParams(alpha=0.8, K=12)
        for k in range(13):
            assert laguerre_fn(p, k, 0.0) == pytest.approx(math.sqrt(1.6), rel=1e-14)

    @given(
        k=st.integers(0, 64),
        x=st.floats(0.0, 100.0),
        alpha=st.sampled_from([0.5, 1.0, 2.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_uniform_bound(self, k, x, alpha):
        p = LaguerreParams(alpha=alpha, K=k)
        assert abs(laguerre_fn(p, k, x)) <= math.sqrt(2 * alpha) * (1 + 1e-12)

    def test_orthonormality_gram(self):
        # Gauss-Legendre panels on [0, 60/alpha]: Gram matrix = identity to 1e-8
        alpha = 1.0
        p = LaguerreParams(alpha=alpha, K=20)
        nodes, weights = np.polynomial.legendre.leggauss(24)
        edges = np.linspace(0.0, 60.0 / alpha, 61)
        xs, ws = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            half = 0.5 * (hi - lo)
            xs.append(half * nodes + 0.5 * (lo + hi))
            ws.append(half * weights)
        xs = np.concatenate(xs)
        ws = np.concatenate(ws)
        phi = laguerre_fn_all(p, xs)  # (21, npts)
        gram = (phi * ws) @ phi.T
        assert np.max(np.abs(gram - np.eye(21))) < 1e-8


class TestPsiIntegral:
    def test_zero_at_origin(self):
        p = LaguerreParams(1.0, 8)
        for k in (0, 3, 8):
            for b in (-2.0, -1.0, 0.0, 1.5):
                assert psi_integral(p, k, 0.0, b) == 0.0

    def test_order_zero_closed_form(self):
        alpha, b, x = 1.3, 0.7, 3.0
        p = LaguerreParams(alpha, 0)
        want = math.sqrt(2 * alpha) * (math.exp(b * x) - math.exp(-alpha * x)) / (b + alpha)
        assert psi_integral(p, 0, x, b) == pytest.approx(want, rel=1e-13)

    def test_matches_quadrature_spec_point(self):
        p = LaguerreParams(1.0, 5)
        val, _ = quad(lambda z: np.exp(-0.3 * (2.0 - z)) * laguerre_fn(p, 5, z), 0, 2.0)
        assert psi_integral(p, 5, 2.0, -0.3) == pytest.approx(val, abs=1e-9)

    @pytest.mark.parametrize("b", [-3.0, -1.0, -0.999999, 0.0, 0.2, 2.0])
    @pytest.mark.parametrize("k", [1, 7, 23, 64])
    def test_matches_quadrature_random_orders(self, b, k):
        alpha = 1.0
        p = LaguerreParams(alpha, k)
        x = 4.3
        val, _ = quad(
            lambda z: np.exp(b * (x - z)) * laguerre_fn(p, k, z), 0, x, limit=300
        )
        assert psi_integral(p, k, x, b) == pytest.approx(val, abs=2e-9 * max(1, abs(val)))

    def test_degenerate_b_near_minus_alpha(self):
        # |b + alpha| tiny: the backward branch avoids the 1/s cancellation
        p = LaguerreParams(1.0, 6)
        x = 2.5
        for b in (-1.0, -1.0 + 1e-9, -1.0 - 1e-9):
            val, _ = quad(lambda z: np.exp(b * (x - z)) * laguerre_fn(p, 6, z), 0, x)
            assert psi_integral(p, 6, x, b) == pytest.approx(val, abs=1e-10)

    def test_ode_property_by_finite_differences(self):
        # d/dx Psi(x;b) = b Psi(x;b) + phi(x)
        p = LaguerreParams(1.0, 10)
        h = 1e-6
        for b in (-2.0, 0.4):
            for x in (0.5, 2.0, 7.0):
                fd = (psi_integral(p, 10, x + h, b) - psi_integral(p, 10, x - h, b)) / (2 * h)
                want = b * psi_integral(p, 10, x, b) + laguerre_fn(p, 10, x)
                assert fd == pytest.approx(want, abs=1e-6 * max(1, abs(want)))

    def test_b_derivative_matches_fd(self):
        p = LaguerreParams(1.0, 9)
        x, b, h = 2.2, -0.8, 1e-6
        fd = (psi_integral_all(p, x, b + h) - psi_integral_all(p, x, b - h)) / (2 * h)
        got = psi_integral_db_all(p, x, b)
        assert got == pytest.approx(fd, abs=1e-8)


class TestLadder:
    @pytest.mark.parametrize("rate,alpha", [(0.3, 1.0), (2.5, 1.0), (1.0, 1.0), (0.05, 4.0)])
    def test_sourceless_forward_is_geometric(self, rate, alpha):
        # s = rate + alpha >= alpha keeps |(s - 2 alpha) / s| <= 1: forward-stable
        s, K = rate + alpha, 64
        y0 = np.array([1.0, -2.5, 3e-7])
        got = ladder(y0, np.zeros((K, 3)), s, 2.0 * alpha - s)
        k = np.arange(K + 1.0)[:, None]
        assert got == pytest.approx(y0 * ((s - 2.0 * alpha) / s) ** k, rel=1e-13, abs=0.0)
        # the closed Laguerre transform of e^{-rate x} is this ladder seeded at sqrt(2a)/s
        p = LaguerreParams(alpha, K)
        lag = ladder(p.sq2a / s, np.zeros(K), s, 2.0 * alpha - s)
        assert lag == pytest.approx(_lag_transform_exp(rate, p), rel=1e-13, abs=0.0)

    def test_empty_sources_return_the_seed_row(self):
        y0 = np.array([0.5, -1.25])
        got = ladder(y0, np.empty((0, 2)), 3.0, 1.0)
        assert got.shape == (1, 2) and np.array_equal(got[0], y0)


def _psi_panel_reference(p: LaguerreParams, x: np.ndarray, b: float) -> np.ndarray:
    """Psi_{alpha,0..K}(x; b) by 40-node Gauss-Legendre on unit panels of [0, x] in z."""
    u, w = np.polynomial.legendre.leggauss(40)
    out = np.empty((p.K + 1, len(x)))
    for i, xi in enumerate(x):
        edges = np.linspace(0.0, xi, max(1, math.ceil(xi)) + 1)
        half = 0.5 * np.diff(edges)[:, None]
        z = (edges[:-1, None] + half + half * u).ravel()
        weights = (half * w).ravel() * np.exp(b * (xi - z))
        out[:, i] = laguerre_fn_all(p, z) @ weights
    return out


class TestBackwardSweep:
    """The b < 0 sweep: its Gauss-Legendre seed sized to each x's offset window."""

    @pytest.mark.parametrize("b", [-1e10, -1e100, -1e300])
    def test_huge_decay_rate(self, b):
        # b Psi_0(x; b) = sqrt(2a) b (e^{bx} - e^{-ax}) / (b + a) -> -phi_0(x)
        p, x = LaguerreParams(1.0, 0), 1.0
        want = math.sqrt(2.0) * b * (math.exp(b * x) - math.exp(-x)) / (b + 1.0)
        assert b * psi_integral(p, 0, x, b) == pytest.approx(want, rel=1e-12, abs=0.0)
        assert want == pytest.approx(-laguerre_fn(p, 0, x), rel=2e-10)

    @pytest.mark.parametrize("K", [20, 40, 64])
    @pytest.mark.parametrize("b", [-1e-11, -0.01, -0.041, -0.143])
    def test_wide_windows(self, K, b):
        # a fixed 96 + K nodes left every order ~15% low at x = 1000, b = -0.01
        p, x = LaguerreParams(1.0, K), np.array([120.0, 314.0, 1000.0])
        want = _psi_panel_reference(p, x, b)
        assert np.max(np.abs(psi_integral_all(p, x, b) - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("K", [0, 5, 21, 64])
    @pytest.mark.parametrize("b", [-1e-12, -1.01e-12, -0.143, -0.5, -3.0, -30.0])
    def test_up_to_the_kernel_window(self, K, b):
        # x runs past 45/|b|, where the window stops growing, and |b| = 1e-12
        # is where the window stops being cut at all
        p = LaguerreParams(1.0, K)
        x = np.geomspace(0.01, min(1.5 * 45.0 / abs(b), 600.0), 15)
        want = _psi_panel_reference(p, x, b)
        assert np.max(np.abs(psi_integral_all(p, x, b) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_memory_does_not_grow_with_the_sweep(self):
        # the seed's quadrature is chunked: beyond the output itself, the
        # peak does not grow with the number of points
        p = LaguerreParams(1.0, 20)
        peaks, sizes = [], []
        for nz in (2_000, 20_000):
            z = np.linspace(0.01, 30.0, nz)
            tracemalloc.start()
            try:
                out = psi_integral_all(p, z, -0.143)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            sizes.append(out.nbytes)
        assert peaks[1] - peaks[0] < sizes[1], (peaks, sizes)


class TestProjection:
    def test_projects_basis_function_to_unit(self):
        p = LaguerreParams(1.0, 10)
        xs = np.linspace(0, 60, 24001)
        f = laguerre_fn_all(p, xs)[3]
        for k in range(8):
            got = project_grid(xs, f, p, k).value
            assert got == pytest.approx(1.0 if k == 3 else 0.0, abs=1e-6)

    def test_zero_function(self):
        p = LaguerreParams(1.0, 4)
        xs = np.linspace(0, 10, 101)
        res = project_grid(xs, np.zeros_like(xs), p, 2)
        assert res.value == 0.0 and res.tail_bound == 0.0

    def test_exponential_against_closed_form(self):
        # <e^{-x}, phi_{1,0}> = sqrt(2) * 1/2
        p = LaguerreParams(1.0, 0)
        xs = np.linspace(0, 50, 20001)
        got = project_grid(xs, np.exp(-xs), p, 0).value
        assert got == pytest.approx(math.sqrt(2) / 2, abs=1e-9)

    def test_tail_bound_reported(self):
        p = LaguerreParams(2.0, 0)
        xs = np.linspace(0, 5, 100)
        res = project_grid(xs, np.exp(-xs), p, 0, tail_mass=0.01)
        assert res.tail_bound == pytest.approx(math.sqrt(4.0) * 0.01)


class TestPartialSum:
    def test_unit_vector_reproduces_basis(self):
        p = LaguerreParams(1.0, 6)
        coeffs = np.zeros(7)
        coeffs[3] = 1.0
        xs = np.linspace(0, 8, 30)
        assert partial_sum(coeffs, p, xs) == pytest.approx(laguerre_fn_all(p, xs)[3])

    def test_zero_coeffs(self):
        p = LaguerreParams(1.0, 5)
        assert partial_sum(np.zeros(6), p, 2.0) == 0.0

    def test_reconstructs_exponential(self):
        # projections of e^{-x} up to K = 20 reconstruct it to 1e-3 sup on [0, 10]
        p = LaguerreParams(1.0, 20)
        xs = np.linspace(0, 60, 24001)
        f = np.exp(-xs)
        coeffs = np.array([project_grid(xs, f, p, k).value for k in range(21)])
        grid = np.linspace(0, 10, 101)
        err = np.max(np.abs(partial_sum(coeffs, p, grid) - np.exp(-grid)))
        assert err <= 1e-3

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, data):
        p = LaguerreParams(1.0, 8)
        a = data.draw(st.floats(-3, 3))
        u = np.array([data.draw(st.floats(-1, 1)) for _ in range(9)])
        v = np.array([data.draw(st.floats(-1, 1)) for _ in range(9)])
        x = data.draw(st.floats(0, 10))
        lhs = partial_sum(a * u + v, p, x)
        rhs = a * partial_sum(u, p, x) + partial_sum(v, p, x)
        assert lhs == pytest.approx(rhs, abs=1e-14 * max(1.0, abs(rhs)) * 100)
