"""Laguerre polynomials, basis functions, convolution integrals, projections."""

from __future__ import annotations

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import comb, factorial

from qscale import laguerre as laguerre_mod
from qscale import series as series_mod
from qscale.laguerre import (
    LaguerreParams,
    ladder,
    laguerre_fn_all,
    psi_integral_all,
    psi_integral_db_all,
    t_multiplier,
    weighted_laguerre_all,
)


def laguerre_rows(kmax: int, t, m0) -> list:
    """m0 L_k(t) for k = 0..kmax by (k+1) L_{k+1} = (2k+1-t) L_k - k L_{k-1}, a new array a row."""
    rows = [m0, (1.0 - t) * m0][: kmax + 1]
    for k in range(1, kmax):
        rows.append(((2 * k + 1 - t) * rows[k] - k * rows[k - 1]) / (k + 1))
    return rows


def laguerre_poly(k: int, x):
    """L_k(x): the last row of the three-term recurrence."""
    return laguerre_rows(k, x, 1.0)[-1]


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


# scalar, 1-d and 2-d x, each holding 0, 1e-300 and 400
_ROW_XS = [
    0.0,
    1e-300,
    400.0,
    np.array([0.0, 1e-300, 2.5, 400.0]),
    np.array([[0.0, 1e-300, 17.0], [0.3, 150.0, 400.0]]),
]


class TestWeightedLaguerreAll:
    @pytest.mark.parametrize("K", [0, 1, 2, 20, 65, 257])
    @pytest.mark.parametrize("alpha", [0.7, 1.0])
    def test_rows_are_the_reference_recurrence_bit_for_bit(self, K, alpha):
        rng = np.random.default_rng(K)
        for x in [*_ROW_XS, rng.uniform(0.0, 400.0, 200)]:
            x = np.asarray(x)
            got = weighted_laguerre_all(K, alpha, x)
            want = np.array(laguerre_rows(K, 2.0 * alpha * x, np.exp(-alpha * x)))
            assert got.shape == want.shape == (K + 1,) + x.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("K", [0, 1, 2, 20, 65, 257])
    @pytest.mark.parametrize("alpha", [0.7, 1.0])
    def test_every_row_is_one_at_the_origin(self, K, alpha):
        # W(0) = 0 at D > 0 rests on these exact ones
        assert np.all(weighted_laguerre_all(K, alpha, 0.0) == 1.0)
        assert np.all(weighted_laguerre_all(K, alpha, np.zeros((2, 3))) == 1.0)


class TestTMultiplier:
    @pytest.mark.parametrize("n", [0, 1, 2, 20, 64, 65, 257])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_multiplies_the_rows_by_t(self, n, alpha):
        # Z^T M_{0..n}(x) = 2 alpha x M_{0..n-1}(x); a row of Z^T weights three
        # rows of M by at most 4n+2 in all, which sets the rounding scale
        Z = t_multiplier(n)
        assert Z.shape == (n + 1, n) and not Z.flags.writeable
        assert t_multiplier(n) is Z
        rng = np.random.default_rng(n)
        x = np.concatenate([[0.0, 1e-300, 400.0], rng.uniform(0.0, (4 * n + 2) / alpha, 200)])
        M = weighted_laguerre_all(n, alpha, x)
        err = np.max(np.abs(Z.T @ M - 2.0 * alpha * x * M[:-1]), initial=0.0)
        assert err <= 2.0 * np.finfo(float).eps * (4 * n + 2) * np.max(np.abs(M))


class TestLaguerreFn:
    def test_value_at_zero_any_order(self):
        p = LaguerreParams(alpha=0.8, K=12)
        for k in range(13):
            assert laguerre_fn_all(p, 0.0)[k] == pytest.approx(math.sqrt(1.6), rel=1e-14)

    @given(
        k=st.integers(0, 64),
        x=st.floats(0.0, 100.0),
        alpha=st.sampled_from([0.5, 1.0, 2.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_uniform_bound(self, k, x, alpha):
        p = LaguerreParams(alpha=alpha, K=k)
        assert abs(laguerre_fn_all(p, x)[k]) <= math.sqrt(2 * alpha) * (1 + 1e-12)

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
                assert psi_integral_all(p, 0.0, b)[k] == 0.0

    def test_order_zero_closed_form(self):
        alpha, b, x = 1.3, 0.7, 3.0
        p = LaguerreParams(alpha, 0)
        want = math.sqrt(2 * alpha) * (math.exp(b * x) - math.exp(-alpha * x)) / (b + alpha)
        assert psi_integral_all(p, x, b)[0] == pytest.approx(want, rel=1e-13)

    def test_matches_quadrature_spec_point(self):
        p = LaguerreParams(1.0, 5)
        val, _ = quad(lambda z: np.exp(-0.3 * (2.0 - z)) * laguerre_fn_all(p, z)[5], 0, 2.0)
        assert psi_integral_all(p, 2.0, -0.3)[5] == pytest.approx(val, abs=1e-9)

    @pytest.mark.parametrize("b", [-3.0, -1.0, -0.999999, 0.0, 0.2, 2.0])
    @pytest.mark.parametrize("k", [1, 7, 23, 64])
    def test_matches_quadrature_random_orders(self, b, k):
        alpha = 1.0
        p = LaguerreParams(alpha, k)
        x = 4.3
        val, _ = quad(
            lambda z: np.exp(b * (x - z)) * laguerre_fn_all(p, z)[k], 0, x, limit=300
        )
        assert psi_integral_all(p, x, b)[k] == pytest.approx(val, abs=2e-9 * max(1, abs(val)))

    def test_degenerate_b_near_minus_alpha(self):
        # |b + alpha| tiny: the backward branch avoids the 1/s cancellation
        p = LaguerreParams(1.0, 6)
        x = 2.5
        for b in (-1.0, -1.0 + 1e-9, -1.0 - 1e-9):
            val, _ = quad(lambda z: np.exp(b * (x - z)) * laguerre_fn_all(p, z)[6], 0, x)
            assert psi_integral_all(p, x, b)[6] == pytest.approx(val, abs=1e-10)

    def test_ode_property_by_finite_differences(self):
        # d/dx Psi(x;b) = b Psi(x;b) + phi(x)
        p = LaguerreParams(1.0, 10)
        h = 1e-6
        for b in (-2.0, 0.4):
            for x in (0.5, 2.0, 7.0):
                up, down = psi_integral_all(p, x + h, b)[10], psi_integral_all(p, x - h, b)[10]
                fd = (up - down) / (2 * h)
                want = b * psi_integral_all(p, x, b)[10] + laguerre_fn_all(p, x)[10]
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
        # the closed Laguerre transform of e^{-rate x}, sqrt(2a)/s ((s - 2a)/s)^k,
        # is this ladder seeded at sqrt(2a)/s
        p = LaguerreParams(alpha, K)
        lag = ladder(p.sq2a / s, np.zeros(K), s, 2.0 * alpha - s)
        want = p.sq2a / s * ((s - 2.0 * alpha) / s) ** np.arange(K + 1)
        assert lag == pytest.approx(want, rel=1e-13, abs=0.0)

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


def _exp_sample() -> np.ndarray:
    """1,560 Exp(1) jump sizes, about the jumps of one T = 1600 replication."""
    return np.random.default_rng(20).exponential(1.0, 1560)


def _top_order_reference(K: int, alpha: float, b: float, x: float) -> float:
    """J_K(x; b) = int_0^x e^{b(x-z)} L_K(2 alpha z) e^{-alpha z} dz to 40 digits.

    L_K(2 alpha z) = sum_j C(K, j) (-2 alpha z)^j / j!, and with s = alpha + b
    int_0^x z^j e^{-s z} dz = gamma(j+1, s x) / s^(j+1), the lower incomplete
    gamma function, taken in its Kummer form x^(j+1) M(j+1, j+2, -s x) / (j+1)
    so that any sign of s works.  The alternating sum cancels by up to
    L_K(-2 alpha x) e^{max(0, -s x)} (1e18 at K = 65 on the Exp(1) sample,
    1e215 at K = 256, x = 120), so it runs at 40 digits more than that, and
    at least 60.
    """
    with mpmath.workdps(15):
        lost = mpmath.log10(mpmath.laguerre(K, 0, -2 * alpha * x)) + max(0.0, -(alpha + b) * x) / math.log(10)
    with mpmath.workdps(max(60, int(lost) + 40)):
        x, a = mpmath.mpf(x), mpmath.mpf(alpha)
        s = a + mpmath.mpf(b)
        terms = (
            mpmath.binomial(K, j) * (-2 * a) ** j / mpmath.factorial(j)
            * x ** (j + 1) / (j + 1) * mpmath.hyp1f1(j + 1, j + 2, -s * x)
            for j in range(K + 1)
        )
        return float(mpmath.exp(mpmath.mpf(b) * x) * mpmath.fsum(terms))


class TestBackwardSweep:
    """The b < 0 sweep: one seed carried across the sorted x, one panel at a time."""

    @pytest.mark.parametrize("b", [-1e10, -1e100, -1e300])
    def test_huge_decay_rate(self, b):
        # b Psi_0(x; b) = sqrt(2a) b (e^{bx} - e^{-ax}) / (b + a) -> -phi_0(x)
        p, x = LaguerreParams(1.0, 0), 1.0
        want = math.sqrt(2.0) * b * (math.exp(b * x) - math.exp(-x)) / (b + 1.0)
        assert b * psi_integral_all(p, x, b)[0] == pytest.approx(want, rel=1e-12, abs=0.0)
        assert want == pytest.approx(-laguerre_fn_all(p, x)[0], rel=2e-10)

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

    @pytest.mark.parametrize("K,b", [(21, -0.143), (21, -3.143), (65, -0.143)])
    def test_top_order_against_mpmath(self, K, b):
        # the top order is the seed itself: every panel of the sample feeds it
        p, x = LaguerreParams(1.0, K), _exp_sample()
        got = psi_integral_all(p, x, b)[K] / p.sq2a
        at = np.argsort(x)[np.linspace(0, len(x) - 1, 14).astype(int)]
        want = np.array([_top_order_reference(K, 1.0, b, xi) for xi in x[at]])
        assert np.max(np.abs(got[at] - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    @pytest.mark.parametrize("K,tol", [(21, 5e-15), (64, 5e-14)])
    @pytest.mark.parametrize("b", [-0.143, -3.15])
    def test_top_order_off_unit_alpha(self, alpha, K, tol, b):
        # the Exp(1) sample's panels and two points beyond the seed rule's
        # reach, where the panels split at stations (measured at most 1.6e-15
        # at K = 21 and 1.7e-14 at K = 64)
        p = LaguerreParams(alpha, K)
        x = np.concatenate([_exp_sample(), [30.0, 120.0]])
        got = psi_integral_all(p, x, b)[K] / p.sq2a
        at = np.append(np.argsort(x[:-2])[np.linspace(0, len(x) - 3, 8).astype(int)], [-2, -1])
        want = np.array([_top_order_reference(K, alpha, b, xi) for xi in x[at]])
        assert np.max(np.abs(got[at] - want)) <= tol * np.max(np.abs(want))

    @pytest.mark.parametrize("K,tol", [(20, 1e-14), (64, 5e-14), (256, 5e-13)])
    @pytest.mark.parametrize("b", [-0.143, -3.15])
    def test_top_order_across_auxiliary_stations(self, K, tol, b):
        # every gap is longer than the seed rule's reach, so each panel is
        # split at stations; the sup of |J_K| is 0.01-0.06 here against an
        # integrand bounded by 1, which sets the tolerance's growth with K
        # (the Gauss-Legendre seed was off by 9e-14, 3e-13 and 8e-13)
        p, x = LaguerreParams(1.0, K), np.array([0.5, 7.0, 30.0, 120.0])
        got = psi_integral_all(p, x, b)[K] / p.sq2a
        want = np.array([_top_order_reference(K, 1.0, b, xi) for xi in x])
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))

    @pytest.mark.parametrize("K", [20, 40, 64])
    @pytest.mark.parametrize("b", [-3.15, -5.2])
    def test_top_order_on_the_benchmark_grid(self, K, b):
        # the atoms b = -beta of the benchmark's curves, on its 201-point grid
        p, x = LaguerreParams(1.0, K), np.linspace(0.0, 10.0, 201)
        got = psi_integral_all(p, x, b)[K] / p.sq2a
        at = np.arange(0, 201, 8)
        want = np.array([_top_order_reference(K, 1.0, b, xi) for xi in x[at]])
        assert np.max(np.abs(got[at] - want)) <= 1e-14 * np.max(np.abs(want))

    def test_shuffled_x_give_the_same_bits(self):
        p = LaguerreParams(1.0, 21)
        x = np.concatenate([_exp_sample()[:300], [0.0, 0.0, 2.5, 2.5], _exp_sample()[:40]])
        perm = np.random.default_rng(7).permutation(len(x))
        want = psi_integral_all(p, x, -0.143)
        got = np.empty_like(want)
        got[:, perm] = psi_integral_all(p, x[perm], -0.143)
        assert np.array_equal(got, want)

    def test_non_finite_x_leave_the_other_columns_alone(self):
        p, x = LaguerreParams(1.0, 21), _exp_sample()[:300]
        want = psi_integral_all(p, x, -0.143)
        # NaN and +inf sort last, so the finite x keep their bits
        with np.errstate(invalid="ignore"):
            got = psi_integral_all(p, np.insert(x, [100, 200], [np.nan, np.inf]), -0.143)
        assert np.all(np.isnan(got[:, [100, 201]]))
        assert np.array_equal(np.delete(got, [100, 201], axis=1), want)
        # -inf sorts first and shifts the scan's rounding by one place
        with np.errstate(invalid="ignore", over="ignore"):
            got = psi_integral_all(p, np.insert(x, 100, -np.inf), -0.143)
        got = np.delete(got, 100, axis=1)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("b", [-0.143, -1e300])
    def test_empty_and_zero_x(self, b):
        p = LaguerreParams(1.0, 21)
        assert psi_integral_all(p, np.empty(0), b).shape == (22, 0)
        assert np.array_equal(psi_integral_all(p, 0.0, b), np.zeros(22))
        assert np.array_equal(psi_integral_all(p, np.zeros(3), b), np.zeros((22, 3)))

    def test_many_chunks_agree_with_one(self, monkeypatch):
        p, x = LaguerreParams(1.0, 21), _exp_sample()
        want = psi_integral_all(p, x, -0.143)
        # about five x a chunk: the seed crosses some 300 chunk boundaries
        monkeypatch.setattr(laguerre_mod, "_CHUNK_PAIRS", 150)
        got = psi_integral_all(p, x, -0.143)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_recurrence_runs_over_few_points(self, monkeypatch):
        # a seed of its own per x ran the recurrence over 41,240 points here
        points = []
        rows = laguerre_mod.weighted_laguerre_all

        def counted(kmax, alpha, x):
            points.append(np.size(x))
            return rows(kmax, alpha, x)

        monkeypatch.setattr(laguerre_mod, "weighted_laguerre_all", counted)
        monkeypatch.setattr(series_mod, "weighted_laguerre_all", counted)
        psi_integral_all(LaguerreParams(1.0, 21), _exp_sample(), -0.143)
        assert sum(points) <= 2_000, points


class TestPartialSum:
    def test_unit_vector_reproduces_basis(self):
        p = LaguerreParams(1.0, 6)
        coeffs = np.zeros(7)
        coeffs[3] = 1.0
        xs = np.linspace(0, 8, 30)
        phi = laguerre_fn_all(p, xs)
        assert np.tensordot(coeffs, phi, 1) == pytest.approx(phi[3])

    def test_zero_coeffs(self):
        p = LaguerreParams(1.0, 5)
        assert np.tensordot(np.zeros(6), laguerre_fn_all(p, 2.0), 1) == 0.0

    def test_reconstructs_exponential(self):
        # <e^{-x}, phi_{alpha,k}> = sqrt(2 alpha) (1 - alpha)^k / (1 + alpha)^(k+1),
        # ratio 1/3 at alpha = 1/2: orders 0..20 leave a tail near 3^-21 = 1e-10
        # (measured 9.6e-11 on [0, 10])
        p = LaguerreParams(0.5, 20)
        k = np.arange(21)
        coeffs = p.sq2a * (1.0 - p.alpha) ** k / (1.0 + p.alpha) ** (k + 1)
        grid = np.linspace(0, 10, 101)
        err = np.max(np.abs(np.tensordot(coeffs, laguerre_fn_all(p, grid), 1) - np.exp(-grid)))
        assert err <= 1e-9

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, data):
        p = LaguerreParams(1.0, 8)
        a = data.draw(st.floats(-3, 3))
        u = np.array([data.draw(st.floats(-1, 1)) for _ in range(9)])
        v = np.array([data.draw(st.floats(-1, 1)) for _ in range(9)])
        x = data.draw(st.floats(0, 10))
        phi = laguerre_fn_all(p, x)
        lhs = np.tensordot(a * u + v, phi, 1)
        rhs = a * np.tensordot(u, phi, 1) + np.tensordot(v, phi, 1)
        assert lhs == pytest.approx(rhs, abs=1e-14 * max(1.0, abs(rhs)) * 100)
