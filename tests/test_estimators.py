"""Estimator pipeline: D_hat, nu_hat, gamma_hat, coefficients, covariance."""

from __future__ import annotations

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from qscale.exceptions import DegenerateEstimateError
from qscale.laguerre import LaguerreParams
from qscale.levy import (
    CompoundPoissonExponential,
    LevyModel,
    NoJumps,
    convex_root,
    laplace_exponent_deriv,
    lundberg_exponent,
)
from qscale.oracles import h_functionals_per_jump, nu_functional_exact
from qscale.series import ScaleApprox, build_Af, build_B, coeffs_true, kernels, scale_approx
from qscale.simulate import (
    JumpSample, ObservationSet, SamplingScheme, make_scheme, simulate, simulate_window,
)
from qscale.estimators import (
    _Z_LEVEL,
    LEVEL,
    PipelineEstimates,
    build_report,
    covariance_machinery,
    empirical_psi,
    empirical_psi_deriv,
    estimate_D,
    estimate_coeffs,
    estimate_gamma,
    realized_D,
    report_from_true_model,
)


def nu_hat(obs: ObservationSet, H):
    """Threshold estimator (1/T) * sum_{jumps} H(size) over the whole window."""
    if len(obs.jump_sizes) == 0:
        probe = np.asarray(H(np.asarray([1.0])), dtype=float)
        return np.zeros(probe.shape[:-1]) if probe.ndim > 1 else 0.0
    vals = np.asarray(H(obs.jump_sizes), dtype=float)
    return vals.sum(axis=-1) / obs.scheme.T


def htilde(c, theta, params, z, psi_prime):
    """The influence kernels (H^f, H^F, H_p, H_gamma) stacked row by row, (2K+4, nz)."""
    H_p, H_f, H_F = h_functionals_per_jump(c, theta.D, theta.gamma, params, z)[0]
    H_gamma = -np.expm1(-theta.gamma * z) / psi_prime
    return np.vstack([H_f, H_F, H_p, H_gamma])


def population_covariance(model: LevyModel, params: LaguerreParams) -> np.ndarray:
    """Sigma_K at the true parameters: nu of the outer products of Htilde, by quadrature."""
    theta = model.theta0()
    psi_prime = laplace_exponent_deriv(model, theta.gamma)

    def outer(z):
        h = htilde(model.c, theta, params, z, psi_prime)
        return h[:, None, :] * h[None, :, :]

    return nu_functional_exact(model, outer, rtol=1e-9)


def _assert_factored_matches_stack(est: PipelineEstimates, sample: JumpSample, c: float):
    """a^f, a^F, p_hat, Sigma_hat and Gamma_hat's column within 1e-14 of sup
    of the same blocks from the per-jump kernel stack."""
    th, params, z, T = est.theta, est.coeffs.params, sample.jump_sizes, sample.scheme.T
    n = params.K + 1
    psi_prime = empirical_psi_deriv(sample, c, th.D, th.gamma)
    Htilde = htilde(c, th, params, z, psi_prime)
    nu = Htilde[:-1].sum(axis=1) / T
    d_p, d_f, d_F = h_functionals_per_jump(c, th.D, th.gamma, params, z)[1]
    pairs = [
        (est.coeffs.a_f, nu[:n]),
        (est.coeffs.a_F, nu[n:-1]),
        (est.p, nu[-1]),
        (est.Sigma, Htilde @ Htilde.T / T),
        (est.Gamma[:-1, -1], np.vstack([d_f, d_F, d_p]).sum(axis=1) / T),
    ]
    for got, want in pairs:
        err = np.max(np.abs(got - want), initial=0.0)
        assert err <= 1e-14 * np.max(np.abs(want), initial=0.0)


def _sample(sizes) -> JumpSample:
    """The jump sizes at times spread over [1, 99] of a T = 100 scheme."""
    scheme = SamplingScheme(n=100, delta=1.0, eps=1e-3)
    return JumpSample(np.linspace(1.0, 99.0, len(sizes)), np.array(sizes, dtype=float), scheme, 0)


@st.composite
def _jump_samples(draw):
    """Up to 30 jump sizes in [0.01, 3] over T = 100, and up to 10 repeats of
    them: sum(z) / T <= 1.2, below the premium rate c = 1.5 used with them."""
    sizes = draw(st.lists(st.floats(0.01, 3.0), max_size=30))
    if sizes:
        sizes += draw(st.lists(st.sampled_from(sizes), max_size=10))
    return _sample(sizes)


def _window_sample(model: LevyModel, T: float = 100.0, seed: int = 21):
    """A replication's jumps on [0, T] and its D_hat over the whole window."""
    sample, sum_sq = simulate_window(model, make_scheme(T), seed, T)
    return sample, realized_D(sample, sum_sq, T)


def _estimates(obs: ObservationSet, q: float, c: float, params: LaguerreParams):
    """estimate_coeffs at the sample's own D_hat (window [0, 1]) and gamma_hat."""
    D_hat = estimate_D(obs)
    gamma_hat = estimate_gamma(obs, q, D_hat, c)
    return estimate_coeffs(obs, c, params, D_hat=D_hat, gamma_hat=gamma_hat)


def _obs_from_path(grid, delta, jump_times, jump_sizes, eps=1e-6, seed=0):
    scheme = SamplingScheme(n=len(grid) - 1, delta=delta, eps=eps)
    return ObservationSet(
        grid=np.asarray(grid, dtype=float),
        jump_times=np.asarray(jump_times, dtype=float),
        jump_sizes=np.asarray(jump_sizes, dtype=float),
        scheme=scheme,
        seed=seed,
    )


class TestEstimateD:
    def test_deterministic_drift(self):
        # X = c t, no jumps: D_hat = c^2 delta / 2 summed over the window
        delta, c = 0.01, 1.0
        grid = c * np.arange(101) * delta
        obs = _obs_from_path(grid, delta, [], [])
        assert estimate_D(obs) == pytest.approx(0.005)

    def test_single_jump_netting(self):
        # flat grid except one jump of size J: jump increment nets out
        delta, J = 0.01, 2.0
        grid = np.zeros(101)
        grid[50:] = -J
        obs = _obs_from_path(grid, delta, [0.495], [J])
        assert estimate_D(obs) == pytest.approx((J**2 - J**2) / 2.0, abs=1e-12)

    def test_jump_outside_window_ignored(self):
        delta, J = 0.01, 2.0
        grid = np.zeros(301)
        grid[150:] = -J
        obs = _obs_from_path(grid, delta, [1.495], [J])
        # window [0, 1] sees neither the increment nor the recorded jump
        assert estimate_D(obs, window=1.0) == pytest.approx(0.0)
        # window [0, 3] sees both and they net out
        assert estimate_D(obs, window=3.0) == pytest.approx(0.0, abs=1e-12)

    def test_scale_equivariance(self, exp_jump_model):
        obs = simulate(exp_jump_model, make_scheme(50.0), seed=4)
        u = 3.0
        scaled = ObservationSet(
            grid=u * obs.grid,
            jump_times=obs.jump_times,
            jump_sizes=u * obs.jump_sizes,
            scheme=obs.scheme,
            seed=obs.seed,
        )
        assert estimate_D(scaled) == pytest.approx(u * u * estimate_D(obs), rel=1e-12)

    def test_brownian_monte_carlo_mean(self):
        # D = 0.5: mean of D_hat over seeds within 3 standard errors
        m = LevyModel(x0=0, c=0.0, D=0.5, jumps=NoJumps(), q=0.0)
        s = SamplingScheme(n=1000, delta=1e-3, eps=0.1)
        vals = [estimate_D(simulate(m, s, seed=seed)) for seed in range(500)]
        mean, se = np.mean(vals), np.std(vals, ddof=1) / np.sqrt(len(vals))
        assert abs(mean - 0.5) <= 3 * se


class TestNuHat:
    def test_no_jumps_zero(self, brownian_model):
        obs = simulate(brownian_model, make_scheme(10.0), seed=0)
        assert nu_hat(obs, lambda z: z * z) == 0.0

    def test_single_jump(self):
        obs = _obs_from_path(np.zeros(101), 0.01, [0.5], [2.0])
        assert nu_hat(obs, lambda z: z * z) == pytest.approx(4.0)

    def test_exponential_mean_monte_carlo(self):
        lam, mu = 1.0, 1.0
        m = LevyModel(x0=0, c=1.5, D=0.0, jumps=CompoundPoissonExponential(lam, 1 / mu), q=0.0)
        s = SamplingScheme(n=5000, delta=0.01, eps=1e-9)
        vals = [nu_hat(simulate(m, s, seed=seed), lambda z: z) for seed in range(500)]
        mean, se = np.mean(vals), np.std(vals, ddof=1) / np.sqrt(len(vals))
        assert abs(mean - lam / mu) <= 3 * se


class TestEstimateGamma:
    def test_zero_at_q_zero(self, exp_jump_model):
        obs = simulate(exp_jump_model, make_scheme(50.0), seed=1)
        assert estimate_gamma(obs, 0.0, 0.5, 1.5) == 0.0

    def test_brownian_reduction(self, brownian_model):
        # no jumps, D_hat = D: the root is the Brownian Phi(q)
        obs = simulate(brownian_model, make_scheme(20.0), seed=2)
        got = estimate_gamma(obs, 0.1, 0.5, 1.5)
        want = lundberg_exponent(brownian_model, 0.1)
        assert got == pytest.approx(want, abs=1e-8)

    def test_root_far_past_psi_minimum(self):
        # c = 0.3 < nu_hat(z): psi_hat dips to -0.46 at 20 q / c = 6.67 and
        # only then climbs to q; the closed-form bracket still holds the root
        model = LevyModel(x0=0.0, c=0.3, D=0.0, jumps=CompoundPoissonExponential(3.0, 1.0), q=0.1)
        obs = simulate(model, make_scheme(10.0), seed=2)
        assert empirical_psi(obs, 0.3, 0.0, 20.0 * 0.1 / 0.3) < 0.0
        got = estimate_gamma(obs, 0.1, 0.0, 0.3)
        assert got == pytest.approx(8.6117, abs=1e-4)
        slope = empirical_psi_deriv(obs, 0.3, 0.0, got)
        gap = empirical_psi(obs, 0.3, 0.0, got) - 0.1
        assert abs(gap) <= 2.0 * slope * (1e-14 + 8.9e-16 * got)

    @settings(max_examples=300, deadline=None)
    @given(
        # c and D stay off (0, 1e-3) in size, which keeps the root (about
        # (q + lambda_hat) / c at D = 0) inside the float range
        c=st.one_of(st.just(0.0), st.floats(-2.0, -1e-3), st.floats(1e-3, 2.0)),
        D=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
        q=st.floats(1e-3, 10.0),
        sizes=st.lists(st.floats(1e-3, 20.0), max_size=40),
    )
    def test_root_or_degenerate(self, c, D, q, sizes):
        # psi_hat >= D r^2 + c r - lambda_hat brackets the root unless D = 0
        # and c <= 0, where psi_hat <= 0 < q on [0, inf)
        scheme = SamplingScheme(n=1000, delta=0.01, eps=1e-4)
        z = np.asarray(sizes, dtype=float)
        sample = JumpSample(
            jump_times=np.linspace(0.0, scheme.T, len(z)), jump_sizes=z, scheme=scheme, seed=0
        )
        if D == 0.0 and c <= 0.0:
            with pytest.raises(DegenerateEstimateError):
                estimate_gamma(sample, q, D, c)
            return
        got = estimate_gamma(sample, q, D, c)
        slope = empirical_psi_deriv(sample, c, D, got)
        assert slope > 0.0
        gap = empirical_psi(sample, c, D, got) - q
        assert abs(gap) <= 2.0 * slope * (1e-14 + 8.9e-16 * got)
        # p_hat = nu_hat(1 - e^{-gamma z}) / (gamma (c + D gamma)), so at a root
        # p_hat = 1 - q / (gamma (c + D gamma)) < 1.  Off the exact root the two
        # differ by gap / (gamma (c + D gamma)); for c < 0 both sides round
        # c + D gamma, to a relative eps (|c| + D gamma) / (c + D gamma)
        H_p = h_functionals_per_jump(c, D, got, LaguerreParams(alpha=1.0, K=2), z)[0][0]
        slack = got * (c + D * got)
        cond = (abs(c) + D * got) / (c + D * got)
        tol = 1e-12 + abs(gap) / slack + 16.0 * np.finfo(float).eps * cond
        assert H_p.sum() / scheme.T == pytest.approx(1.0 - q / slack, abs=tol)

    @pytest.mark.parametrize("c, D", [(0.5, 0.0), (0.5, 0.5), (0.3, 0.2)])
    def test_root_past_psi_minimum(self, exp_jump_model, c, D):
        # c < nu_hat(z): psi_hat first falls below 0, then crosses q once;
        # Newton's method from the bracket end r_max falls onto that root
        for seed in range(8):
            obs = simulate(exp_jump_model, make_scheme(30.0), seed=seed)
            assert c < np.sum(obs.jump_sizes) / obs.scheme.T
            got = estimate_gamma(obs, 0.1, D, c)
            slope = empirical_psi_deriv(obs, c, D, got)
            assert slope > 0.0
            gap = empirical_psi(obs, c, D, got) - 0.1
            assert abs(gap) <= 2.0 * slope * (1e-14 + 8.9e-16 * got)

    @pytest.mark.parametrize(
        "c, D", [(1.5, 0.5), (0.5, 0.5), (0.5, 0.0)],
        ids=["c>nu_hat(z)", "c<=nu_hat(z),D>0", "c<=nu_hat(z),D=0"],
    )
    def test_bracket_end_holds_the_root(self, exp_jump_model, monkeypatch, c, D):
        # Newton starts from an end with psi_hat > q; for c > nu_hat(z) that is
        # the end of psi_hat >= D r^2 + (c - nu_hat(z)) r, below 2 q / (c - nu_hat(z))
        import qscale.estimators as estimators_mod

        ends = []

        def spy(f, df, hi):
            ends.append(hi)
            return convex_root(f, df, hi)

        monkeypatch.setattr(estimators_mod, "convex_root", spy)
        obs = simulate(exp_jump_model, make_scheme(30.0), seed=0)
        nu_z = np.sum(obs.jump_sizes) / obs.scheme.T
        assert (c > nu_z) == (c == 1.5)
        for q in (2.0, 0.1, 1e-8):
            estimate_gamma(obs, q, D, c)
            assert empirical_psi(obs, c, D, ends[-1]) > q
            if c > nu_z:
                assert ends[-1] <= 2.0 * q / (c - nu_z)

    @pytest.mark.parametrize("q", [0.1, 1e-8, 1e-12])
    def test_full_relative_accuracy_at_small_q(self, exp_jump_model, q):
        # gamma_hat ~ q / psi_hat'(0) shrinks with q; an absolute tolerance
        # would leave it 1e-8 off relative at q = 1e-8
        sample, D_hat = _window_sample(exp_jump_model, T=400.0)
        got = estimate_gamma(sample, q, D_hat, exp_jump_model.c)
        with mpmath.workdps(50):
            z = [mpmath.mpf(float(v)) for v in sample.jump_sizes]
            c, D, T = exp_jump_model.c, mpmath.mpf(max(D_hat, 0.0)), sample.scheme.T

            def psi_gap(r):
                return c * r + D * r * r + mpmath.fsum(mpmath.expm1(-r * zj) for zj in z) / T - q

            want = mpmath.findroot(psi_gap, mpmath.mpf(got))
            assert float(abs(got - want) / want) <= 1e-15

    @pytest.mark.parametrize("c", [1.5, 0.5], ids=["bracket", "bracket-past-minimum"])
    def test_releases_observation_without_gc(self, exp_jump_model, c):
        # no reference cycle may keep the observation (and its grid) alive
        import gc
        import weakref

        obs = simulate(exp_jump_model, make_scheme(50.0), seed=3)
        ref = weakref.ref(obs)
        gc.disable()
        try:
            estimate_gamma(obs, 0.1, 0.0, c)
            del obs
            assert ref() is None
        finally:
            gc.enable()

    def test_consistency_monte_carlo(self, exp_jump_model):
        gamma0 = lundberg_exponent(exp_jump_model, 0.1)
        s = make_scheme(400.0)
        vals = []
        for seed in range(60):
            obs = simulate(exp_jump_model, s, seed=seed)
            vals.append(estimate_gamma(obs, 0.1, estimate_D(obs), 1.5))
        mean, se = np.mean(vals), np.std(vals, ddof=1) / np.sqrt(len(vals))
        assert abs(mean - gamma0) <= 3 * se


class TestEstimateCoeffs:
    def test_no_jumps_all_zero(self, brownian_model, params20):
        obs = simulate(brownian_model, make_scheme(20.0), seed=5)
        est = _estimates(obs, 0.1, 1.5, params20)
        assert est.p == 0.0
        assert np.all(est.coeffs.a_G == 0.0)

    def test_single_atom_jump(self, params20):
        # one jump of size z* on [0, 1]: p_hat = H_p(z*; theta_hat) exactly
        zstar = 2.0
        grid = np.zeros(101)
        grid[50:] = -zstar
        obs = _obs_from_path(grid, 0.01, [0.495], [zstar])
        est = _estimates(obs, 0.1, 1.5, params20)
        th = est.theta
        H_p, H_f, H_F = h_functionals_per_jump(1.5, th.D, th.gamma, params20, np.array([zstar]))[0]
        assert est.p == pytest.approx(H_p[0], rel=1e-12)
        assert est.coeffs.a_f == pytest.approx(H_f[:, 0], rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        sample=_jump_samples(),
        K=st.sampled_from([0, 20, 64]),
        D_hat=st.sampled_from([-0.2, 0.0, 0.5]),
        q=st.sampled_from([0.0, 0.1]),
    )
    @example(sample=_sample([]), K=20, D_hat=0.5, q=0.1)
    @example(sample=_sample([0.4, 1.3, 1.3]), K=64, D_hat=0.0, q=0.0)
    def test_matches_empirical_transform(self, empirical_coeffs, sample, K, D_hat, q):
        # (p_hat, a^f_hat, a^F_hat) are the population coefficients of the
        # sample's empirical measure: the transform, with no kernel ladder.
        # One jump's kernels are O(1) numbers, each within 5.3e-14 of the
        # transform's for z in [0.01, 3]; when every jump is small the sup sits
        # far below the jump rate n / T, so the scale is the larger of the two
        c, params, z, T = 1.5, LaguerreParams(1.0, K), sample.jump_sizes, sample.scheme.T
        gamma_hat = estimate_gamma(sample, q, D_hat, c)
        est = estimate_coeffs(sample, c, params, D_hat=D_hat, gamma_hat=gamma_hat)
        want = empirical_coeffs(c, est.theta, params, z, T)
        got = (est.p, est.coeffs.a_f, est.coeffs.a_F)
        scale = max(len(z) / T, *(np.max(np.abs(w)) for w in want))
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-13 * scale

    def test_degenerate_p_raises(self, params20):
        # a huge atom forces p_hat >= 1
        grid = np.zeros(101)
        obs = _obs_from_path(grid, 0.01, [0.5] * 60, [50.0] * 60)
        with pytest.raises(DegenerateEstimateError):
            estimate_coeffs(obs, 1.5, params20, D_hat=0.5, gamma_hat=0.4)

    def test_consistency_monte_carlo(self, exp_jump_model, params20):
        cs0 = coeffs_true(exp_jump_model, params20)
        s = make_scheme(400.0)
        vals = []
        for seed in range(60):
            obs = simulate(exp_jump_model, s, seed=seed)
            vals.append(_estimates(obs, 0.1, 1.5, params20).p)
        mean, se = np.mean(vals), np.std(vals, ddof=1) / np.sqrt(len(vals))
        assert abs(mean - cs0.p) <= 3 * se


class TestEstimateW:
    def test_true_values_reproduce_eval(self, exp_jump_model, params20):
        est = PipelineEstimates.population(coeffs_true(exp_jump_model, params20))
        xs = np.linspace(0, 5, 11)
        approx = ScaleApprox(c=1.5, q=0.1, coeffs=est.coeffs)
        W, Z = approx.w(xs), approx.z(xs)
        ap = scale_approx(exp_jump_model, params20)
        assert W == pytest.approx(ap.w(xs), rel=0, abs=0)
        assert Z == pytest.approx(ap.z(xs), rel=0, abs=0)

    def test_no_jump_data_gives_brownian_form(self, brownian_model, params20):
        obs = simulate(brownian_model, make_scheme(20.0), seed=6)
        est = _estimates(obs, 0.1, 1.5, params20)
        xs = np.linspace(0, 5, 6)
        W = ScaleApprox(c=1.5, q=0.1, coeffs=est.coeffs).w(xs)
        D, g = est.theta.D, est.theta.gamma
        beta = 1.5 / D + g
        want = (np.exp(g * xs) - np.exp(-beta * xs)) / (D * (beta + g))
        assert W == pytest.approx(want, rel=1e-12)


def _gradient_cases(cs0):
    """(D, gamma) pairs for the gradient checks: D > 0 and D = 0, gamma = 0 and > 0."""
    return [(D, g) for D in (cs0.theta.D, 0.0) for g in (cs0.theta.gamma, 0.0)]


def _assert_curve_gradients_match_fd(cs0, starred: bool):
    """d/dp and d/dgamma of P - Q a^G (P* - Q* a^G when starred) at x = 2 from
    one ``kernels`` call with U = a^G against central differences of that call."""
    x, c, h = np.array([2.0]), 1.5, 1e-6
    for D, gamma in _gradient_cases(cs0):

        def curve(p, g):
            k = kernels(cs0.params, x, p, g, D, c, cs0.a_G[:, None], 1)
            P, Q = (k.Pstar, k.Qstar) if starred else (k.P, k.Q)
            return P.value[0] - Q.value[0, 0], P.d_gamma[0] - Q.d_gamma[0, 0]

        value, d_gamma = curve(cs0.p, gamma)
        dp_fd = (curve(cs0.p + h, gamma)[0] - curve(cs0.p - h, gamma)[0]) / (2 * h)
        dg_fd = (curve(cs0.p, gamma + h)[0] - curve(cs0.p, gamma - h)[0]) / (2 * h)
        assert value / (1.0 - cs0.p) == pytest.approx(dp_fd, rel=1e-6)
        assert d_gamma == pytest.approx(dg_fd, rel=1e-6)


class TestCovarianceMachinery:
    def test_no_jumps_degenerate(self, brownian_model, params20):
        obs = simulate(brownian_model, make_scheme(20.0), seed=7)
        rep = build_report(obs, 0.1, 1.5, params20, x=[1.0, 3.0], D_hat=estimate_D(obs))
        assert np.all(rep.est.Sigma == 0.0)
        assert rep.cov.W_lo == pytest.approx(rep.cov.W_hi)

    def test_intervals_at_level_95(self, exp_jump_model, params20):
        # bounds are value +/- ndtri(0.975) sqrt(var / T); the bounds are
        # compared, since W_hi - W_hat cancels up to 1e-12 of the half-width
        obs = simulate(exp_jump_model, make_scheme(100.0), seed=8)
        rep = build_report(obs, 0.1, 1.5, params20, x=[0.5, 1.0, 3.0], D_hat=estimate_D(obs))
        cov, zq = rep.cov, special.ndtri(0.975)
        for hat, lo, hi, var in ((cov.W_hat, cov.W_lo, cov.W_hi, cov.sigma_W),
                                 (cov.Z_hat, cov.Z_lo, cov.Z_hi, cov.sigma_Z)):
            hw = zq * np.sqrt(var / rep.est.T)
            assert np.all(hw > 1e-6 * np.abs(hat))  # a wrong level moves the bounds
            assert hi == pytest.approx(hat + hw, rel=1e-15, abs=0)
            assert lo == pytest.approx(hat - hw, rel=1e-15, abs=0)

    def test_level_quantile_is_the_normal_quantile(self):
        assert _Z_LEVEL == float(special.ndtri(0.5 + LEVEL / 2.0))

    def test_intervals_collapse_below_zero(self, exp_jump_model, params20):
        # W^(q) = 0 and Z^(q) = 1 on x < 0, known without sampling error
        obs = simulate(exp_jump_model, make_scheme(100.0), seed=8)
        x = [-np.inf, -1.0, -1e-300, 0.0, 1.0]
        rep = build_report(obs, 0.1, 1.5, params20, x=x, D_hat=estimate_D(obs))
        cov = rep.cov
        for bound in (cov.W_hat, cov.W_lo, cov.W_hi):
            assert np.array_equal(bound[:3], np.zeros(3))
        for bound in (cov.Z_hat, cov.Z_lo, cov.Z_hi):
            assert np.array_equal(bound[:3], np.ones(3))
        assert not np.any(cov.joint[:3])
        assert cov.W_lo[-1] < cov.W_hat[-1] < cov.W_hi[-1]

    def test_gamma_block_structure(self, exp_jump_model, params20):
        obs = simulate(exp_jump_model, make_scheme(100.0), seed=8)
        rep = build_report(obs, 0.1, 1.5, params20, x=[1.0], D_hat=estimate_D(obs))
        G = rep.est.Gamma
        d = 2 * params20.K + 4
        assert G.shape == (d, d)
        assert np.array_equal(G[: d - 1, : d - 1], np.eye(d - 1))
        assert G[d - 1, d - 1] == 1.0
        assert np.all(G[d - 1, : d - 1] == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        sample=_jump_samples(),
        K=st.sampled_from([0, 4, 20]),
        D_hat=st.sampled_from([-0.2, 0.0, 0.5]),
        q=st.sampled_from([0.0, 0.1]),
    )
    def test_variances_are_squared_norms(self, sample, K, D_hat, q):
        # sigma_W, sigma_Z >= +0.0 (no sign bit) and ordered bounds on any
        # sample, duplicates and fewer than K+2 jumps included; Sigma_hat's
        # numerical rank (eigenvalues above 1e-12 of the largest) is <= K+2
        rep = build_report(sample, q, 1.5, LaguerreParams(1.0, K), x=[0.0, 0.5, 3.0], D_hat=D_hat)
        cov = rep.cov
        for var in (cov.sigma_W, cov.sigma_Z):
            assert np.all(var >= 0.0) and not np.any(np.signbit(var))
        assert np.all(cov.W_lo <= cov.W_hat) and np.all(cov.W_hat <= cov.W_hi)
        assert np.all(cov.Z_lo <= cov.Z_hat) and np.all(cov.Z_hat <= cov.Z_hi)
        eigs = np.linalg.eigvalsh(rep.est.Sigma)
        assert np.sum(eigs > 1e-12 * eigs[-1]) <= K + 2
        # the chain applied through the kernel weights against C Gamma_hat F
        # formed from the identity-weight rows, C_K = [Q^T A^{-1} B,
        # (P - Q a^G) / (1 - p), d/dgamma (P - Q a^G)] and q C*_K likewise
        cs, th, GF = rep.est.coeffs, rep.est.theta, rep.est.Gamma @ rep.est.F
        rows = kernels(cs.params, cov.x, cs.p, th.gamma, th.D, 1.5, np.eye(K + 1), K + 1)
        AinvB = np.linalg.solve(build_Af(cs.a_f, 1.0), build_B(cs.a_G, 1.0))
        v, mag = [], []
        for P, Q, scale in ((rows.P, rows.Q, 1.0), (rows.Pstar, rows.Qstar, q)):
            C = scale * np.column_stack([
                Q.value.T @ AinvB,
                (P.value - cs.a_G @ Q.value) / (1.0 - cs.p),
                P.d_gamma - cs.a_G @ Q.d_gamma,
            ])
            v.append(C @ GF)
            mag.append(np.abs(C) @ np.abs(GF))
        v, mag = np.stack(v, axis=1), np.stack(mag, axis=1)
        # rounding scale |C| |Gamma_hat F| per factor; seen up to 4.3e-16 of it
        want, bound = v @ v.transpose(0, 2, 1), mag @ mag.transpose(0, 2, 1)
        assert np.all(np.abs(cov.joint - want) <= 1e-14 * bound)
        for var, i in ((cov.sigma_W, 0), (cov.sigma_Z, 1)):
            assert np.all(np.abs(var - want[:, i, i]) <= 1e-14 * bound[:, i, i])

    def test_joint_covariance_diagonal(self, exp_jump_model, params20):
        # the joint 2x2 blocks carry (sigma_K, sigma*_K) on the diagonal
        obs = simulate(exp_jump_model, make_scheme(100.0), seed=13)
        rep = build_report(obs, 0.1, 1.5, params20, x=[1.0, 3.0], D_hat=estimate_D(obs))
        joint = rep.cov.joint
        assert joint[:, 0, 0] == pytest.approx(rep.cov.sigma_W, rel=1e-12)
        assert joint[:, 1, 1] == pytest.approx(rep.cov.sigma_Z, rel=1e-12)
        assert joint[:, 0, 1] == pytest.approx(joint[:, 1, 0], rel=1e-12)

    def test_triangular_residual_on_estimates(self, exp_jump_model, params20):
        obs = simulate(exp_jump_model, make_scheme(100.0), seed=10)
        est = _estimates(obs, 0.1, 1.5, params20)
        A = build_Af(est.coeffs.a_f, params20.alpha)
        resid = np.max(np.abs(A @ est.coeffs.a_G - est.coeffs.a_F))
        assert resid <= 1e-12 * max(1.0, np.max(np.abs(est.coeffs.a_F)))

    def test_plug_in_identity_oracle_mode(self, exp_jump_model):
        # population Sigma entries match nu_functional_exact of the products
        params = LaguerreParams(1.0, 4)
        Sigma = population_covariance(exp_jump_model, params)
        theta = exp_jump_model.theta0()
        psi_p = (
            exp_jump_model.c
            + 2 * exp_jump_model.D * theta.gamma
            - exp_jump_model.jumps.exp_moment(theta.gamma)
        )

        def component(i):
            def H(z):
                Hp, Hf, HF = h_functionals_per_jump(exp_jump_model.c, theta.D, theta.gamma, params, z)[0]
                Hg = -np.expm1(-theta.gamma * z) / psi_p  # note: minus k_gamma
                stack = np.vstack([Hf, HF, Hp[None, :], Hg[None, :]])
                return stack[i]

            return H

        # K = 4: rows 0-4 = H^f, 5-9 = H^F, 10 = H_p, 11 = gamma kernel
        for i, j in [(0, 0), (3, 7), (10, 10), (10, 11), (0, 11), (11, 11)]:
            want = nu_functional_exact(
                exp_jump_model, lambda z: component(i)(z) * component(j)(z)
            )
            assert Sigma[i, j] == pytest.approx(want, rel=1e-6, abs=1e-10)

    def test_v_gamma_matches_closed_form(self, exp_jump_model):
        # v0^2 = nu(k_gamma^2) / psi'(gamma)^2
        params = LaguerreParams(1.0, 2)
        Sigma = population_covariance(exp_jump_model, params)
        g = exp_jump_model.theta0().gamma
        nu_k2 = 1 / (1 + 2 * g) - 2 / (1 + g) + 1
        psi_p = 1.5 + 2 * 0.5 * g - 1.0 / (1 + g) ** 2
        assert Sigma[-1, -1] == pytest.approx(nu_k2 / psi_p**2, rel=1e-9)

    def test_gradient_rows_match_fd(self, exp_jump_model, params20):
        # the p and gamma entries of C_K: perturbing (p, gamma) in the kernel
        # call of covariance_machinery matches (P - Q a^G) / (1 - p) and its
        # d_gamma, for D > 0 and D = 0, at gamma = 0 and gamma > 0
        _assert_curve_gradients_match_fd(coeffs_true(exp_jump_model, params20), starred=False)

    def test_starred_gradients_match_fd(self, exp_jump_model, params20):
        _assert_curve_gradients_match_fd(coeffs_true(exp_jump_model, params20), starred=True)

    @pytest.mark.parametrize("model_name", ["exp_jump_model", "cramer_lundberg_model"])
    def test_one_kernel_sweep_per_exponent(self, model_name, params20, request, monkeypatch):
        # the x-side kernels and gradients take Psi at b = -beta (when D > 0)
        # from one backward seed and at b = gamma from the forward sources,
        # in that order; W_hat, Z_hat match the evaluators
        import qscale.series as series_mod

        model = request.getfixturevalue(model_name)
        cs0 = coeffs_true(model, params20)
        est = PipelineEstimates.population(cs0)
        x = np.linspace(0.0, 6.0, 7)
        bs = []

        def counting(sweep):
            def counted(rows, alpha, xx, b):
                if np.shape(xx) == x.shape and np.array_equal(xx, x):
                    bs.append(b)
                return sweep(rows, alpha, xx, b)

            return counted

        for name in ("forward_sources", "backward_seed"):
            monkeypatch.setattr(series_mod, name, counting(getattr(series_mod, name)))
        cov = covariance_machinery(est, model.c, model.q, x)
        theta = cs0.theta
        if theta.D > 0:
            assert bs == [-(model.c / theta.D + theta.gamma), theta.gamma]
        else:
            assert bs == [theta.gamma]
        approx = ScaleApprox(c=model.c, q=model.q, coeffs=cs0)
        assert np.array_equal(cov.W_hat, approx.w(x))
        assert np.array_equal(cov.Z_hat, approx.z(x))

    @pytest.mark.parametrize("model_name", ["exp_jump_model", "cramer_lundberg_model"])
    def test_jump_kernels_swept_once_per_replication(
        self, model_name, params20, request, monkeypatch
    ):
        # estimate_coeffs runs one Psi sweep over the jump sizes, and the
        # kernel map once, on the (K+2)-column identity (Gamma_hat's column
        # comes from the map's matrix); covariance_machinery applies neither
        import qscale.estimators as est_mod

        model = request.getfixturevalue(model_name)
        obs = simulate(model, make_scheme(50.0), seed=14)
        sweeps, maps = [], []
        orig_sweep, orig_map = est_mod.psi_integral_all, est_mod.h_functionals_at

        def counting_sweep(params, x, b, kmax=None):
            sweeps.append(len(np.atleast_1d(x)))
            return orig_sweep(params, x, b, kmax)

        def counting_map(c, D, gamma, params, psi, kg):
            maps.append(np.shape(kg))
            return orig_map(c, D, gamma, params, psi, kg)

        monkeypatch.setattr(est_mod, "psi_integral_all", counting_sweep)
        monkeypatch.setattr(est_mod, "h_functionals_at", counting_map)
        est = _estimates(obs, model.q, model.c, params20)
        assert sweeps == [len(obs.jump_sizes)]
        assert maps == [(params20.K + 2,)]
        sweeps.clear()
        maps.clear()
        covariance_machinery(est, model.c, model.q, np.array([1.0, 3.0]))
        assert sweeps == [] and maps == []
        _assert_factored_matches_stack(est, obs, model.c)

    def test_blocks_equal_separate_stacks_at_T1600(self, exp_jump_model):
        # the factored blocks against stacking the per-jump kernel values,
        # the gamma row and the gamma-derivatives separately
        params = LaguerreParams(1.0, 40)
        sample, sum_sq = simulate_window(exp_jump_model, make_scheme(1600.0), 3, 1600.0)
        D_hat = realized_D(sample, sum_sq, 1600.0)
        gamma_hat = estimate_gamma(sample, exp_jump_model.q, D_hat, exp_jump_model.c)
        est = estimate_coeffs(sample, exp_jump_model.c, params, D_hat=D_hat, gamma_hat=gamma_hat)
        assert len(sample.jump_sizes) > 1000
        _assert_factored_matches_stack(est, sample, exp_jump_model.c)
        assert np.array_equal(est.Gamma[:-1, :-1], np.eye(2 * params.K + 3))

    def test_gamma_column_matches_fd_of_kernels(self, exp_jump_model, params20):
        # the analytic column nu_hat(dH/dgamma) against a central difference
        obs = simulate(exp_jump_model, make_scheme(100.0), seed=15)
        est = _estimates(obs, 0.1, 1.5, params20)
        th, h, z = est.theta, 1e-6, obs.jump_sizes

        def nu_stack(gamma):
            Hp, Hf, HF = h_functionals_per_jump(1.5, th.D, gamma, params20, z)[0]
            return np.vstack([Hf, HF, Hp[None, :]]).sum(axis=1) / obs.scheme.T

        fd = (nu_stack(th.gamma + h) - nu_stack(th.gamma - h)) / (2 * h)
        col = est.Gamma[:-1, -1]
        assert np.max(np.abs(col - fd)) <= 1e-7 * np.max(np.abs(col))

    def test_build_B_linearizes_triangular_solve(self, exp_jump_model):
        # -A^{-1} B (delta_f, delta_F) reproduces the change in a^G
        from qscale.series import solve_aG
        from scipy.linalg import solve_triangular

        params = LaguerreParams(1.0, 6)
        cs0 = coeffs_true(exp_jump_model, params)
        A = build_Af(cs0.a_f, params.alpha)
        B = build_B(cs0.a_G, params.alpha)
        rng = np.random.default_rng(0)
        h = 1e-7
        df = rng.normal(size=params.K + 1) * h
        dF = rng.normal(size=params.K + 1) * h
        aG_pert = solve_aG(build_Af(cs0.a_f + df, params.alpha), cs0.a_F + dF)
        lin = -solve_triangular(A, B @ np.concatenate([df, dF]), lower=True)
        assert aG_pert - cs0.a_G == pytest.approx(lin, abs=1e-10)


class TestFactoredEstimates:
    """estimate_coeffs through Y = [Psi_{0..K}; kg] and Sigma_hat's (K+2)-column factor."""

    @pytest.mark.parametrize("K", [0, 20, 64])
    @pytest.mark.parametrize(
        "model_name",
        ["exp_jump_model", "cramer_lundberg_model", "cp_gamma_model", "gamma_sub_model"],
    )
    def test_matches_per_jump_stack(self, model_name, K, request):
        model = request.getfixturevalue(model_name)
        sample, D_hat = _window_sample(model)
        gamma_hat = estimate_gamma(sample, model.q, D_hat, model.c)
        params = LaguerreParams(1.0, K)
        est = estimate_coeffs(sample, model.c, params, D_hat=D_hat, gamma_hat=gamma_hat)
        assert est.F.shape == (2 * K + 4, K + 2)
        _assert_factored_matches_stack(est, sample, model.c)

    @pytest.mark.parametrize("K", [0, 20, 64])
    @pytest.mark.parametrize("case", ["D_hat=0", "q=0", "no jumps", "3 jumps"])
    def test_matches_per_jump_stack_at_the_edges(self, exp_jump_model, case, K):
        model = exp_jump_model
        if case in ("no jumps", "3 jumps"):
            sizes = np.array([] if case == "no jumps" else [0.4, 1.3, 1.3])
            scheme = SamplingScheme(n=100, delta=1.0, eps=1e-3)
            sample, D_hat = JumpSample(np.linspace(1.0, 3.0, len(sizes)), sizes, scheme, 0), 0.5
        else:
            sample, D_hat = _window_sample(model)
        if case == "D_hat=0":
            D_hat = 0.0
        q = 0.0 if case == "q=0" else model.q
        gamma_hat = estimate_gamma(sample, q, D_hat, model.c)
        params = LaguerreParams(1.0, K)
        est = estimate_coeffs(sample, model.c, params, D_hat=D_hat, gamma_hat=gamma_hat)
        assert est.F.shape == (2 * K + 4, min(len(sample.jump_sizes), K + 2))
        if q == 0.0:
            assert gamma_hat == 0.0 and not np.any(est.F[-1])  # H_gamma = 0
        _assert_factored_matches_stack(est, sample, model.c)

    def test_no_jump_axis_ladder_and_one_row_block(self, exp_jump_model, monkeypatch):
        # no ladder bound in series runs over the jumps, and once the Psi sweep
        # returns, estimate_coeffs allocates less than another (K+1) x #jumps
        # array: Y stays in the sweep's buffer, and the blocked QR copies at
        # most about a third of it at a time
        import tracemalloc

        import qscale.estimators as est_mod
        import qscale.series as series_mod

        params = LaguerreParams(1.0, 40)
        sample, D_hat = _window_sample(exp_jump_model, T=1600.0)
        nz = len(sample.jump_sizes)
        gamma_hat = estimate_gamma(sample, exp_jump_model.q, D_hat, exp_jump_model.c)
        shapes, held = [], []
        ladder, sweep = series_mod.ladder, est_mod.psi_integral_all

        def counted(y0, d, diag, off, out=None):
            shapes.append(np.shape(d))
            return ladder(y0, d, diag, off, out)

        def sweep_then_reset_peak(params, x, b, kmax=None):
            out = sweep(params, x, b, kmax)
            tracemalloc.reset_peak()
            held.append(tracemalloc.get_traced_memory()[0])
            return out

        monkeypatch.setattr(series_mod, "ladder", counted)
        monkeypatch.setattr(est_mod, "psi_integral_all", sweep_then_reset_peak)
        tracemalloc.start()
        try:
            estimate_coeffs(sample, exp_jump_model.c, params, D_hat=D_hat, gamma_hat=gamma_hat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert nz > 1000 and shapes and all(nz not in shape for shape in shapes), shapes
        assert len(held) == 1
        assert peak - held[0] < (params.K + 1) * nz * 8, (peak - held[0], nz)


class TestOracleModeReport:
    def test_reproduces_series_curves(self, exp_jump_model, params20):
        xs = np.linspace(0, 5, 21)
        rep = report_from_true_model(exp_jump_model, params20, xs)
        ap = scale_approx(exp_jump_model, params20)
        assert rep.cov.W_hat == pytest.approx(ap.w(xs), rel=0, abs=0)
        assert rep.cov.Z_hat == pytest.approx(ap.z(xs), rel=0, abs=0)
        assert rep.flags.get("oracle_mode") is True

    @pytest.mark.parametrize("model_name", ["exp_jump_model", "cramer_lundberg_model"])
    def test_zero_blocks(self, model_name, params20, request):
        # no sampling error: zero Sigma and joint covariances, identity Gamma,
        # and bounds equal to the curves bit for bit
        model = request.getfixturevalue(model_name)
        rep = report_from_true_model(model, params20, np.linspace(0, 5, 21))
        cov = rep.cov
        for block in (rep.est.Sigma, cov.joint, cov.sigma_W, cov.sigma_Z):
            assert np.all(block == 0.0) and not np.any(np.signbit(block))
        assert np.array_equal(rep.est.Gamma, np.eye(2 * params20.K + 4))
        for lo, mid, hi in ((cov.W_lo, cov.W_hat, cov.W_hi), (cov.Z_lo, cov.Z_hat, cov.Z_hi)):
            assert lo.tobytes() == mid.tobytes() == hi.tobytes()

    def test_one_kernel_evaluation(self, exp_jump_model, params20, monkeypatch):
        # one kernels call per report, contracted with a^G and the columns of
        # A^{-1} B (Gamma F)_{0..2K+1}: none in oracle mode, F's on a sample;
        # its gamma-derivatives are read of a^G, the first column, alone in
        # both modes (g = 1)
        import qscale.estimators as estimators_mod
        import qscale.series as series_mod

        widths, gs = [], []
        orig = series_mod.kernels

        def counting(params, x, p, gamma, D, c, U, g):
            widths.append(np.shape(U)[1])
            gs.append(g)
            return orig(params, x, p, gamma, D, c, U, g)

        for mod in (series_mod, estimators_mod):
            monkeypatch.setattr(mod, "kernels", counting)
        x = np.linspace(0, 5, 21)
        report_from_true_model(exp_jump_model, params20, x)
        assert widths == [1] and gs == [1]
        widths.clear()
        gs.clear()
        obs = simulate(exp_jump_model, make_scheme(100.0), seed=12)
        rep = build_report(obs, 0.1, 1.5, params20, x=x, D_hat=estimate_D(obs))
        assert widths == [1 + rep.est.F.shape[1]] and rep.est.F.shape[1] == params20.K + 2
        assert gs == [1]

    @pytest.mark.parametrize("oracle", [False, True], ids=["estimate", "oracle"])
    def test_covariance_keys(self, exp_jump_model, params20, oracle):
        # Sigma_hat = F F^T is PSD by construction, so no PSD check is reported
        if oracle:
            rep = report_from_true_model(exp_jump_model, params20, [1.0, 3.0])
        else:
            obs = simulate(exp_jump_model, make_scheme(100.0), seed=12)
            rep = build_report(obs, 0.1, 1.5, params20, x=[1.0, 3.0], D_hat=estimate_D(obs))
        d = rep.to_json_dict()
        assert set(d["covariance"]) == {"Sigma", "Gamma", "B"}
        assert "non_psd_sigma" not in d["flags"]

    def test_report_json_round_trips(self, exp_jump_model, params20, tmp_path):
        import json

        obs = simulate(exp_jump_model, make_scheme(100.0), seed=12)
        rep = build_report(obs, 0.1, 1.5, params20, x=[1.0, 3.0], D_hat=estimate_D(obs))
        rep.save_json(tmp_path / "report.json")
        d = json.loads((tmp_path / "report.json").read_text())
        assert d["estimates"]["p_hat"] == pytest.approx(rep.est.p)
        assert len(d["covariance"]["Sigma"]) == 2 * params20.K + 4
