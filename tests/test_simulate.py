"""Sampling schemes and the exact path simulator."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from qscale.estimators import estimate_D, realized_D
from qscale.exceptions import ConfigError, DataError, DomainError
from qscale.levy import (
    CompoundPoissonExponential,
    CompoundPoissonGamma,
    GammaSubordinator,
    LevyModel,
    NoJumps,
)
from qscale.simulate import (
    SamplingScheme,
    _grid_bins,
    load_observation,
    make_scheme,
    path_rng,
    save_observation,
    simulate,
    simulate_window,
    window_steps,
)


def _s2_quantity(jumps, scheme: SamplingScheme) -> float:
    """sqrt(T) * (int_0^eps z nu(dz) + int_0^eps z^2 nu(dz)), the S2 quantity.

    Should trend to zero along a scheme family for the threshold bias to be
    negligible at the CLT scale.  Closed forms for the families used here.
    """
    if isinstance(jumps, NoJumps):
        return 0.0
    assert isinstance(jumps, CompoundPoissonExponential)
    mu, eps = jumps.mu, scheme.eps
    m1 = jumps.rate / mu * special.gammainc(2.0, mu * eps)
    m2 = 2.0 * jumps.rate / mu**2 * special.gammainc(3.0, mu * eps)
    return math.sqrt(scheme.T) * (m1 + m2)


class TestMakeScheme:
    def test_spec_arithmetic(self):
        s = make_scheme(100.0, a=1.0)
        assert s.n == 10_000 and s.delta == pytest.approx(0.01)
        assert s.T == pytest.approx(100.0)

    def test_eps_rule(self):
        s = make_scheme(100.0, a=1.0, rho=0.49, c_eps=2.0)
        assert s.eps == pytest.approx(2.0 * 0.01**0.49)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"T": 0.5}, {"T": 100, "a": 0.0}, {"T": 100, "a": 1.5},
            {"T": 100, "rho": 0.0}, {"T": 100, "rho": 0.6}, {"T": 100, "c_eps": 0.0},
        ],
    )
    def test_parameter_ranges(self, kwargs):
        with pytest.raises(ConfigError):
            make_scheme(**kwargs)

    @pytest.mark.parametrize("field", ["delta", "eps"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_step_and_threshold_finite_positive(self, field, value):
        kwargs = {"n": 10, "delta": 0.1, "eps": 0.5, field: value}
        with pytest.raises(ConfigError):
            SamplingScheme(**kwargs)

    def test_horizon_finite(self):
        with pytest.raises(ConfigError):
            SamplingScheme(n=10, delta=1e308, eps=0.5)

    def test_s2_zero_without_jumps(self):
        s = make_scheme(100.0)
        assert _s2_quantity(NoJumps(), s) == 0.0

    def test_s2_decreasing_along_family(self):
        jumps = CompoundPoissonExponential(1.0, 1.0)
        vals = [_s2_quantity(jumps, make_scheme(float(T))) for T in (100, 400, 1600)]
        assert vals[0] > vals[1] > vals[2]


class TestWindowSteps:
    """m = window / delta increments, exact at every T: no grid is built here."""

    def test_whole_and_unit_windows(self):
        # window / delta falls below n by float noise that grows with n
        # (982007568.9999999 at T = 31337, n = 982007569)
        for T in [*range(1, 3001), 31337]:
            s = make_scheme(float(T))
            assert window_steps(s, float(T)) == s.n, T
            assert window_steps(s, 1.0) == T, T
            if s.n > 1:  # half a step short of T is one increment fewer
                assert window_steps(s, (s.n - 0.5) * s.delta) == s.n - 1, T


class TestSimulate:
    def test_deterministic_drift_only(self):
        m = LevyModel(x0=2.0, c=1.0, D=0.0, jumps=NoJumps(), q=0.0)
        s = SamplingScheme(n=100, delta=0.01, eps=0.05)
        obs = simulate(m, s, seed=5)
        assert obs.grid == pytest.approx(2.0 + np.arange(101) * 0.01, abs=1e-14)
        assert len(obs.jump_sizes) == 0

    def test_no_jumps_is_drift_plus_brownian_bit_for_bit(self):
        # the zero measure draws nothing, so the normals start the stream
        m = LevyModel(x0=0.3, c=1.2, D=0.5, jumps=NoJumps(), q=0.1)
        scheme = make_scheme(40.0)
        n, dt = scheme.n, scheme.delta
        obs = simulate(m, scheme, 17)
        incr = path_rng(17).normal(0.0, m.sigma * math.sqrt(dt), n)
        want = m.x0 + m.c * (np.arange(n + 1) * dt)
        want[1:] += np.cumsum(incr)
        np.testing.assert_array_equal(obs.grid, want)
        assert len(obs.jump_times) == 0 and len(obs.jump_sizes) == 0

    def test_bit_identical_reruns(self, exp_jump_model):
        s = make_scheme(50.0)
        a = simulate(exp_jump_model, s, seed=123)
        b = simulate(exp_jump_model, s, seed=123)
        assert np.array_equal(a.grid, b.grid)
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.jump_sizes, b.jump_sizes)

    def test_different_seeds_differ(self, exp_jump_model):
        s = make_scheme(50.0)
        a = simulate(exp_jump_model, s, seed=1)
        b = simulate(exp_jump_model, s, seed=2)
        assert not np.array_equal(a.grid, b.grid)

    def test_recorded_jumps_exceed_eps(self, exp_jump_model):
        s = make_scheme(200.0)
        for seed in range(5):
            obs = simulate(exp_jump_model, s, seed=seed)
            if len(obs.jump_sizes):
                assert obs.jump_sizes.min() > s.eps

    def test_poisson_jump_count(self):
        # mean count over seeds ~ lambda T within 3 standard errors
        lam, T = 1.0, 50.0
        m = LevyModel(x0=0, c=1.5, D=0.0, jumps=CompoundPoissonExponential(lam, 1.0), q=0.0)
        s = SamplingScheme(n=5000, delta=0.01, eps=1e-9)  # record everything
        counts = [len(simulate(m, s, seed=seed).jump_sizes) for seed in range(400)]
        mean = np.mean(counts)
        se = np.std(counts, ddof=1) / np.sqrt(len(counts))
        assert abs(mean - lam * T) <= 3 * se

    def test_gaussian_increment_variance(self):
        sigma = 1.3
        m = LevyModel(x0=0, c=0.0, D=sigma**2 / 2, jumps=NoJumps(), q=0.0)
        s = SamplingScheme(n=20_000, delta=0.01, eps=0.05)
        obs = simulate(m, s, seed=7)
        incr = np.diff(obs.grid)
        var = incr.var(ddof=1)
        se = np.sqrt(2.0 / (len(incr) - 1)) * sigma**2 * 0.01
        assert abs(var - sigma**2 * 0.01) <= 3 * se

    def test_path_reconstruction_no_diffusion(self):
        # sigma = 0: X_T = x0 + c T - sum(jumps); eps tiny so all jumps recorded
        m = LevyModel(x0=1.0, c=1.5, D=0.0, jumps=CompoundPoissonExponential(1.0, 1.0), q=0.0)
        s = SamplingScheme(n=10_000, delta=0.01, eps=1e-12)
        obs = simulate(m, s, seed=42)
        assert obs.jump_sizes.min() > 1e-6  # all realized jumps were recorded
        want = 1.0 + 1.5 * s.T - obs.jump_sizes.sum()
        assert obs.grid[-1] == pytest.approx(want, abs=1e-10)

    def test_gamma_subordinator_mean_drift(self):
        # E[X_T - x0] = (c - nu(z)) T regardless of the simulation cutoff
        jumps = GammaSubordinator(shape=0.8, rate=1.0)
        m = LevyModel(x0=0.0, c=1.5, D=0.0, jumps=jumps, q=0.0)
        s = SamplingScheme(n=100, delta=0.5, eps=0.01)
        finals = [simulate(m, s, seed=seed).grid[-1] for seed in range(300)]
        want = (1.5 - jumps.mean()) * s.T
        se = np.std(finals, ddof=1) / np.sqrt(len(finals))
        assert abs(np.mean(finals) - want) <= 3 * se

    def test_grid_value_between_jumps_exact(self):
        # with sigma = 0 the grid interpolates drift minus accumulated jumps
        m = LevyModel(x0=0.0, c=2.0, D=0.0, jumps=CompoundPoissonExponential(0.3, 1.0), q=0.0)
        s = SamplingScheme(n=1000, delta=0.01, eps=1e-12)
        obs = simulate(m, s, seed=3)
        t = obs.times
        lsum = np.array([obs.jump_sizes[obs.jump_times <= tt].sum() for tt in t])
        assert obs.grid == pytest.approx(2.0 * t - lsum, abs=1e-12)


class TestJumpAccumulator:
    """The path accumulator counts the jumps up to each grid time exactly as a
    binary search of every grid time among the jump times."""

    @staticmethod
    def _reference(jt, t):
        return np.searchsorted(jt, t, side="right")

    def test_simulated_grid_uses_same_jump_sums(self):
        # sigma = 0: the grid equals drift minus the jump sum indexed the old way
        m = LevyModel(x0=0.5, c=2.0, D=0.0, jumps=CompoundPoissonExponential(3.0, 1.0), q=0.0)
        s = SamplingScheme(n=5000, delta=0.01, eps=1e-12)
        obs = simulate(m, s, seed=9)
        t = np.arange(s.n + 1) * s.delta
        cum = np.concatenate([[0.0], np.cumsum(obs.jump_sizes)])
        want = 0.5 + 2.0 * t + np.zeros(s.n + 1) - cum[self._reference(obs.jump_times, t)]
        assert np.array_equal(obs.grid, want)


class TestGridBins:
    """The O(#jumps) bin index equals a binary search among the grid times."""

    @staticmethod
    def _reference(jt, delta, n):
        return np.searchsorted(np.arange(n + 1) * delta, jt, side="left")

    @pytest.mark.parametrize("n, delta", [(10, 0.1), (2_560_000, 1600.0 / 2_560_000), (30, 1 / 3)])
    def test_on_and_around_grid_times(self, n, delta):
        rng = np.random.default_rng(3)
        i = np.concatenate([[0, 1, n - 1, n], rng.integers(0, n + 1, 200)])
        t = i * delta
        jt = np.concatenate([
            t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
            rng.uniform(0.0, n * delta, 500), [0.0, n * delta + 1e-9],
        ])
        jt = jt[jt >= 0.0]
        got = _grid_bins(jt, delta, n)
        assert np.array_equal(got, self._reference(jt, delta, n))

    @given(
        n=st.integers(1, 10**5),
        delta=st.floats(1e-7, 10.0),
        frac=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_schemes(self, n, delta, frac):
        # fractions of T, and the grid times nearest to them
        jt = np.array(frac) * (n * delta)
        jt = np.concatenate([jt, np.round(jt / delta) * delta])
        assert np.array_equal(_grid_bins(jt, delta, n), self._reference(jt, delta, n))


class TestSimulateWindow:
    """The grid-free replication draw against the grid of ``simulate``.

    Its jumps are the grid path's; its realized variance equals the grid's
    to rounding when D = 0 and in law when D > 0.
    """

    MODELS = {
        "exponential": LevyModel(
            x0=0.0, c=1.5, D=0.5, jumps=CompoundPoissonExponential(1.0, 1.0), q=0.1
        ),
        "cp_gamma": LevyModel(
            x0=0.0, c=2.0, D=0.2, jumps=CompoundPoissonGamma(1.0, 2.0, 0.4), q=0.05
        ),
        "gamma_subordinator": LevyModel(
            x0=0.0, c=1.5, D=0.3, jumps=GammaSubordinator(shape=0.5, rate=1.0), q=0.2
        ),
        "no_brownian": LevyModel(
            x0=1.0, c=2.0, D=0.0, jumps=CompoundPoissonGamma(1.0, 2.0, 0.4), q=0.05
        ),
    }

    @staticmethod
    def _check(model, scheme, seed, window):
        obs = simulate(model, scheme, seed)
        sample, sum_sq = simulate_window(model, scheme, seed, window)
        assert np.array_equal(sample.jump_times, obs.jump_times)
        assert np.array_equal(sample.jump_sizes, obs.jump_sizes)
        assert (sample.scheme, sample.seed) == (obs.scheme, obs.seed)
        if model.D > 0:
            return  # a draw of the same law: see test_D_hat_equal_in_law
        m = window_steps(scheme, window)
        incr = np.diff(obs.grid[: m + 1])
        want = float(np.dot(incr, incr))
        assert abs(sum_sq - want) <= 1e-12 * want
        # D_hat to 1e-12 of the sum's own scale (D = 0 leaves only roundoff)
        D_grid = estimate_D(obs, window)
        assert abs(realized_D(sample, sum_sq, window) - D_grid) <= 1e-12 * want / (2 * window)

    @pytest.mark.parametrize("name", list(MODELS))
    @pytest.mark.parametrize("whole", [False, True])
    def test_sum_equals_grid(self, name, whole):
        scheme = make_scheme(300.0)  # n = 90_000
        self._check(self.MODELS[name], scheme, 5, scheme.T if whole else 1.0)

    @pytest.mark.parametrize("name", list(MODELS))
    def test_window_ending_in_a_jump_bin(self, name):
        model = self.MODELS[name]
        scheme = make_scheme(40.0)
        obs = simulate(model, scheme, 11)
        assert len(obs.jump_times) >= 3
        jt = obs.jump_times[len(obs.jump_times) // 2]
        b = int(_grid_bins(np.array([jt]), scheme.delta, scheme.n)[0])
        window = b * scheme.delta
        assert window_steps(scheme, window) == b and jt <= window
        self._check(model, scheme, 11, window)

    @pytest.mark.parametrize("D", [1e-310, 5e-324])
    def test_subnormal_D_is_the_D_zero_limit(self, D):
        # the Gaussian part is far below rounding; (drift / s)^2 would overflow
        model = self.MODELS["no_brownian"]
        scheme = make_scheme(300.0)
        _, want = simulate_window(model, scheme, 5, scheme.T)
        _, got = simulate_window(dataclasses.replace(model, D=D), scheme, 5, scheme.T)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("name", [name for name, m in MODELS.items() if m.D > 0])
    def test_D_hat_equal_in_law(self, name):
        # two-sample KS over disjoint seeds, so the samples are independent
        model, scheme, reps = self.MODELS[name], make_scheme(30.0), 2000
        grid = [estimate_D(simulate(model, scheme, seed), scheme.T) for seed in range(reps)]
        window = [
            realized_D(*simulate_window(model, scheme, seed, scheme.T), scheme.T)
            for seed in range(reps, 2 * reps)
        ]
        assert stats.ks_2samp(grid, window).pvalue > 0.01

    @pytest.mark.parametrize("window", [0.0, -1.0, 10.5])
    def test_window_outside_grid(self, window):
        scheme = SamplingScheme(n=100, delta=0.1, eps=0.5)
        with pytest.raises(DomainError):
            simulate_window(self.MODELS["exponential"], scheme, 1, window)


class TestSerialization:
    def test_round_trip(self, exp_jump_model, tmp_path):
        s = make_scheme(50.0)
        obs = simulate(exp_jump_model, s, seed=9)
        save_observation(
            obs, tmp_path / "grid.csv", tmp_path / "jumps.csv", tmp_path / "obs.json"
        )
        back = load_observation(
            tmp_path / "grid.csv", tmp_path / "jumps.csv", tmp_path / "obs.json"
        )
        assert np.array_equal(back.grid, obs.grid)
        assert np.array_equal(back.jump_times, obs.jump_times)
        assert np.array_equal(back.jump_sizes, obs.jump_sizes)
        assert back.scheme == obs.scheme
        assert back.seed == obs.seed

    def test_round_trip_no_jumps(self, brownian_model, tmp_path):
        s = SamplingScheme(n=50, delta=0.1, eps=0.5)
        obs = simulate(brownian_model, s, seed=9)
        assert len(obs.jump_sizes) == 0
        save_observation(
            obs, tmp_path / "grid.csv", tmp_path / "jumps.csv", tmp_path / "obs.json"
        )
        back = load_observation(
            tmp_path / "grid.csv", tmp_path / "jumps.csv", tmp_path / "obs.json"
        )
        assert len(back.jump_sizes) == 0
        assert np.array_equal(back.grid, obs.grid)

    def test_byte_identical_files(self, exp_jump_model, tmp_path):
        s = make_scheme(50.0)
        for d in ("a", "b"):
            obs = simulate(exp_jump_model, s, seed=77)
            (tmp_path / d).mkdir()
            save_observation(
                obs,
                tmp_path / d / "grid.csv",
                tmp_path / d / "jumps.csv",
                tmp_path / d / "obs.json",
            )
        for name in ("grid.csv", "jumps.csv", "obs.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# a sidecar value replaced by an arbitrary JSON scalar: "scheme" and "seed"
# address the top level, "a.b" sidecar["scheme"]["a"]["b"] and any other key
# sidecar["scheme"][key]
_SIDECAR_KEYS = [
    "scheme", "seed", "n", "delta", "eps", "rule", "rule.a", "rule.rho", "rule.c_eps",
]
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=8),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([10**30, -(10**30), 10**400, 1e308, -1e308, 5e-324]),
)


@pytest.fixture(scope="module")
def small_triple(tmp_path_factory):
    """grid.csv, jumps.csv and the sidecar of a short path with recorded jumps."""
    d = tmp_path_factory.mktemp("triple")
    model = LevyModel(x0=0.0, c=1.5, D=0.5, jumps=CompoundPoissonExponential(1.0, 1.0), q=0.1)
    obs = simulate(model, make_scheme(5.0), seed=3)
    assert len(obs.jump_sizes) >= 1
    save_observation(obs, d / "grid.csv", d / "jumps.csv", d / "observation.json")
    return d


class TestSidecarFuzz:
    @given(key=st.sampled_from(_SIDECAR_KEYS), value=_JSON_SCALARS)
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_loads_or_raises_data_error(self, small_triple, key, value):
        sidecar = json.loads((small_triple / "observation.json").read_text())
        if key in ("scheme", "seed"):
            sidecar[key] = value
        else:
            *path, last = key.split(".")
            target = sidecar["scheme"]
            for part in path:
                target = target[part]
            target[last] = value
        mutated = small_triple / "mutated.json"
        # a new file per example: rewriting the last one in place costs more
        mutated.unlink(missing_ok=True)
        mutated.write_text(json.dumps(sidecar))
        try:
            obs = load_observation(small_triple / "grid.csv", small_triple / "jumps.csv", mutated)
        except DataError:
            return
        assert math.isfinite(obs.scheme.delta) and obs.scheme.delta > 0
        assert math.isfinite(obs.scheme.eps) and obs.scheme.eps > 0
        assert len(obs.grid) == obs.scheme.n + 1


# one byte edit: (kind, position as a fraction of the file, byte)
_BYTE_EDITS = st.tuples(
    st.sampled_from(["mutate", "insert", "delete"]),
    st.floats(0.0, 1.0),
    st.one_of(st.sampled_from(list(b"0123456789.,-+eE\n\r #nai ")), st.integers(0, 255)),
)


def _edit_bytes(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for kind, where, byte in edits:
        pos = min(int(where * len(buf)), max(len(buf) - 1, 0))
        if kind == "insert":
            buf.insert(pos, byte)
        elif buf and kind == "mutate":
            buf[pos] = byte
        elif buf:
            del buf[pos]
    return bytes(buf)


class TestObservationCsvFuzz:
    @given(
        which=st.sampled_from(["grid.csv", "jumps.csv"]),
        edits=st.lists(_BYTE_EDITS, min_size=1, max_size=4),
    )
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_loads_or_raises_data_error(self, small_triple, which, edits):
        paths = {"grid.csv": small_triple / "grid.csv", "jumps.csv": small_triple / "jumps.csv"}
        mutated = small_triple / f"mutated-{which}"
        mutated.unlink(missing_ok=True)  # as in TestSidecarFuzz
        mutated.write_bytes(_edit_bytes(paths[which].read_bytes(), edits))
        paths[which] = mutated
        try:
            obs = load_observation(
                paths["grid.csv"], paths["jumps.csv"], small_triple / "observation.json"
            )
        except DataError:
            return
        assert len(obs.grid) == obs.scheme.n + 1 and np.isfinite(obs.grid).all()
        assert np.all(obs.jump_sizes > obs.scheme.eps)
