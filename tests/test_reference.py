"""Tests for the reference filters: Kalman-Bucy, bootstrap PF, grid solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpf_lab import (
    GridDensity,
    GridNegativityError,
    KalmanState,
    KushnerGrid,
    ParticleEnsemble,
    SdeModel,
    WeightCollapseError,
    bayes_update_on_grid,
    bootstrap_pf_step,
    kalman_bucy_step,
    kushner_grid_step,
    make_model,
    stationary_variance_1d,
    systematic_resample,
    weighted_stats,
)
from fpf_lab.fields import Polynomial
from fpf_lab.grid import (clip_roundoff_negatives, cumulative_trapezoid,
                           trapezoid)
from fpf_lab.reference import _chang_cooper_factors, fokker_planck_substeps


class TestKalmanBucy:
    def test_riccati_fixed_point(self):
        """For a = -x, sigma = 1, h = x the stationary variance solves
        2 f P + sigma^2 - h^2 P^2 = 0, giving P* = sqrt(2) - 1."""
        p_star = np.sqrt(2.0) - 1.0
        assert stationary_variance_1d(-1.0, 1.0, 1.0) == pytest.approx(
            p_star, rel=1e-15)
        # residual of the quadratic at the returned root
        residual = 2.0 * (-1.0) * p_star + 1.0 - p_star ** 2
        assert residual == pytest.approx(0.0, abs=1e-14)

    def test_variance_flow_converges_to_fixed_point(self):
        """The covariance recursion is deterministic (independent of dz)
        and must settle onto the Riccati root."""
        model = make_model("linear1d")
        state = KalmanState(np.zeros(1), np.eye(1))
        dt = 1e-3
        for _ in range(8000):
            state = kalman_bucy_step(state, model, 0.0, dt)
        np.testing.assert_allclose(state.cov[0, 0], np.sqrt(2.0) - 1.0,
                                   atol=1e-9)

    def test_requires_affine_model(self):
        model = make_model("cubic-sensor")
        with pytest.raises(ValueError, match="affine"):
            kalman_bucy_step(KalmanState(np.zeros(1), np.eye(1)), model,
                             0.0, 0.01)

    def test_mean_responds_to_innovation(self):
        """One step from the prior: dm = P H (dz - H m dt) = dz for
        m = 0, P = 1."""
        model = make_model("constant-signal")
        state = KalmanState(np.zeros(1), np.eye(1))
        out = kalman_bucy_step(state, model, dz=0.25, dt=0.01)
        assert out.mean[0] == pytest.approx(0.25, rel=1e-12)


class TestSystematicResample:
    def test_uniform_weights_identity(self):
        """With equal weights the stratified positions (j + u)/n fall one
        per bin, so every particle survives exactly once."""
        n = 10
        idx = systematic_resample(np.full(n, 1.0 / n), u=0.5)
        np.testing.assert_array_equal(idx, np.arange(n))

    def test_deterministic_in_u(self):
        w = np.array([0.1, 0.2, 0.3, 0.4])
        a = systematic_resample(w, 0.37)
        b = systematic_resample(w, 0.37)
        np.testing.assert_array_equal(a, b)

    def test_degenerate_weight_takes_all(self):
        w = np.array([0.0, 1.0, 0.0])
        idx = systematic_resample(w, 0.5)
        np.testing.assert_array_equal(idx, [1, 1, 1])

    @pytest.mark.parametrize("n", [2, 7, 1000])
    def test_u_of_one_stays_in_range(self, n):
        """uniform01 reaches 1.0 (the all-ones word), and resampling at
        u = 1 still returns indices in [0, N - 1], with a zero last weight
        too."""
        raw = np.random.default_rng(n).dirichlet(np.ones(n))
        zero_tail = np.append(raw[:-1], 0.0) / raw[:-1].sum()
        for w in (np.full(n, 1.0 / n), raw, zero_tail):
            idx = systematic_resample(w, 1.0)
            assert len(idx) == n
            assert idx.min() >= 0 and idx.max() <= n - 1

    @given(st.lists(st.floats(min_value=1e-3, max_value=1.0),
                    min_size=2, max_size=12),
           st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    @settings(max_examples=100, deadline=None)
    def test_counts_match_expected_multiplicity(self, raw, u):
        """Systematic resampling keeps every copy count within one of its
        expectation: |count_i - N w_i| < 1 (up to cumsum roundoff)."""
        w = np.asarray(raw)
        w = w / w.sum()
        n = len(w)
        idx = systematic_resample(w, u)
        counts = np.bincount(idx, minlength=n)
        assert counts.sum() == n
        assert np.all(np.abs(counts - n * w) < 1.0 + 1e-9)


class TestBootstrapPf:
    def test_weight_ratio_hand_value(self):
        """On the noise-free constant signal, propagation is a no-op and
        one update multiplies weights by exp(h dz - h^2 dt / 2).  For
        particles at 0 and 1 with dz = 0.1, dt = 0.01 the ratio is
        exp(0.1 - 0.005) = exp(0.095)."""
        model = make_model("constant-signal")
        ens = ParticleEnsemble(states=np.array([[0.0], [1.0]]), time=0.0,
                               seed=3, streams=np.arange(2, dtype=np.uint64),
                               draw_step=1)
        log_w = np.zeros(2)
        ens, log_w, resampled = bootstrap_pf_step(
            model, ens, log_w, dz=0.1, dt=0.01, ess_fraction=0.0)
        assert not resampled
        np.testing.assert_array_equal(ens.states, [[0.0], [1.0]])
        assert np.exp(log_w[1] - log_w[0]) == pytest.approx(np.exp(0.095),
                                                            rel=1e-12)

    def test_resampling_triggers_and_resets_weights(self):
        """Extreme weight imbalance drops the effective sample size below
        the threshold; afterwards weights are uniform and the surviving
        states come from the original support."""
        model = make_model("constant-signal")
        states = np.array([[0.0], [8.0], [0.1], [-0.1]])
        ens = ParticleEnsemble(states=states.copy(), time=0.0, seed=5,
                               streams=np.arange(4, dtype=np.uint64),
                               draw_step=1)
        log_w = np.zeros(4)
        ens, log_w, resampled = bootstrap_pf_step(
            model, ens, log_w, dz=2.0, dt=0.25, ess_fraction=0.5)
        assert resampled
        np.testing.assert_array_equal(log_w, np.zeros(4))
        assert set(ens.states[:, 0]).issubset(set(states[:, 0]))

    def test_weight_collapse_raises(self):
        model = make_model("constant-signal")
        ens = ParticleEnsemble(states=np.zeros((2, 1)), time=0.0, seed=1,
                               streams=np.arange(2, dtype=np.uint64),
                               draw_step=1)
        with pytest.raises(WeightCollapseError):
            bootstrap_pf_step(model, ens, np.full(2, -np.inf), 0.0, 0.01)

    def test_weighted_stats_uniform_matches_numpy(self):
        """With equal weights the (1 - sum w^2) divisor reproduces the
        unbiased sample covariance exactly."""
        gen = np.random.default_rng(42)
        states = gen.normal(size=(50, 2))
        mean, cov = weighted_stats(states, np.zeros(50))
        np.testing.assert_allclose(mean, states.mean(axis=0), atol=1e-14)
        np.testing.assert_allclose(cov, np.cov(states.T), atol=1e-13)

    def test_weighted_stats_single_heavy_particle_is_finite(self):
        """When one particle holds all the weight, 1 - sum w^2 = 0; the
        statistics are that particle's state and a zero covariance."""
        states = np.array([[0.5, -1.0], [2.0, 3.0], [-4.0, 1.0]])
        for log_w in ([0.0, -np.inf, -np.inf], [-1e3, 0.0, -1e3]):
            mean, cov = weighted_stats(states, np.array(log_w))
            heavy = int(np.argmax(log_w))
            np.testing.assert_array_equal(mean, states[heavy])
            np.testing.assert_array_equal(cov, np.zeros((2, 2)))


class TestGridDensity:
    def test_gaussian_moments(self):
        x = np.linspace(-10.0, 10.0, 2001)
        dens = GridDensity.gaussian(x, 0.4, 1.7)
        assert dens.mass == pytest.approx(1.0, abs=1e-12)
        assert dens.mean() == pytest.approx(0.4, abs=1e-9)
        assert dens.var() == pytest.approx(1.7, rel=1e-9)

    def test_normalize_rejects_zero_mass(self):
        with pytest.raises(GridNegativityError):
            GridDensity(np.linspace(0, 1, 11), np.zeros(11)).normalize()

    def test_clip_roundoff(self):
        p = np.array([0.5, -1e-13, 0.5])
        out = clip_roundoff_negatives(p)
        np.testing.assert_array_equal(out, [0.5, 0.0, 0.5])
        with pytest.raises(GridNegativityError):
            clip_roundoff_negatives(np.array([0.5, -1e-6, 0.5]))


class TestCumulativeTrapezoid:
    @pytest.mark.parametrize("n", [1, 2, 3, 2001])
    @pytest.mark.parametrize("uniform", [True, False],
                             ids=["uniform", "non-uniform"])
    def test_matches_scipy_bytes(self, n, uniform):
        from scipy.integrate import cumulative_trapezoid as reference
        rng = np.random.default_rng(n)
        x = np.linspace(-8.0, 8.0, n) if uniform \
            else np.cumsum(rng.uniform(0.01, 1.0, n))
        y = np.exp(-0.5 * x * x) * (x * x - 1.0) + rng.standard_normal(n)
        assert cumulative_trapezoid(y, x).tobytes() \
            == reference(y, x, initial=0.0).tobytes()


class TestGridFilter:
    def test_pure_update_gaussian_posterior(self):
        """One Bayes update of N(0,1) with h = x multiplies by
        exp(x dz - x^2 dt / 2): the posterior is Gaussian with precision
        1 + dt and mean dz / (1 + dt).  dz = dt = 0.1 gives mean 1/11."""
        x = np.linspace(-10.0, 10.0, 4001)
        dens = GridDensity.gaussian(x, 0.0, 1.0)
        bayes_update_on_grid(dens, x, dz=0.1, dt=0.1)
        assert dens.mean() == pytest.approx(1.0 / 11.0, abs=1e-10)
        assert dens.var() == pytest.approx(1.0 / 1.1, rel=1e-10)
        assert dens.mass == pytest.approx(1.0, abs=1e-12)

    def test_fokker_planck_conserves_mass(self):
        dens = GridDensity.gaussian(np.linspace(-8.0, 8.0, 1601), 0.3, 0.5)
        m0 = dens.mass
        mid = 0.5 * (dens.x[:-1] + dens.x[1:])
        fokker_planck_substeps(dens, -mid, 1.0, 0.05)
        assert dens.mass == pytest.approx(m0, abs=1e-12)

    def test_fokker_planck_relaxes_to_stationary(self):
        """dp/dt = (x p)' + p''/2 has stationary density N(0, 1/2); a long
        integration from a displaced start must approach its moments."""
        dens = GridDensity.gaussian(np.linspace(-8.0, 8.0, 1601), 1.5, 0.3)
        mid = 0.5 * (dens.x[:-1] + dens.x[1:])
        for _ in range(600):
            fokker_planck_substeps(dens, -mid, 1.0, 0.01)
        dens.normalize()
        assert dens.mean() == pytest.approx(0.0, abs=5e-3)
        assert dens.var() == pytest.approx(0.5, rel=2e-2)

    def test_tracks_kalman_bucy_on_linear_model(self):
        """Short joint run: grid posterior moments against the closed-form
        filter, driven by the same increments."""
        model = make_model("linear1d")
        gen = np.random.default_rng(6)
        dt = 0.01
        dens = GridDensity.gaussian(np.linspace(-8.0, 8.0, 1601), 0.0, 1.0)
        state = KalmanState(np.zeros(1), np.eye(1))
        for _ in range(50):
            dz = float(gen.normal(0.0, np.sqrt(dt)))
            kushner_grid_step(dens, model, dz, dt)
            state = kalman_bucy_step(state, model, dz, dt)
            assert dens.mean() == pytest.approx(
                float(state.mean[0]), abs=0.02 * np.sqrt(state.cov[0, 0]))
            assert dens.var() == pytest.approx(float(state.cov[0, 0]),
                                               rel=0.02)

    def test_rejects_multivariate_model(self):
        dens = GridDensity.gaussian(np.linspace(-4, 4, 101), 0.0, 1.0)
        with pytest.raises(ValueError, match="dim=1"):
            kushner_grid_step(dens, make_model("linear2d"), 0.0, 0.01)


class TestChangCooperStep:
    """Properties of the implicit Fokker-Planck step that hold for any dt."""

    X = np.linspace(-8.0, 8.0, 1601)
    MID = 0.5 * (X[:-1] + X[1:])

    @pytest.mark.parametrize("dt", [1e-3, 0.1, 1.0, 100.0])
    def test_sampled_stationary_gaussian_is_fixed_point(self, dt):
        """For a = -x and sigma = 1 the sampled N(0, 1/2) has
        p_{i+1} / p_i = exp(-2 x_{i+1/2} dx) = e^w at every face, so each
        Chang-Cooper flux vanishes and the step leaves p unchanged."""
        dens = GridDensity.gaussian(self.X, 0.0, 0.5)
        p0 = dens.p.copy()
        fokker_planck_substeps(dens, -self.MID, 1.0, dt)
        assert np.max(np.abs(dens.p - p0) / p0) <= 1e-11

    def _check_positive_and_conserved(self, drift, sigma, dt, rel=1e-12):
        dens = GridDensity.gaussian(self.X, 1.5, 0.3)
        total = dens.p.sum()
        fokker_planck_substeps(dens, drift, sigma, dt)
        assert np.all(dens.p >= 0.0)
        assert dens.p.sum() == pytest.approx(total, rel=rel)

    def test_stiff_drift_keeps_sign_and_mass(self):
        """a = -5 x^3 reaches |a| = 2560 at the grid ends, where an
        explicit step would need dt < dx / (2 |a|) = 2e-6; this one takes
        dt = 1."""
        self._check_positive_and_conserved(-5.0 * self.MID ** 3, 1.0, 1.0)

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.sampled_from([1, 3]), st.sampled_from([-1.0, 1.0]),
           st.one_of(st.just(0.0), st.floats(min_value=1e-8, max_value=10.0)),
           st.floats(min_value=1e-4, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_any_drift_sigma_dt_keeps_sign_and_mass(self, scale, power, sign,
                                                     sigma, dt):
        """Restoring or repelling drifts a = -/+ c x^k, sigma from 0 up,
        dt from 1e-4 to 10: the step is an M-matrix solve with unit column
        sums, so p >= 0 and sum(p) is conserved. A stored diagonal entry
        1 + dt (rates out of a cell) carries a rounding of eps times
        itself, so that bounds sum(p) where it exceeds 1e-12 (up to 1e-9
        at sigma = 10, dt = 10; 0.06 of it seen over 3000 draws)."""
        drift = -sign * scale * self.MID ** power
        dx = self.X[1] - self.X[0]
        diag = 1.0 + 2.0 * dt / dx * (np.max(np.abs(drift))
                                      + 0.5 * sigma * sigma / dx)
        rounding = np.finfo(float).eps * diag
        self._check_positive_and_conserved(drift, sigma, dt,
                                           rel=max(1e-12, rounding))

    @pytest.mark.parametrize("sigma", [1e-8, 0.0])
    def test_vanishing_diffusion_is_finite(self, sigma):
        """sigma -> 0 sends |w| = |a| dx / D to infinity (2e14 |a| at
        sigma = 1e-8); B must stay free of overflow and 0/0, and sigma = 0
        is the pure upwind limit."""
        dens = GridDensity.gaussian(self.X, 1.5, 0.3)
        with np.errstate(all="raise"):
            for drift, dt in ((-self.MID, 0.01), (-5.0 * self.MID ** 3, 1.0)):
                fokker_planck_substeps(dens, drift, sigma, dt)
        assert np.all(np.isfinite(dens.p))
        assert np.all(dens.p >= 0.0)


# ---------------------------------------------------------------------------
# the assembled grid against the grid assembled every step
# ---------------------------------------------------------------------------

def _banded_fokker_planck(p, a, sigma, dx, dt):
    """The Chang-Cooper step as it was assembled for every step: the bands
    from the face drift, then scipy's solve_banded."""
    from scipy.linalg import solve_banded

    diff = 0.5 * sigma * sigma
    coef = np.zeros_like(a)
    if diff > 0.0:
        w = np.minimum(np.abs(a) * (dx / diff), 40.0)
        coef = diff / dx * np.divide(w, np.expm1(w), out=np.ones_like(w),
                                     where=w > 0.0)
    bands = np.zeros((3, len(p)))
    bands[0, 1:] = -(np.maximum(-a, 0.0) + coef) * (dt / dx)
    bands[2, :-1] = -(np.maximum(a, 0.0) + coef) * (dt / dx)
    bands[1] = 1.0 - bands[0] - bands[2]
    return solve_banded((1, 1), bands, p, check_finite=False)


def _per_step_kushner(x, p, model, dz, dt):
    """One grid filter step assembled from the model at every step, with
    np.trapezoid for the mass."""
    mid = 0.5 * (x[:-1] + x[1:])
    a = model.drift_at(mid.reshape(-1, 1))[:, 0]
    sigma = float(np.reshape(model.diffusion, ()))
    p = _banded_fokker_planck(p, a, sigma, float(x[1] - x[0]), dt)
    h = model.obs_at(x.reshape(-1, 1))
    g = h * dz - 0.5 * h * h * dt
    p = p * np.exp(g - np.max(g))
    assert p.min() >= -1e-12
    p = np.where(p < 0.0, 0.0, p)
    return p / float(trapezoid(p, x))


def _per_step_moments(x, p):
    """mean and variance with three np.trapezoid masses."""
    mean = float(trapezoid(x * p, x) / float(trapezoid(p, x)))
    var = float(trapezoid((x - mean) ** 2 * p, x) / float(trapezoid(p, x)))
    return mean, var


GRID_MODELS = {
    "linear1d": make_model("linear1d"),
    # h = x^3: the Bayes factor underflows to 0 towards the grid ends
    "cubic-sensor": make_model("cubic-sensor"),
    # sigma = 0: the pure upwind branch
    "constant-signal": make_model("constant-signal"),
    # the golden corpus's inline model
    "inline-affine": SdeModel([Polynomial(1, {(1,): -0.5})],
                              Polynomial(1, {(1,): 2.0, (0,): 0.3}),
                              np.array([[0.8]]), "inline"),
}


class TestAssembledGridIsBitIdentical:
    """KushnerGrid, assembled once, against the step assembled every step
    (solve_banded, np.trapezoid), byte for byte over 200 steps."""

    X = np.linspace(-8.0, 8.0, 1601)

    @pytest.mark.parametrize("name", sorted(GRID_MODELS))
    def test_steps_and_moments_match_per_step_assembly(self, name):
        model, dt = GRID_MODELS[name], 0.01
        gen = np.random.default_rng(sorted(GRID_MODELS).index(name))
        p = GridDensity.gaussian(self.X, 0.5, 1.0).p
        assembled = GridDensity(self.X, p.copy())
        stepped = GridDensity(self.X, p.copy())
        grid = KushnerGrid(self.X, model, dt)
        # column dominance: partial pivoting swaps no rows
        np.testing.assert_array_equal(grid.factors[-1],
                                      np.arange(1, len(self.X) + 1))
        underflowed = 0
        for _ in range(200):
            dz = float(gen.normal(0.0, np.sqrt(dt)))
            p = _per_step_kushner(self.X, p, model, dz, dt)
            assert grid.step(assembled, dz) is assembled
            kushner_grid_step(stepped, model, dz, dt)
            assert assembled.p.tobytes() == p.tobytes()
            assert stepped.p.tobytes() == p.tobytes()
            mean, var = _per_step_moments(self.X, p)
            assert assembled.moments() == (mean, var)
            assert (assembled.mean(), assembled.var()) == (mean, var)
            underflowed = max(underflowed, int(np.sum(p == 0.0)))
        if name == "cubic-sensor":
            assert underflowed > 0

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.sampled_from([1, 2, 3]), st.sampled_from([-1.0, 1.0]),
           st.one_of(st.just(0.0), st.floats(min_value=1e-8, max_value=10.0)),
           st.floats(min_value=1e-4, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_factored_solve_matches_solve_banded(self, scale, power, sign,
                                                 sigma, dt):
        """Random Chang-Cooper systems: ?gttrf swaps no rows, and
        fokker_planck_substeps gives solve_banded's bytes."""
        mid = 0.5 * (self.X[:-1] + self.X[1:])
        drift = -sign * scale * mid ** power
        dx = float(self.X[1] - self.X[0])
        ipiv = _chang_cooper_factors(drift, sigma, dx, dt)[-1]
        np.testing.assert_array_equal(ipiv, np.arange(1, len(self.X) + 1))
        dens = GridDensity.gaussian(self.X, 1.5, 0.3)
        want = _banded_fokker_planck(dens.p, drift, sigma, dx, dt)
        assert fokker_planck_substeps(dens, drift, sigma, dt).p.tobytes() \
            == want.tobytes()


class TestGridFailures:
    """A grid step that cannot carry a density ends as GridNegativityError
    (compare's exit 4), never as a linear-algebra error."""

    X = np.linspace(-8.0, 8.0, 1601)

    @staticmethod
    def _model(drift, obs, sigma):
        return SdeModel([Polynomial(1, drift)], Polynomial(1, obs),
                        np.array([[sigma]]), "inline")

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    @pytest.mark.parametrize("drift, obs", [
        # +-inf beyond |x| = 5.8, tiny inside
        ({(1,): -1.0, (401,): 1e-300}, {(1,): 1.0}),
        # inf - inf = NaN at the grid ends
        ({(3,): 1e306, (4,): -1e306}, {(1,): 1.0}),
        # a non-finite h
        ({(1,): -1.0}, {(1,): 1.0, (401,): 1e-300}),
    ])
    def test_non_finite_drift_or_h(self, drift, obs, sigma):
        model = self._model(drift, obs, sigma)
        for step in (lambda dens: KushnerGrid(self.X, model, 0.01).step(
                         dens, 0.05),
                     lambda dens: kushner_grid_step(dens, model, 0.05, 0.01)):
            dens = GridDensity.gaussian(self.X, 0.0, 1.0)
            with np.errstate(all="ignore"):
                with pytest.raises(GridNegativityError):
                    step(dens)

    def test_zero_pivot_is_one_line(self):
        """sigma = 1e10 puts ~5e21 on the diagonal, where 1 is lost to
        rounding: the last pivot of ?gttrf is exactly 0 (solve_banded
        raised LinAlgError on it)."""
        model = self._model({(1,): -1.0}, {(1,): 1.0}, 1e10)
        with pytest.raises(GridNegativityError) as err:
            KushnerGrid(self.X, model, 0.01)
        assert str(err.value).count("\n") == 0
        assert "singular" in str(err.value)
        dens = GridDensity.gaussian(self.X, 0.0, 1.0)
        with pytest.raises(GridNegativityError):
            kushner_grid_step(dens, model, 0.05, 0.01)
