"""Tests for grid f-divergences and the kernel density estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpf_lab import (
    GENERATORS,
    GridDensity,
    f_divergence,
    f_divergence_grid,
    get_generator,
    kde_density,
)
from fpf_lab.divergence import KDE_REACH

X = np.linspace(-10.0, 10.0, 4001)


def _gauss(mean, var, x=X):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2 * np.pi * var)


class TestGenerators:
    def test_f_of_one_is_zero(self):
        """Every generator must vanish at s = 1 so D(p || p) = 0 exactly."""
        for gen in GENERATORS.values():
            assert float(gen.f(np.array([1.0]))[0]) == 0.0

    def test_self_divergence_is_zero(self):
        p = _gauss(0.3, 1.4)
        for gen in GENERATORS.values():
            assert abs(f_divergence(p, p, X, gen)) <= 1e-12

    def test_nonnegative_on_distinct_densities(self):
        p1 = _gauss(-0.5, 0.8)
        p2 = 0.6 * _gauss(0.4, 1.0) + 0.4 * _gauss(-1.0, 2.0)
        for gen in GENERATORS.values():
            assert f_divergence(p1, p2, X, gen) > 0.0

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown divergence"):
            get_generator("bogus")


class TestClosedFormValues:
    def test_kl_between_unit_gaussians(self):
        """KL(N(0,1) || N(1,1)) = (mu1 - mu2)^2 / 2 = 1/2."""
        d = f_divergence(_gauss(0, 1), _gauss(1, 1), X, get_generator("kl"))
        assert d == pytest.approx(0.5, abs=1e-6)

    @given(st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=30, deadline=None)
    def test_kl_matches_quadratic_formula(self, m1, m2):
        d = f_divergence(_gauss(m1, 1), _gauss(m2, 1), X, get_generator("kl"))
        assert d == pytest.approx(0.5 * (m1 - m2) ** 2, abs=1e-6)

    def test_squared_hellinger_between_unit_gaussians(self):
        """int (sqrt(p1) - sqrt(p2))^2 = 2 (1 - exp(-(mu1-mu2)^2/8))."""
        d = f_divergence(_gauss(0, 1), _gauss(1, 1), X,
                         get_generator("hellinger"))
        assert d == pytest.approx(2.0 * (1.0 - np.exp(-0.125)), abs=1e-6)

    def test_tv_of_disjoint_densities_is_one(self):
        """Far-separated narrow Gaussians have total variation ~ 1; the
        smoothed generator must land there too."""
        d = f_divergence(_gauss(-5, 0.01), _gauss(5, 0.01), X,
                         get_generator("tv"))
        assert d == pytest.approx(1.0, abs=1e-3)


class TestEscapedMass:
    """Where p2 vanishes but p1 does not, the integral picks up
    lim f(s)/s per unit of escaped p1 mass."""

    def test_kl_is_infinite(self):
        p1 = _gauss(0, 1)
        p2 = np.where(X < 0.0, _gauss(0, 1), 0.0)
        assert f_divergence(p1, p2, X, get_generator("kl")) == np.inf

    def test_tv_charges_half_the_escaped_mass(self):
        """p1 = N(0,1), p2 = its left half: on the shared support the ratio
        is 1 (no contribution) and the escaped right half carries mass 1/2
        at slope 1/2, so D ~ 0.25."""
        p1 = _gauss(0, 1)
        p2 = np.where(X < 0.0, _gauss(0, 1), 0.0)
        d = f_divergence(p1, p2, X, get_generator("tv"))
        assert d == pytest.approx(0.25, abs=1e-2)

    def test_hellinger_charges_full_escaped_mass(self):
        p1 = _gauss(0, 1)
        p2 = np.where(X < 0.0, _gauss(0, 1), 0.0)
        d = f_divergence(p1, p2, X, get_generator("hellinger"))
        # sqrt-mismatch on support is 0; escaped mass 1/2 at slope 1
        assert d == pytest.approx(0.5, abs=1e-2)


class TestKdeDensity:
    def test_moments_with_explicit_bandwidth(self):
        """A Gaussian KDE adds exactly bandwidth^2 to the biased sample
        variance and preserves the sample mean."""
        gen = np.random.default_rng(42)
        samples = gen.normal(0.3, 1.2, size=4000)
        dens = kde_density(samples, np.linspace(-8.0, 8.0, 1601),
                           bandwidth=0.25)
        assert dens.mass == pytest.approx(1.0, abs=1e-12)
        assert dens.mean() == pytest.approx(samples.mean(), abs=1e-6)
        assert dens.var() == pytest.approx(samples.var() + 0.25 ** 2,
                                           rel=1e-6)

    def test_default_bandwidth_smooths(self):
        gen = np.random.default_rng(7)
        samples = gen.normal(size=500)
        dens = kde_density(samples, np.linspace(-8.0, 8.0, 1601))
        assert dens.mass == pytest.approx(1.0, abs=1e-12)
        assert dens.var() > samples.var()

    def test_column_samples_accepted(self):
        gen = np.random.default_rng(3)
        samples = gen.normal(size=(200, 1))
        a = kde_density(samples, np.linspace(-6, 6, 401))
        b = kde_density(samples.ravel(), np.linspace(-6, 6, 401))
        np.testing.assert_array_equal(a.p, b.p)

    @pytest.mark.parametrize("center", [0.5, 7.5])
    def test_kernels_are_cut_at_their_reach(self, center):
        """Against the full kernel sum over every grid point: the same
        density to 1e-12 of its peak, exactly 0 at the grid points farther
        than KDE_REACH bandwidths from every sample, and positive at the
        others. 300 samples take two blocks; centred at 7.5, the windows
        run past the grid's end."""
        gen = np.random.default_rng(11)
        samples = gen.normal(center, 0.7, size=300)
        x = np.linspace(-8.0, 8.0, 1601)
        bandwidth = 0.2
        dens = kde_density(samples, x, bandwidth=bandwidth)
        z = (x[None, :] - samples[:, None]) / bandwidth
        full = GridDensity(x, np.exp(-0.5 * z * z).sum(axis=0)).normalize()
        assert np.max(np.abs(dens.p - full.p)) <= 1e-12 * full.p.max()
        far = np.abs(x[:, None] - samples).min(axis=1) \
            > KDE_REACH * bandwidth
        assert far.any() and not dens.p[far].any()
        assert np.all(dens.p[~far] > 0.0)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="bandwidth"):
            kde_density(np.zeros(10), np.linspace(-1, 1, 11), bandwidth=0.0)


class TestGridWrapper:
    def test_requires_shared_grid(self):
        d1 = GridDensity.gaussian(np.linspace(-5, 5, 101), 0.0, 1.0)
        d2 = GridDensity.gaussian(np.linspace(-5, 5, 201), 0.0, 1.0)
        with pytest.raises(ValueError, match="share one grid"):
            f_divergence_grid(d1, d2, get_generator("kl"))

    def test_matches_raw_arrays(self):
        x = np.linspace(-8, 8, 801)
        d1 = GridDensity.gaussian(x, 0.0, 1.0)
        d2 = GridDensity.gaussian(x, 0.5, 1.5)
        for gen in GENERATORS.values():
            assert f_divergence_grid(d1, d2, gen) == pytest.approx(
                f_divergence(d1.p, d2.p, x, gen), rel=1e-15)
