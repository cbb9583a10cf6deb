"""Tests for the gain-function solvers and admissibility diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpf_lab import (
    GainField,
    ModelValidationError,
    ParticleEnsemble,
    check_admissible,
    compute_gain,
    constant_gain,
    ensemble_stats,
    exact_gain,
    gain_residual_on_grid,
    galerkin_gain,
    make_model,
    monomial_exponents,
    sample_initial_ensemble,
)
from fpf_lab.model import PosteriorStats


def _stats_for(states, obs_fn):
    ens = ParticleEnsemble(states=states, time=0.0, seed=0,
                           streams=np.arange(len(states), dtype=np.uint64))
    return ensemble_stats(ens, obs_fn)


class TestConstantGain:
    def test_three_particle_hand_value(self):
        """States {-1, 0, 1} with h = x: the ensemble mean and h_hat are 0,
        so K = (1/N) sum (h - h_hat)(x - mean) = ((-1)(-1) + 0 + 1*1)/3 = 2/3."""
        states = np.array([[-1.0], [0.0], [1.0]])
        stats = _stats_for(states, lambda s: s[:, 0])
        field = constant_gain(states, stats, np.ones((3, 1)))
        np.testing.assert_allclose(field.k, 2.0 / 3.0, rtol=1e-15)
        np.testing.assert_array_equal(field.k_jac, np.zeros((3, 1, 1)))

    def test_correction_reduces_to_observation_term(self):
        """A constant gain has Omega = (1/2) K . grad K = 0 identically, so
        u = -K (h + h_hat) / 2 holds bit for bit."""
        gen = np.random.default_rng(42)
        states = gen.normal(size=(50, 2))
        stats = _stats_for(states, lambda s: s[:, 0] + 0.3 * s[:, 1] ** 2)
        h_grad = np.column_stack([np.ones(50), 0.6 * states[:, 1]])
        field = constant_gain(states, stats, h_grad)
        expected_u = -0.5 * field.k * (stats.h_vals + stats.h_hat)[:, None]
        np.testing.assert_array_equal(field.u, expected_u)

    def test_large_sample_limit(self):
        """For x ~ N(0,1) and h = x the gain converges to Var(x) = 1."""
        ens = sample_initial_ensemble(1, 100000, [0.0], [[1.0]], seed=7)
        stats = ensemble_stats(ens, lambda s: s[:, 0])
        field = constant_gain(ens.states, stats, np.ones((ens.n, 1)))
        np.testing.assert_allclose(field.k[0, 0], 1.0, atol=0.02)


class TestExactGain:
    def test_equals_cov_times_obs_vector(self):
        gen = np.random.default_rng(3)
        states = gen.normal(size=(200, 2))
        stats = _stats_for(states, lambda s: s[:, 0])
        field = exact_gain(stats, np.array([1.0, 0.0]), np.ones((200, 2)))
        np.testing.assert_allclose(field.k[0], stats.cov @ [1.0, 0.0],
                                   rtol=1e-14)
        np.testing.assert_array_equal(field.k_jac, np.zeros((200, 2, 2)))

    def test_requires_affine_observation(self):
        model = make_model("cubic-sensor")
        ens = sample_initial_ensemble(1, 20, [0.0], [[1.0]], seed=1)
        stats = ensemble_stats(ens, model.obs_at)
        with pytest.raises(ModelValidationError,
                           match="exact solver requires affine h"):
            compute_gain(model, ens.states, stats, "exact_gaussian")

    def test_alias_spellings_agree(self):
        model = make_model("linear1d")
        ens = sample_initial_ensemble(1, 30, [0.0], [[1.0]], seed=4)
        stats = ensemble_stats(ens, model.obs_at)
        a = compute_gain(model, ens.states, stats, "exact_gaussian")
        b = compute_gain(model, ens.states, stats, "exact")
        np.testing.assert_array_equal(a.k, b.k)

    def test_unknown_method(self):
        model = make_model("linear1d")
        ens = sample_initial_ensemble(1, 10, [0.0], [[1.0]], seed=4)
        stats = ensemble_stats(ens, model.obs_at)
        with pytest.raises(ValueError, match="unknown gain method"):
            compute_gain(model, ens.states, stats, "spectral")


class TestKAtOnBatch:
    @pytest.mark.parametrize("method", ["exact_gaussian", "constant",
                                        "galerkin"])
    def test_each_seed_evaluates_its_own_gain(self, method):
        """k_at of a batch field is (S, M, d), and slice s is k_at of the
        field of seed s's ensemble alone, bit for bit."""
        model = make_model("linear1d")
        seeds = np.array([3, 8], dtype=np.uint64)
        points = np.zeros((3, 1))
        batch = sample_initial_ensemble(1, 50, [0.0], [[1.0]], seeds)
        k = compute_gain(model, batch.states,
                         ensemble_stats(batch, model.obs_at),
                         method).k_at(points)
        assert k.shape == (2, 3, 1)
        for s, seed in enumerate(seeds):
            ens = sample_initial_ensemble(1, 50, [0.0], [[1.0]], seed)
            k_1 = compute_gain(model, ens.states,
                               ensemble_stats(ens, model.obs_at),
                               method).k_at(points)
            assert k_1.shape == (3, 1)
            assert k[s].tobytes() == k_1.tobytes()


class TestGalerkinGain:
    def test_degree_one_equals_constant_gain(self):
        """In the degree-1 monomial basis the weak form reduces exactly to
        the cross-covariance formula (with the ridge disabled)."""
        for dim in (1, 2):
            ens = sample_initial_ensemble(dim, 500, np.zeros(dim),
                                          np.eye(dim), seed=dim)
            obs = lambda s: s[:, 0] ** 3
            stats = ensemble_stats(ens, obs)
            h_grad = np.column_stack(
                [3.0 * ens.states[:, 0] ** 2] + [np.zeros(500)] * (dim - 1))
            g1 = galerkin_gain(ens.states, stats, h_grad, degree=1, ridge=0.0)
            gc = constant_gain(ens.states, stats, h_grad)
            np.testing.assert_allclose(g1.k, gc.k, rtol=0, atol=1e-10)

    def test_jacobian_is_symmetric(self):
        """K is the gradient of a potential, so grad K^T is symmetric."""
        ens = sample_initial_ensemble(2, 400, [0.0, 0.0], np.eye(2), seed=13)
        stats = ensemble_stats(ens, lambda s: s[:, 0] ** 3 + s[:, 1])
        h_grad = np.column_stack([3.0 * ens.states[:, 0] ** 2, np.ones(400)])
        field = galerkin_gain(ens.states, stats, h_grad, degree=3)
        np.testing.assert_array_equal(field.k_jac,
                                      field.k_jac.transpose(0, 2, 1))

    def test_observation_offset_invariance(self):
        """Only h - h_hat enters the weak form, so shifting h by a constant
        leaves the solve unchanged to roundoff."""
        ens = sample_initial_ensemble(2, 2000, [0.0, 0.0], np.eye(2), seed=13)
        obs = lambda s: s[:, 0] ** 3 + s[:, 1]
        stats_a = ensemble_stats(ens, obs)
        stats_b = ensemble_stats(ens, lambda s: obs(s) + 5.0)
        h_grad = np.column_stack([3.0 * ens.states[:, 0] ** 2, np.ones(2000)])
        ga = galerkin_gain(ens.states, stats_a, h_grad, degree=3)
        gb = galerkin_gain(ens.states, stats_b, h_grad, degree=3)
        np.testing.assert_allclose(ga.k, gb.k, rtol=0, atol=1e-13)

    def test_field_evaluation_off_ensemble(self):
        """k_at evaluates the fitted polynomial gain anywhere; for the
        linear observation at large N it approaches the constant exact
        gain K = 1 throughout the bulk."""
        ens = sample_initial_ensemble(1, 100000, [0.0], [[1.0]], seed=7)
        stats = ensemble_stats(ens, lambda s: s[:, 0])
        field = galerkin_gain(ens.states, stats, np.ones((ens.n, 1)),
                              degree=3)
        at_zero = field.k_at(np.array([[0.0]]))
        np.testing.assert_allclose(at_zero[0, 0], 1.0, atol=0.05)

    def test_basis_size(self):
        """Monomials of total degree 1..D in d variables: C(d+D, D) - 1."""
        from math import comb
        for d, deg in [(1, 3), (2, 3), (3, 2), (2, 1)]:
            exps = monomial_exponents(d, deg)
            assert len(exps) == comb(d + deg, deg) - 1
            assert exps.shape[1] == d
            assert np.all(exps.sum(axis=1) >= 1)

    @pytest.mark.parametrize("d, deg", [(1, 4), (2, 3), (3, 3), (4, 2)])
    def test_order_matches_grid_enumeration(self, d, deg):
        """The same multi-indices, in the same order, as filtering the
        full grid {0..D}^d by total degree and sorting each degree."""
        from itertools import product
        expected = [a for total in range(1, deg + 1)
                    for a in sorted(a for a in product(range(deg + 1),
                                                       repeat=d)
                                    if sum(a) == total)]
        np.testing.assert_array_equal(monomial_exponents(d, deg), expected)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            monomial_exponents(2, 0)


def _monomial_partial(points, alpha, axes):
    """d^axes x^alpha at every point, one monomial at a time."""
    a = np.array(alpha, dtype=int)
    coef = 1.0
    for ax in axes:
        if a[ax] == 0:
            return np.zeros(points.shape[0])
        coef *= a[ax]
        a[ax] -= 1
    return coef * np.prod(points ** a, axis=1)


def _reference_galerkin(states, stats, h_grad, degree):
    """Slow oracle: the weak-form solve assembled monomial by monomial,
    with the full third-derivative tensor of the gain potential."""
    n, d = states.shape
    exps = monomial_exponents(d, degree)
    nb = len(exps)
    psi = np.empty((n, nb))
    grad_psi = np.empty((n, nb, d))
    for k_idx, alpha in enumerate(exps):
        psi[:, k_idx] = np.prod(states ** alpha, axis=1)
        for j in range(d):
            grad_psi[:, k_idx, j] = _monomial_partial(states, alpha, (j,))
    a_mat = np.einsum("nkd,nld->kl", grad_psi, grad_psi) / n
    b_vec = (stats.h_vals - stats.h_hat) @ psi / n
    ridge = 1e-6 * np.trace(a_mat) / nb
    coeffs = np.linalg.solve(a_mat + ridge * np.eye(nb), b_vec)

    k = np.einsum("k,nkj->nj", coeffs, grad_psi)
    k_jac = np.zeros((n, d, d))
    k_third = np.zeros((n, d, d, d))
    for c, alpha in zip(coeffs, exps):
        for i in range(d):
            for j in range(d):
                k_jac[:, i, j] += c * _monomial_partial(states, alpha, (i, j))
                for l in range(d):
                    k_third[:, i, l, j] += c * _monomial_partial(
                        states, alpha, (i, l, j))
    hs = (stats.h_vals + stats.h_hat)[:, None]
    u = -0.5 * k * hs + 0.5 * np.einsum("nl,nlj->nj", k, k_jac)
    u_jac = (-0.5 * hs[:, :, None] * k_jac
             - 0.5 * np.einsum("ni,nj->nij", h_grad, k)
             + 0.5 * np.einsum("nil,nlj->nij", k_jac, k_jac)
             + 0.5 * np.einsum("nl,nilj->nij", k, k_third))
    return coeffs, {"k": k, "k_jac": k_jac, "u": u, "u_jac": u_jac}


class TestGalerkinAgainstOracle:
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_per_monomial_assembly(self, dim, degree):
        """The table-driven solve reproduces the per-monomial assembly on
        states with exact zeros and negative values."""
        gen = np.random.default_rng(10 * dim + degree)
        states = gen.normal(size=(300, dim))
        states[:4] = 0.0
        states[4:12, 0] = 0.0
        states[12:20, -1] = -np.abs(states[12:20, -1]) - 1.5
        obs = states[:, 0] ** 3 + np.sin(states).sum(axis=1)
        h_grad = np.cos(states)
        h_grad[:, 0] += 3.0 * states[:, 0] ** 2
        stats = PosteriorStats(mean=states.mean(axis=0),
                               cov=np.cov(states.T).reshape(dim, dim),
                               h_hat=float(obs.mean()), h_vals=obs)

        field = galerkin_gain(states, stats, h_grad, degree=degree)
        coeffs, fields = _reference_galerkin(states, stats, h_grad, degree)

        assert (np.max(np.abs(field.coeffs - coeffs))
                <= 1e-12 * np.max(np.abs(coeffs)))
        for name, expected in fields.items():
            scale = max(1.0, np.max(np.abs(expected)))
            np.testing.assert_allclose(getattr(field, name), expected,
                                       rtol=1e-10, atol=1e-10 * scale,
                                       err_msg=name)
        np.testing.assert_array_equal(field.k_jac,
                                      field.k_jac.transpose(0, 2, 1))
        np.testing.assert_allclose(field.k_at(states), field.k, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(field.k)))


@st.composite
def _ensembles(draw):
    """States (N, d) with N 2..40, d 1..3, and one observation value each."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(2, 40))
    values = st.floats(-5.0, 5.0)
    states = np.array(draw(st.lists(values, min_size=n * dim,
                                    max_size=n * dim))).reshape(n, dim)
    h_vals = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return states, h_vals


class TestGainProperties:
    @settings(max_examples=60, deadline=None)
    @given(_ensembles(), st.lists(st.floats(-3.0, 3.0), min_size=4,
                                  max_size=4))
    def test_exact_is_constant_times_bessel_factor(self, ensemble, coeffs):
        """For affine h = H^T x + c, h - h_hat = H^T (x - mean), so the
        constant gain (1/N) is Cov(X) H with the 1/(N-1) of ensemble_stats
        replaced by 1/N: exact = constant * N / (N - 1)."""
        states, _ = ensemble
        n, dim = states.shape
        obs_vector = np.array(coeffs[:dim])
        stats = _stats_for(states, lambda s: s @ obs_vector + coeffs[3])
        h_grad = np.broadcast_to(obs_vector, (n, dim))
        exact = exact_gain(stats, obs_vector, h_grad)
        const = constant_gain(states, stats, h_grad)
        scale = (np.abs(states - states.mean(axis=0)).max() ** 2
                 * np.abs(obs_vector).sum() + np.abs(stats.h_vals).max()
                 * np.abs(states).max())
        np.testing.assert_allclose(exact.k, const.k * n / (n - 1), rtol=0,
                                   atol=1e-13 * scale + np.finfo(float).tiny)

    @settings(max_examples=60, deadline=None)
    @given(_ensembles())
    def test_degree_one_galerkin_is_constant(self, ensemble):
        """The degree-1 basis x_1..x_d has unit gradients, so with the
        ridge off A = I, K = b = (1/N) sum (h - h_hat) x: the constant gain
        up to the roundoff of sum (h - h_hat) = 0."""
        states, h_vals = ensemble
        n, dim = states.shape
        stats = _stats_for(states, lambda s: h_vals)
        h_grad = np.ones((n, dim))
        g1 = galerkin_gain(states, stats, h_grad, degree=1, ridge=0.0)
        gc = constant_gain(states, stats, h_grad)
        scale = (np.abs(h_vals).max() + 1.0) * (np.abs(states).max() + 1.0)
        for name in ("k", "k_jac", "u", "u_jac"):
            np.testing.assert_allclose(getattr(g1, name), getattr(gc, name),
                                       rtol=0, atol=1e-13 * scale ** 2,
                                       err_msg=name)


class TestAdmissibility:
    def test_identity_map_not_flagged(self):
        n, d = 5, 2
        field = GainField(k=np.zeros((n, d)), k_jac=np.zeros((n, d, d)),
                          u=np.zeros((n, d)), u_jac=np.zeros((n, d, d)))
        flags, dets = check_admissible(field, dz=0.3, dt=0.01)
        assert not flags.any()
        np.testing.assert_allclose(dets, 1.0, atol=1e-15)

    def test_singular_displacement_flagged(self):
        """A gain slope of -1/dz collapses the update map: the displacement
        Jacobian I + dz * grad K^T vanishes and must be flagged."""
        dz = 0.2
        k_jac = np.zeros((3, 1, 1))
        k_jac[1, 0, 0] = -1.0 / dz
        field = GainField(k=np.zeros((3, 1)), k_jac=k_jac,
                          u=np.zeros((3, 1)), u_jac=np.zeros((3, 1, 1)))
        flags, dets = check_admissible(field, dz=dz, dt=0.01)
        np.testing.assert_array_equal(flags, [False, True, False])
        assert dets[1] == pytest.approx(0.0, abs=1e-12)

    def test_orientation_reversal_flagged(self):
        """Negative determinants (folded maps) are inadmissible too."""
        k_jac = np.full((1, 1, 1), -3.0)
        field = GainField(k=np.zeros((1, 1)), k_jac=k_jac,
                          u=np.zeros((1, 1)), u_jac=np.zeros((1, 1, 1)))
        flags, dets = check_admissible(field, dz=1.0, dt=0.0)
        assert flags[0]
        assert dets[0] == pytest.approx(-2.0)


    def test_non_finite_determinant_flagged(self):
        """A NaN or infinite Jacobian entry gives a determinant that is not
        finite; it must be flagged, not pass as admissible."""
        k_jac = np.zeros((3, 1, 1))
        k_jac[1, 0, 0] = np.nan
        k_jac[2, 0, 0] = np.inf
        field = GainField(k=np.zeros((3, 1)), k_jac=k_jac,
                          u=np.zeros((3, 1)), u_jac=np.zeros((3, 1, 1)))
        flags, dets = check_admissible(field, dz=0.3, dt=0.01)
        np.testing.assert_array_equal(flags, [False, True, True])
        assert dets[0] == 1.0


class TestClosedFormDeterminant:
    """det(I + grad v^T) in closed form for d <= 2."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_lu(self, d):
        gen = np.random.default_rng(40 + d)
        n = 4000
        field = GainField(k=np.zeros((n, d)),
                          k_jac=gen.normal(scale=1.5, size=(n, d, d)),
                          u=np.zeros((n, d)),
                          u_jac=gen.normal(size=(n, d, d)))
        dz, dt = 0.7, 0.05
        a = np.eye(d) + (field.k_jac * dz + field.u_jac * dt)
        ref = np.linalg.det(a)
        assert (ref > 0).any() and (ref < 0).any()
        flags, dets = check_admissible(field, dz, dt)
        np.testing.assert_array_equal(flags, ref <= 1e-8)
        # away from cancellation (|det| well above the rounding scale, the
        # product of the row norms) both are accurate to a few ulp
        scale = np.prod(np.linalg.norm(a, axis=2), axis=1)
        sound = np.abs(ref) >= 0.05 * scale
        assert sound.mean() > 0.3
        np.testing.assert_allclose(dets[sound], ref[sound], rtol=1e-13,
                                   atol=0)


class TestGainResidualOnGrid:
    """Weak-form defect |d/dx(pK) + (h - h_hat) p| on a standard normal."""

    def setup_method(self):
        self.x = np.linspace(-8.0, 8.0, 2001)
        self.p = np.exp(-0.5 * self.x ** 2) / np.sqrt(2.0 * np.pi)

    def test_zero_gain_defect(self):
        """With K = 0 the defect is max |x| p(x), attained at x = 1."""
        res = gain_residual_on_grid(self.x, self.p, self.x,
                                    np.zeros_like(self.x))
        phi_at_one = np.exp(-0.5) / np.sqrt(2.0 * np.pi)
        assert res == pytest.approx(0.24197072451914342, rel=1e-12)
        assert res == pytest.approx(phi_at_one, rel=1e-6)

    def test_exact_gain_near_zero_defect(self):
        """K = 1 solves the equation for h = x exactly; what is left is
        second-order discretization error."""
        res = gain_residual_on_grid(self.x, self.p, self.x,
                                    np.ones_like(self.x))
        assert res <= 1e-4

    def test_wrong_gain_detected(self):
        res = gain_residual_on_grid(self.x, self.p, self.x,
                                    2.0 * np.ones_like(self.x))
        assert res > 0.1
