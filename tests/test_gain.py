"""Tests for the gain-function solvers and admissibility diagnostics."""

import math
import time
import tracemalloc
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpf_lab import (
    GainField,
    ModelValidationError,
    ParticleEnsemble,
    SdeModel,
    check_admissible,
    compute_gain,
    constant_gain,
    ensemble_stats,
    exact_gain,
    galerkin_gain,
    make_model,
    monomial_exponents,
    sample_initial_ensemble,
)
from fpf_lab.config import MAX_DIM, MAX_GALERKIN_TABLE
from fpf_lab.fields import Polynomial, all_exponents, monomial_values
from fpf_lab.gain import (SingularGainError, _basis_table, _det,
                          galerkin_table_size)
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
        # particle-constant: a particle axis of length 1
        assert field.k.shape == (1, 1)
        np.testing.assert_array_equal(field.k_jac, np.zeros((1, 1, 1)))

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
        # particle-constant: a particle axis of length 1
        assert field.k.shape == (1, 2)
        np.testing.assert_array_equal(field.k_jac, np.zeros((1, 2, 2)))

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


def _inline_model(d, affine):
    """Drift -x_i; h = x1 (affine) or x1 + x1 x_d, whose partials each sum
    unit-weight monomials, so that h and its gradient take the same bits
    at a particle whatever the rows evaluated beside it."""
    e = np.eye(d, dtype=int)
    terms = {tuple(e[0]): 1.0}
    if not affine:
        terms[tuple(e[0] + e[-1])] = 1.0
    return SdeModel([Polynomial(d, {tuple(e[i]): -1.0}) for i in range(d)],
                    Polynomial(d, terms), np.eye(d), "inline")


def _seed_stats(stats, s):
    """The summary of ensemble s of a batch."""
    return PosteriorStats(stats.mean[s], stats.cov[s], stats.h_hat[s],
                          stats.h_vals[s])


class TestGalerkinBatch:
    @pytest.mark.parametrize("ridge", [None, 1e-3])
    @pytest.mark.parametrize("affine", [True, False])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batch_equals_each_seed(self, d, affine, ridge):
        """compute_gain's Galerkin field of a batch (S, N, d) holds, in
        slice s, the bits of galerkin_gain on ensemble s alone: k, k_jac,
        u, u_jac and the coefficients, for an affine h (gradient (1, d))
        and a non-affine one (gradient (S, N, d)), with the default ridge
        and an explicit one."""
        model = _inline_model(d, affine)
        states = np.random.default_rng(d).standard_normal((3, 40, d))
        ens = ParticleEnsemble(states=states, time=0.0, seed=np.arange(3),
                               streams=np.arange(40, dtype=np.uint64))
        stats = ensemble_stats(ens, model.obs_at)
        h_grad = model.obs_grad_at(states)
        assert h_grad.shape == ((1, d) if affine else states.shape)
        batch = compute_gain(model, states, stats, "galerkin", ridge=ridge)
        for s in range(3):
            alone = galerkin_gain(states[s], _seed_stats(stats, s),
                                  h_grad if affine else h_grad[s],
                                  ridge=ridge)
            for name in ("k", "k_jac", "u", "u_jac", "coeffs"):
                a, b = getattr(batch, name)[s], getattr(alone, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_singular_batch_names_its_first_singular_seed(self):
        """Without a ridge, of three ensembles only the one at index 1,
        collapsed onto one point, has a singular system: the batch raises
        that seed's error with index 1.  The ensemble at index 0, spread
        over 1e-5, has a system of numerical rank 2 < 3 that its solve
        still solves, so an index from a rank tolerance would be 0."""
        model = make_model("linear1d")
        rng = np.random.default_rng(3)
        states = np.stack([1e-5 * rng.standard_normal((40, 1)),
                           np.full((40, 1), 0.5),
                           rng.standard_normal((40, 1))])
        ens = ParticleEnsemble(states=states, time=0.0, seed=np.arange(3),
                               streams=np.arange(40, dtype=np.uint64))
        stats = ensemble_stats(ens, model.obs_at)
        h_grad = model.obs_grad_at(states)
        x = states[0, :, 0]
        grads = np.stack([np.ones_like(x), 2 * x, 3 * x ** 2])
        assert np.linalg.matrix_rank(grads @ grads.T / len(x)) == 2
        alone = []
        for s in range(3):
            try:
                galerkin_gain(states[s], _seed_stats(stats, s), h_grad,
                              ridge=0.0)
            except SingularGainError as exc:
                alone.append((s, exc.index, str(exc)))
        assert [a[:2] for a in alone] == [(1, ())]
        with pytest.raises(SingularGainError) as batch:
            compute_gain(model, states, stats, "galerkin", ridge=0.0)
        assert batch.value.index == 1
        assert str(batch.value) == alone[0][2]


def _sum_form_u(states, stats, h_grad, coeffs, degree=3):
    """u and u_jac of the Galerkin field with coefficients `coeffs`, by
    galerkin_gain's earlier formulas: each sum over l a Python sum() from
    0, the third partials gathered one l at a time."""
    d = states.shape[-1]
    _, rows, weights, index = _basis_table(d, degree)
    mono = monomial_values(states, rows)
    phi = ((coeffs[..., None, None, :] @ weights)[..., 0, :]
           @ mono).swapaxes(0, -2)
    k, hess = phi[index[1]], phi[index[2]]
    hs = stats.h_vals + np.asarray(stats.h_hat)[..., None]
    h_grad = h_grad.reshape((1,) * (states.ndim - h_grad.ndim) + h_grad.shape)
    h_grad = h_grad.transpose(-1, *range(states.ndim - 1))
    u = -0.5 * k * hs + 0.5 * sum(k[l] * hess[l] for l in range(d))
    u_jac = (-0.5 * hs * hess
             - 0.5 * h_grad[:, None] * k
             + 0.5 * sum(hess[:, l, None] * hess[l] for l in range(d))
             + 0.5 * sum(k[l] * phi[index[3][:, l]] for l in range(d)))
    return (u.transpose(*range(1, u.ndim), 0),
            u_jac.transpose(*range(2, u_jac.ndim), 0, 1))


def _assert_same_bits(field, reference):
    for got, want in zip((field.u, field.u_jac), reference):
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


class TestGalerkinAgainstSumForm:
    """galerkin_gain sums over l in place from the l = 0 term; that can
    differ from a sum from 0 only in the sign of an all-zero sum.  On these
    ensembles, exact zeros included, not a bit differs."""

    @pytest.mark.parametrize("affine", [True, False])
    @pytest.mark.parametrize("shape", [(40, 1), (40, 2), (40, 3),
                                       (3, 40, 2)],
                             ids=["d1", "d2", "d3", "d2-3-seeds"])
    def test_random_ensembles(self, shape, affine):
        model = _inline_model(shape[-1], affine)
        gen = np.random.default_rng(len(shape) + shape[-1])
        states = gen.standard_normal(shape)
        ens = ParticleEnsemble(states=states, time=0.0,
                               seed=np.arange(3) if len(shape) == 3 else 0,
                               streams=np.arange(40, dtype=np.uint64))
        stats = ensemble_stats(ens, model.obs_at)
        h_grad = model.obs_grad_at(states)
        field = galerkin_gain(states, stats, h_grad)
        _assert_same_bits(field, _sum_form_u(states, stats, h_grad,
                                             field.coeffs))

    def test_particles_on_an_axis(self):
        """Every particle on the x1 axis and h = x1, whose gradient's x2
        component is 0: the coefficients of every monomial with x2 vanish,
        so k_2, the x2 rows of the Hessian and every x2 term of u are exact
        zeros, and so are whole sums over l."""
        states = np.random.default_rng(5).standard_normal((200, 2))
        states[:, 1] = 0.0
        stats = _stats_for(states, lambda s: s[:, 0])
        h_grad = np.array([[1.0, 0.0]])
        field = galerkin_gain(states, stats, h_grad)
        assert (field.k[:, 1] == 0.0).all() and (field.u[:, 1] == 0.0).all()
        assert (field.u_jac[:, :, 1] == 0.0).all()
        _assert_same_bits(field, _sum_form_u(states, stats, h_grad,
                                             field.coeffs))


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
            np.testing.assert_allclose(g1.k, np.broadcast_to(gc.k, g1.k.shape),
                                       rtol=0, atol=1e-10)

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

    def test_largest_admitted_dimension_enumerates_only_its_basis(self):
        """Config admits degree 2 at MAX_DIM = 20; its 230 monomials come
        at once, not from filtering the 3^20 grid {0..2}^20 (d = 14 first,
        whose 3^14 grid alone takes seconds to filter), and so does the
        uncached table of all 231 exponents they are drawn from."""
        assert galerkin_table_size(MAX_DIM, 2) <= MAX_GALERKIN_TABLE
        for d in (14, MAX_DIM):
            start = time.perf_counter()
            exps = monomial_exponents(d, 2)
            assert time.perf_counter() - start < 1.0
            start = time.perf_counter()
            assert len(all_exponents.__wrapped__(d, 2)) == math.comb(d + 2, 2)
            assert time.perf_counter() - start < 1.0
        rows = [tuple(a) for a in exps.tolist()]
        assert len(rows) == len(set(rows)) == math.comb(MAX_DIM + 2, 2) - 1
        assert all(1 <= sum(a) <= 2 for a in rows)
        assert rows == sorted(rows, key=lambda a: (sum(a), a))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_table_size_is_the_basis_table_size(self, d):
        """galerkin_table_size, which config caps, counts the entries of
        the weights table that the Galerkin gain allocates."""
        for deg in (1, 2, 3):
            assert galerkin_table_size(d, deg) == _basis_table(d, deg)[2].size


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
            a = getattr(g1, name)
            np.testing.assert_allclose(a, np.broadcast_to(getattr(gc, name),
                                                          a.shape),
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


def _field_of(model, seeds, n, method):
    """The gain field of `method` on a sampled ensemble of `model`, one
    seed or a batch."""
    ens = sample_initial_ensemble(model.dim, n, np.zeros(model.dim),
                                  0.5 * np.eye(model.dim), seed=seeds)
    stats = ensemble_stats(ens, model.obs_at)
    return compute_gain(model, ens.states, stats, method)


def _dense_cubic_h(d):
    """A d-dimensional model with h = x1 + 1e-4 * every cubic monomial."""
    cubics = {tuple(np.bincount(c, minlength=d)): 1e-4 for c in
              combinations_with_replacement(range(d), 3)}
    cubics[tuple(np.eye(d, dtype=int)[0])] = 1.0
    drift = [Polynomial(d, {tuple(-e): -1.0}) for e in -np.eye(d, dtype=int)]
    return SdeModel(drift, Polynomial(d, cubics), np.eye(d), "dense-cubic")


class TestAdmissibleInOneArray:
    """check_admissible builds I + grad v^T in one array: its flags and
    determinants are those of _det(I + (k_jac dz + u_jac dt)), bit for bit
    on these fields (a zero's sign aside, see TestIdentityOnTheDiagonal),
    and a per-particle field costs one (N, d, d) array beyond its inputs."""

    @pytest.mark.parametrize("case", [
        "dense-cubic-d20-constant", "linear2d-galerkin",
        "linear1d-3-seed-exact", "cubic-sensor-2-seed-constant",
        "linear2d-constant"])
    def test_bits_equal_the_summed_displacement(self, case):
        model, seeds, method = {
            "dense-cubic-d20-constant": (_dense_cubic_h(20), 5, "constant"),
            "linear2d-galerkin": (make_model("linear2d"), 5, "galerkin"),
            "linear1d-3-seed-exact": (make_model("linear1d"),
                                      np.array([3, 4, 5]), "exact_gaussian"),
            "cubic-sensor-2-seed-constant": (make_model("cubic-sensor"),
                                             np.array([6, 7]), "constant"),
            "linear2d-constant": (make_model("linear2d"), 5, "constant"),
        }[case]
        field = _field_of(model, seeds, 200, method)
        dt = 0.01
        for dz in (0.03, -2.0, 50.0):
            d = field.k_jac.shape[-1]
            ref = _det(np.eye(d) + (field.k_jac * dz + field.u_jac * dt))
            flags, dets = check_admissible(field, dz, dt)
            assert dets.shape == ref.shape and dets.dtype == ref.dtype
            assert dets.tobytes() == ref.tobytes()
            np.testing.assert_array_equal(
                flags, ~((ref > 1e-8) & np.isfinite(ref)))
            assert flags.shape == ref.shape

    def test_traced_peak_is_one_jacobian(self):
        """A non-affine h's constant gain has a per-particle u_jac; the
        check holds one (N, d, d) array beside it, not two."""
        n, d = 5000, 8
        gen = np.random.default_rng(8)
        states = gen.normal(size=(n, d))
        stats = _stats_for(states, lambda s: (s ** 3).sum(axis=1))
        field = constant_gain(states, stats, 3 * states ** 2)
        assert field.u_jac.shape == (n, d, d)
        check_admissible(field, 0.1, 0.01)      # warm up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            check_admissible(field, 0.1, 0.01)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        one = field.u_jac.nbytes
        # beyond it, the determinants and the flags with their three bool
        # temporaries: (N,) arrays of 8 and 1 bytes an entry
        assert one <= peak <= one + n * (8 + 4) + 16384


class TestIdentityOnTheDiagonal:
    """check_admissible adds 1.0 to each diagonal entry; adding the matrix
    I also adds +0.0 off the diagonal, which turns -0.0 into +0.0.  The
    flags are those of the I form, and a determinant can differ from its
    only in the sign of an exact zero."""

    @pytest.mark.parametrize("n", [1, 300], ids=["constant", "varying"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_flags_equal_the_identity_form(self, d, n):
        gen = np.random.default_rng(10 * d + n)
        dz, dt = 0.5, 0.25
        k_jac = gen.normal(size=(n, d, d))
        u_jac = gen.normal(size=(n, d, d))
        # -0.0 off the diagonal in both Jacobians stays -0.0 in their sum,
        # and a diagonal k_jac of -1/dz with u_jac 0 cancels I exactly
        off = (gen.random((n, d, d)) < 0.5) & ~np.eye(d, dtype=bool)
        k_jac[off] = u_jac[off] = -0.0
        cancel = (gen.random((n, d, d)) < 0.3) & np.eye(d, dtype=bool)
        k_jac[cancel], u_jac[cancel] = -1.0 / dz, 0.0
        field = GainField(k=np.zeros((n, d)), k_jac=k_jac,
                          u=np.zeros((n, d)), u_jac=u_jac)
        a = field.u_jac * dt
        a += field.k_jac * dz
        a += np.eye(d)
        ref = _det(a)
        flags, dets = check_admissible(field, dz, dt)
        np.testing.assert_array_equal(flags,
                                      ~((ref > 1e-8) & np.isfinite(ref)))
        np.testing.assert_array_equal(dets, ref)
        moved = np.signbit(dets) != np.signbit(ref)
        assert (dets[moved] == 0.0).all()
        if n > 1:
            assert (dets == 0.0).any()


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

