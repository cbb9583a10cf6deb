"""Tests for the matrix-calculus identities behind the particle update.

The probe fields are low-degree polynomials (density = exp(polynomial)),
so every inner derivative is analytic and finite differences appear only
in the outermost layer of a check.
"""

from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpf_lab import fields
from fpf_lab.fields import (
    ExpPolyDensity,
    Polynomial,
    PolyScalarField,
    PolyVectorField,
    converges_quadratically,
    fd_grad,
)
from fpf_lab.identities import (
    QUADRATIC_IDENTITY_IDS,
    bounded_slope_grad_log,
    double_divergence_expansion_check,
    dt_order_residual,
    dz_order_residual,
    el_bracket_residual,
    el_generator_invariance,
    observation_marginal,
    piola_residual,
    poincare_ratio_sweep,
    quadratic_term_identity,
    weighted_poisson_derivative_check,
)


def _phi(x):
    return np.exp(-0.5 * np.asarray(x, dtype=float) ** 2) \
        / np.sqrt(2.0 * np.pi)


def _std_normal():
    return ExpPolyDensity.gaussian([0.0], [[1.0]])


def _h_linear():
    return PolyScalarField(Polynomial(1, {(1,): 1.0}))


def _const_field(value=1.0):
    return PolyVectorField([Polynomial(1, {(0,): value})])


def _quadratic_probe(rng):
    d = int(rng.integers(1, 4))
    p = ExpPolyDensity.random_gaussian(d, rng)
    k = PolyVectorField.random(d, 3, rng, scale=0.4)
    x = rng.uniform(-0.6, 0.6, size=d)
    return p, k, x


class TestFieldPrimitives:
    def test_polynomial_diff_matches_fd(self):
        rng = np.random.default_rng(42)
        poly = Polynomial.random(3, 3, rng)
        x = np.array([0.3, -0.4, 0.2])
        analytic = PolyScalarField(poly).grad(x[None, :])[0]
        numeric = fd_grad(lambda pt: float(poly(pt[None, :])[0]), x, 1e-6)
        np.testing.assert_allclose(numeric, analytic, atol=1e-8)

    def test_vector_jacobian_convention(self):
        """jac[n, i, j] = d(component j)/d(x_i)."""
        field = PolyVectorField([Polynomial(2, {(2, 0): 1.0}),
                                 Polynomial(2, {(0, 1): 3.0})])
        j = field.jac(np.array([[0.5, -1.0]]))[0]
        np.testing.assert_allclose(j, [[1.0, 0.0], [0.0, 3.0]], atol=1e-15)

    def test_gaussian_log_gradient(self):
        mean = np.array([0.2, -0.1])
        cov = np.array([[1.0, 0.3], [0.3, 0.8]])
        p = ExpPolyDensity.gaussian(mean, cov)
        x = np.array([[0.4, 0.6]])
        expected = np.linalg.solve(cov, mean - x[0])
        np.testing.assert_allclose(p.grad_log(x)[0], expected, atol=1e-12)
        np.testing.assert_allclose(p.grad(x)[0], p.value(x)[0] * expected,
                                   atol=1e-12)

    def test_third_derivative_tensor_is_symmetric(self):
        rng = np.random.default_rng(9)
        f = PolyScalarField(Polynomial.random(2, 4, rng))
        t = f.third(np.array([[0.3, 0.7]]))[0]
        np.testing.assert_array_equal(t, np.transpose(t, (1, 0, 2)))
        np.testing.assert_array_equal(t, np.transpose(t, (0, 2, 1)))

    def test_convergence_helper(self):
        assert converges_quadratically(1e-3, 2e-4)
        assert not converges_quadratically(1e-3, 5e-4)
        # both gaps at roundoff: identity without any FD content
        assert converges_quadratically(1e-14, 3e-14)


def _oracle_diff(terms, axis):
    """d/dx_axis of a {exponents: coefficient} polynomial, term by term."""
    out = {}
    for alpha, c in terms.items():
        if alpha[axis] == 0:
            continue
        new = list(alpha)
        new[axis] -= 1
        out[tuple(new)] = out.get(tuple(new), 0.0) + c * alpha[axis]
    return out


def _oracle_partial(terms, axes, points):
    """d^axes of the polynomial at every point, from a chain of one-axis
    derivatives and one pow per term."""
    for axis in axes:
        terms = _oracle_diff(terms, axis)
    out = np.zeros(len(points))
    for alpha, c in terms.items():
        out += c * np.prod(points ** np.array(alpha), axis=1)
    return out


def _assert_partials_match(actual, terms_list, points, order):
    """actual[n, i, l, ..., j] against the oracle for component j, to
    1e-12 relative to the sum of the absolute values of its terms, plus the
    smallest normal double (subnormal results carry no relative precision)."""
    dim = points.shape[1]
    for axes in product(range(dim), repeat=order):
        for j, terms in enumerate(terms_list):
            expected = _oracle_partial(terms, axes, points)
            scale = _oracle_partial({a: abs(c) for a, c in terms.items()},
                                    axes, np.abs(points))
            got = actual[(slice(None),) + axes + (j,)]
            assert np.all(np.abs(got - expected)
                          <= 1e-12 * scale + np.finfo(float).tiny), \
                (axes, j, got, expected)


_COEFFS = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.5, -2.5]),
                    st.floats(-4.0, 4.0))


@st.composite
def _polynomials_and_points(draw):
    dim = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 4)] * dim)
    terms = [draw(st.dictionaries(exponents, _COEFFS, max_size=8))
             for _ in range(dim)]
    n = draw(st.integers(1, 50))
    coords = draw(st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
                           min_size=n * dim, max_size=n * dim))
    return terms, np.array(coords).reshape(n, dim)


class TestPolynomialKernelAgainstOracle:
    """The power-table kernel against the derivative-chain evaluation it
    replaced: values and every partial of order <= 3."""

    @settings(max_examples=60, deadline=None)
    @given(_polynomials_and_points())
    @example(([{}], np.array([[0.0], [-1.5]])))
    @example(([{(1, 0): 2.0, (0, 1): -2.0}, {(2, 2): 1.0, (0, 0): -1.0}],
              np.array([[1.0, 1.0], [0.0, -0.5]])))
    def test_fields_match_derivative_chains(self, case):
        terms, points = case
        dim = points.shape[1]
        polys = [Polynomial(dim, t) for t in terms]
        scalar = PolyScalarField(polys[0])
        _assert_partials_match(scalar.value(points)[:, None], terms[:1],
                               points, 0)
        for order, method in enumerate((scalar.grad, scalar.hess,
                                        scalar.third), start=1):
            _assert_partials_match(method(points)[..., None], terms[:1],
                                   points, order)
        field = PolyVectorField(polys)
        for order, method in enumerate((field.value, field.jac, field.second,
                                        field.third)):
            _assert_partials_match(method(points), terms, points, order)
        for f, views in ((scalar, (scalar.value, scalar.grad, scalar.hess,
                                   scalar.third)),
                         (field, (field.value, field.jac, field.second,
                                  field.third))):
            jet = f.partials(points, 3)
            assert len(jet) == 4
            for got, view in zip(jet, views):
                np.testing.assert_array_equal(got, view(points))

        with mpmath.workdps(50):
            x_mp = [mpmath.mpf(float(v)) for v in points[-1]]
            jac = np.array([[float(v) for v in row]
                            for row in field.jac_one(x_mp)])
            value = float(polys[0].eval_one(x_mp))
        _assert_partials_match(jac[None], terms, points[-1:], 1)
        _assert_partials_match(np.array([[value]]), terms[:1], points[-1:], 0)


class TestOneJetPerField:
    """Each probe field's partials come from one power table."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_density_partials_match_product_rule(self, dim):
        """partials(points, 3) against the product rule on p = exp(q),
        written out from separate evaluations of q's partials."""
        rng = np.random.default_rng(30 + dim)
        for p in (ExpPolyDensity.random_gaussian(dim, rng),
                  ExpPolyDensity(Polynomial.random(dim, 3, rng, scale=0.3))):
            x = rng.uniform(-1.0, 1.0, size=(7, dim))
            pv = np.exp(p.q.value(x))
            gq, hq, tq = p.q.grad(x), p.q.hess(x), p.q.third(x)
            sym = (np.einsum("nij,nk->nijk", hq, gq)
                   + np.einsum("nik,nj->nijk", hq, gq)
                   + np.einsum("njk,ni->nijk", hq, gq))
            outer3 = np.einsum("ni,nj,nk->nijk", gq, gq, gq)
            expected = [
                pv, pv[:, None] * gq,
                pv[:, None, None] * (hq + np.einsum("ni,nj->nij", gq, gq)),
                pv[:, None, None, None] * (tq + sym + outer3)]
            got = p.partials(x, 3)
            assert len(got) == 4
            for g, e in zip(got, expected):
                np.testing.assert_array_equal(g, e)
            for g, view in zip(got, (p.value, p.grad, p.hess, p.third)):
                np.testing.assert_array_equal(view(x), g)

    @pytest.mark.parametrize("n", [1, 2, 40])
    def test_value_builds_no_partial_tables(self, n):
        """A field builds the weights of the orders asked so far: value
        those of order 0 alone, grad and jac those of orders <= 1, and
        each equals the same order of partials(x, 3) bit for bit."""
        rng = np.random.default_rng(n)
        for dim in (1, 2, 3):
            field = PolyVectorField.random(dim, 3, rng)
            scalar = PolyScalarField(field.components[0])
            x = rng.uniform(-2.0, 2.0, size=(n, dim))
            value, h = field.value(x), scalar.value(x)
            for built in (field, field.components[0]._field):
                assert len(built._weight_tables[1]) == 1
            jac, grad = field.jac(x), scalar.grad(x)
            for built in (field, field.components[0]._field):
                assert len(built._weight_tables[1]) == 2
            for got, full in ((value, field.partials(x, 3)[0]),
                              (jac, field.partials(x, 3)[1]),
                              (h, scalar.partials(x, 3)[0]),
                              (grad, scalar.partials(x, 3)[1])):
                assert got.tobytes() == full.tobytes()

    def test_expansion_checks_evaluate_each_field_once(self, monkeypatch):
        """dt order: p, h, K, u; dz order: p, h, K; identity 1: log p, K."""
        calls = []
        kernel = fields.monomial_values

        def counting(points, monomials):
            calls.append(len(points))
            return kernel(points, monomials)

        monkeypatch.setattr(fields, "monomial_values", counting)
        p, h, k = _std_normal(), _h_linear(), _const_field(1.0)
        u = PolyVectorField([Polynomial(1, {(1,): -0.5})])
        x = np.array([0.3])
        for check, expected in (
                (lambda: dt_order_residual(p, h, k, u, x), 4),
                (lambda: dz_order_residual(p, h, k, x), 3),
                (lambda: quadratic_term_identity(1, p, k, x), 2)):
            calls.clear()
            check()
            assert len(calls) == expected


class TestPiolaIdentity:
    def test_two_d_hand_example(self):
        """v = (x2^2, x1^2): the cofactor entries of I + grad v^T are
        linear, so the central differences are exact and the divergences
        cancel to roundoff."""
        v = PolyVectorField([Polynomial(2, {(0, 2): 1.0}),
                             Polynomial(2, {(2, 0): 1.0})])
        res = piola_residual(v, np.array([0.3, -0.2]))
        assert np.max(np.abs(res)) <= 1e-12

    def test_one_d_is_exactly_zero(self):
        """In one dimension the only cofactor is the empty minor 1, whose
        derivative vanishes identically."""
        v = PolyVectorField([Polynomial(1, {(3,): 0.7})])
        res = piola_residual(v, np.array([0.4]))
        np.testing.assert_array_equal(res, [0.0])

    def test_singular_displacement_rejected(self):
        v = PolyVectorField([Polynomial(1, {(1,): -1.0})])
        with pytest.raises(ValueError, match="singular"):
            piola_residual(v, np.array([0.0]))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_cubic_fields(self, dim):
        """FD residual small at step 1e-4 and shrinking at least 3x when
        the step halves (up to a roundoff floor)."""
        rng = np.random.default_rng(11 + dim)
        for _ in range(5):
            v = PolyVectorField.random(dim, 3, rng, scale=0.4)
            x = rng.uniform(-0.8, 0.8, size=dim)
            r = float(np.max(np.abs(piola_residual(v, x, fd_step=1e-4))))
            r_half = float(np.max(np.abs(piola_residual(v, x,
                                                        fd_step=5e-5))))
            assert r <= 1e-6
            assert r_half <= max(r / 3.0, 1e-10)


class TestExpansionOrders:
    def test_dz_residual_vanishes_for_unit_gain(self):
        """Standard Gaussian, h = x: K = 1 solves the gain equation, so
        the dz-order coefficient cancels analytically."""
        p, h, k = _std_normal(), _h_linear(), _const_field(1.0)
        for x0 in np.linspace(-2.0, 2.0, 9):
            res = dz_order_residual(p, h, k, np.array([x0]))
            assert np.max(np.abs(res)) <= 1e-12

    def test_dz_residual_vanishes_for_affine_families(self):
        """Gaussian prior, affine h: K = cov @ H is the closed-form gain
        in any dimension."""
        rng = np.random.default_rng(5)
        for i in range(6):
            d = 1 + i % 3
            mean = 0.3 * rng.standard_normal(d)
            a = 0.3 * rng.standard_normal((d, d))
            cov = np.eye(d) + a @ a.T
            hvec = rng.standard_normal(d)
            p = ExpPolyDensity.gaussian(mean, cov)
            h_terms = {tuple(int(j == l) for l in range(d)): float(hvec[j])
                       for j in range(d)}
            h_terms[(0,) * d] = float(rng.standard_normal())
            h = PolyScalarField(Polynomial(d, h_terms))
            gain = cov @ hvec
            k = PolyVectorField([Polynomial(d, {(0,) * d: float(gain[j])})
                                 for j in range(d)])
            x = rng.uniform(-0.7, 0.7, size=d)
            assert np.max(np.abs(dz_order_residual(p, h, k, x))) <= 1e-10

    def test_dz_residual_detects_wrong_gain(self):
        """K = 2 is not the gain for the standard Gaussian; the residual
        is -p^2 and must be visibly nonzero."""
        p, h = _std_normal(), _h_linear()
        res = dz_order_residual(p, h, _const_field(2.0), np.array([0.5]))
        assert abs(res[0]) == pytest.approx(_phi(0.5) ** 2, rel=1e-10)
        assert abs(res[0]) > 0.01

    def test_dt_residual_vanishes_for_optimal_pair(self):
        """(K = 1, u = -x/2) closes the dt-order equation for the
        standard Gaussian with h = x."""
        p, h, k = _std_normal(), _h_linear(), _const_field(1.0)
        u = PolyVectorField([Polynomial(1, {(1,): -0.5})])
        for x0 in np.linspace(-2.0, 2.0, 9):
            res = dt_order_residual(p, h, k, u, np.array([x0]))
            assert np.max(np.abs(res)) <= 1e-12

    def test_dt_residual_detects_missing_drift_correction(self):
        """Dropping u entirely leaves exactly the transported term
        -x p(x)^2, a clean closed-form detuning signature."""
        p, h, k = _std_normal(), _h_linear(), _const_field(1.0)
        u_zero = PolyVectorField([Polynomial(1, {})])
        res = dt_order_residual(p, h, k, u_zero, np.array([1.0]))
        assert res[0] == pytest.approx(-0.05854983152431917, rel=1e-12)
        for x0 in (-0.7, 0.5, 1.0):
            res = dt_order_residual(p, h, k, u_zero, np.array([x0]))
            assert res[0] == pytest.approx(-x0 * _phi(x0) ** 2, rel=1e-10)


class TestCancellationIdentities:
    ANALYTIC_IDS = (1, 2, 3, 4, 5)
    FD_IDS = (6, 7, 8)

    def test_id_range(self):
        assert QUADRATIC_IDENTITY_IDS == (1, 2, 3, 4, 5, 6, 7, 8)
        rng = np.random.default_rng(0)
        p, k, x = _quadratic_probe(rng)
        with pytest.raises(ValueError, match="identity_id"):
            quadratic_term_identity(9, p, k, x)

    @pytest.mark.parametrize("ident", ANALYTIC_IDS)
    def test_analytic_identities_cancel_to_roundoff(self, ident):
        rng = np.random.default_rng(100 + ident)
        for _ in range(8):
            p, k, x = _quadratic_probe(rng)
            lhs, rhs = quadratic_term_identity(ident, p, k, x)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    @pytest.mark.parametrize("ident", FD_IDS)
    def test_telescoped_identities_small_and_second_order(self, ident):
        """The three total-derivative identities difference an analytic
        scalar in the outer layer; the gap must be tiny at step 1e-4 and
        shrink quadratically between 1e-3 and 5e-4."""
        rng = np.random.default_rng(200 + ident)
        for _ in range(5):
            p, k, x = _quadratic_probe(rng)
            lhs, rhs = quadratic_term_identity(ident, p, k, x, fd_step=1e-4)
            assert np.max(np.abs(lhs - rhs)) <= 1e-5
            g = quadratic_term_identity(ident, p, k, x, fd_step=1e-3)
            gh = quadratic_term_identity(ident, p, k, x, fd_step=5e-4)
            assert converges_quadratically(np.max(np.abs(g[0] - g[1])),
                                           np.max(np.abs(gh[0] - gh[1])))


class TestDoubleDivergenceExpansion:
    def test_constant_gain_reduces_to_second_difference(self):
        """With K = 1 both sides are p'': the gap is pure FD truncation
        p'''' h^2 / 12 and must quarter when the step halves."""
        p, k = _std_normal(), _const_field(1.0)
        x = np.array([0.4])
        p4 = _phi(0.4) * (0.4 ** 4 - 6 * 0.4 ** 2 + 3)
        lhs, rhs = double_divergence_expansion_check(p, k, x, fd_step=1e-2)
        gap = abs(lhs - rhs)
        assert gap == pytest.approx(abs(p4) * 1e-4 / 12.0, rel=5e-3)
        lhs2, rhs2 = double_divergence_expansion_check(p, k, x, fd_step=5e-3)
        assert converges_quadratically(gap, abs(lhs2 - rhs2))

    def test_random_probes_match_product_rule(self):
        rng = np.random.default_rng(2112)
        for _ in range(5):
            p, k, x = _quadratic_probe(rng)
            lhs, rhs = double_divergence_expansion_check(p, k, x,
                                                         fd_step=1e-4)
            assert abs(lhs - rhs) <= 1e-5


class TestTransportBracket:
    CASES = [(0.0, 1.0, 0.3), (0.2, 0.8, -0.4), (-0.3, 1.3, 0.1)]

    @staticmethod
    def _displacement(mean, var, dt, y, scale=1.0):
        dz = y * dt
        return PolyVectorField([Polynomial(
            1, {(0,): scale * (var * dz - 0.5 * var * mean * dt),
                (1,): scale * (-0.5 * var * dt)})])

    @pytest.mark.parametrize("mean,var,x0", CASES)
    def test_optimal_displacement_is_second_order(self, mean, var, x0):
        """v = K dz + u dt built from the closed-form Gaussian gain leaves
        only an O(dz^2 + dt^2) remainder in the stationarity bracket."""
        p = ExpPolyDensity.gaussian([mean], [[var]])
        h, y, dt = _h_linear(), 1.0, 0.01
        v = self._displacement(mean, var, dt, y)
        r = np.max(np.abs(el_bracket_residual(p, h, v, np.array([x0]),
                                              y, dt)))
        assert r <= 1e-5

    def test_residual_grows_quadratically_in_step(self):
        mean, var, x0 = self.CASES[0]
        p = ExpPolyDensity.gaussian([mean], [[var]])
        h, y = _h_linear(), 1.0
        r = {}
        for dt in (0.01, 0.02):
            v = self._displacement(mean, var, dt, y)
            r[dt] = np.max(np.abs(el_bracket_residual(
                p, h, v, np.array([x0]), y, dt)))
        assert r[0.02] / r[0.01] >= 3.0

    def test_detuned_displacement_breaks_stationarity(self):
        """Doubling v produces a first-order residual, an order of
        magnitude above the optimal one."""
        mean, var, x0 = self.CASES[0]
        p = ExpPolyDensity.gaussian([mean], [[var]])
        h, y, dt = _h_linear(), 1.0, 0.01
        r_opt = np.max(np.abs(el_bracket_residual(
            p, h, self._displacement(mean, var, dt, y), np.array([x0]),
            y, dt)))
        r_bad = np.max(np.abs(el_bracket_residual(
            p, h, self._displacement(mean, var, dt, y, scale=2.0),
            np.array([x0]), y, dt)))
        assert r_bad / r_opt >= 10.0


class TestGeneratorInvariance:
    def test_normalized_residuals_agree_across_generators(self):
        """After dividing by f''(ratio), the stationarity residual keeps
        no trace of which convex generator produced it."""
        p = ExpPolyDensity.gaussian([0.1], [[0.9]])
        h = PolyScalarField(Polynomial(1, {(1,): 1.0, (2,): 0.3}))
        v = PolyVectorField([Polynomial(1, {(0,): 0.01, (1,): -0.02})])
        res = el_generator_invariance(p, h, v, np.array([0.2]), y=0.4,
                                      dt=0.01)
        assert set(res) == {"kl", "hellinger", "tv"}
        vecs = list(res.values())
        scale = max(np.max(np.abs(r)) for r in vecs)
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                gap = np.max(np.abs(vecs[i] - vecs[j]))
                assert gap <= 1e-6 * scale

    def test_generator_subset(self):
        p = ExpPolyDensity.gaussian([0.0], [[1.0]])
        res = el_generator_invariance(
            p, _h_linear(), PolyVectorField([Polynomial(1, {(0,): 0.01})]),
            np.array([0.1]), y=0.2, dt=0.01,
            generators=("kl", "hellinger"))
        assert set(res) == {"kl", "hellinger"}

    def test_observation_marginal_matches_convolution(self):
        """For p = N(0,1), h = x the sampled observation is Gaussian with
        variance 1 + 1/dt."""
        var_y = 1.0 + 1.0 / 0.01
        expected = np.exp(-0.5 * 0.4 ** 2 / var_y) \
            / np.sqrt(2.0 * np.pi * var_y)
        got = observation_marginal(_std_normal(), _h_linear(), 0.4, 0.01)
        assert got == pytest.approx(expected, rel=1e-6)


class TestPoincareRatioSweep:
    RADII = [1.0, 2.0, 4.0, 8.0]

    def test_bounded_slope_profile(self):
        x = np.linspace(-50.0, 50.0, 1001)
        s = bounded_slope_grad_log(x)
        assert np.max(np.abs(s)) < 1.0
        np.testing.assert_allclose(s, -bounded_slope_grad_log(-x),
                                   atol=1e-15)

    def test_ratios_frozen_values_and_growth(self):
        """Receding balls of doubling radius: the norm ratio keeps
        climbing, so no single constant works on all balls."""
        ratios = poincare_ratio_sweep(2, bounded_slope_grad_log, self.RADII)
        np.testing.assert_allclose(
            ratios, [0.54843905, 0.99077232, 1.50382568, 1.83171238],
            rtol=1e-6)
        assert np.all(np.diff(ratios) > 0)
        assert ratios[-1] / ratios[0] >= 3.0

    def test_fixed_centers_overshoot_is_not_monotone(self):
        """Anchoring every ball at the origin lets the ratio overshoot its
        large-radius limit, which is why the sweep recedes by default."""
        ratios = poincare_ratio_sweep(2, bounded_slope_grad_log, self.RADII,
                                      centers=[0.0, 0.0, 0.0, 0.0])
        assert not np.all(np.diff(ratios) > 0)

    def test_gaussian_violates_slope_hypothesis(self):
        with pytest.raises(ValueError, match="too large"):
            poincare_ratio_sweep(2, lambda x: -x, self.RADII)

    def test_q_below_one_rejected(self):
        with pytest.raises(ValueError, match="q must be"):
            poincare_ratio_sweep(0, bounded_slope_grad_log, self.RADII)


class TestWeightedPoissonSolve:
    X = np.linspace(-8.0, 8.0, 2001)

    def _p(self):
        return _phi(self.X)

    def test_linear_observation_gives_unit_derivative(self):
        """-(p phi')' = (x - 0) p is solved by phi' = 1 for the standard
        Gaussian; the derivative identity must hold on the same grid."""
        x = self.X
        res, phi_p = weighted_poisson_derivative_check(
            x, self._p(), x, h_grad_vals=np.ones_like(x),
            log_p_hess_vals=-np.ones_like(x))
        interior = np.abs(x) <= 3.0
        assert res <= 1e-3
        assert np.max(np.abs(phi_p[interior] - 1.0)) <= 1e-3

    def test_quadratic_observation(self):
        """h = x^2 has phi' = x; check the value at x = 2."""
        x = self.X
        res, phi_p = weighted_poisson_derivative_check(
            x, self._p(), x * x, h_grad_vals=2.0 * x,
            log_p_hess_vals=-np.ones_like(x))
        assert res <= 1e-3
        idx = int(np.argmin(np.abs(x - 2.0)))
        assert phi_p[idx] == pytest.approx(2.0, abs=1e-3)

    def test_constant_observation_is_inert(self):
        x = self.X
        res, phi_p = weighted_poisson_derivative_check(
            x, self._p(), np.full_like(x, 3.0),
            h_grad_vals=np.zeros_like(x),
            log_p_hess_vals=-np.ones_like(x))
        interior = np.abs(x) <= 3.0
        assert res <= 1e-9
        assert np.max(np.abs(phi_p[interior])) <= 1e-10
