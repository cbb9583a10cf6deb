"""Tests for the matrix-calculus identities behind the particle update.

The probe fields are low-degree polynomials (density = exp(polynomial)),
so every inner derivative is analytic and finite differences appear only
in the outermost layer of a check.
"""

import math
from functools import lru_cache
from itertools import combinations_with_replacement, product

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpf_lab import fields, verify
from fpf_lab.divergence import TV_DELTA
from fpf_lab.fields import (
    ExpPolyDensity,
    Polynomial,
    PolyScalarField,
    PolyVectorField,
    fd_grad,
)
from fpf_lab.grid import trapezoid
from fpf_lab.identities import (
    QUADRATIC_IDENTITY_IDS,
    _minors,
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


def random_polynomial(dim, degree, rng, scale=1.0):
    """Standard normal coefficients times scale on every exponent of total
    degree <= degree, from one vector draw (the same values, and the same
    generator state after, as one scalar draw per term)."""
    exponents = fields.all_exponents(dim, degree)
    return Polynomial._from_arrays(
        dim, exponents, scale * rng.standard_normal(len(exponents)))


def random_vector_field(dim, degree, rng, scale=1.0):
    """A field of dim random_polynomial components, drawn in turn."""
    return PolyVectorField([random_polynomial(dim, degree, rng, scale)
                            for _ in range(dim)])


def random_moments(dim, rng):
    """(mean, cov) of a random Gaussian probe: mean 0.3 z, cov I + a a^T
    with a 0.3 Z, in that order."""
    mean = 0.3 * rng.standard_normal(dim)
    a = 0.3 * rng.standard_normal((dim, dim))
    return mean, np.eye(dim) + a @ a.T


def _random_gaussian(dim, rng):
    """A Gaussian density of random_moments' draw."""
    return ExpPolyDensity.gaussian(*random_moments(dim, rng))


def _quadratic_probe(rng):
    d = int(rng.integers(1, 4))
    p = _random_gaussian(d, rng)
    k = random_vector_field(d, 3, rng, scale=0.4)
    x = rng.uniform(-0.6, 0.6, size=d)
    return p, k, x


def _el_probe(rng, d):
    """(p, h, v, x, y): an el-invariance probe built one field at a time:
    a Gaussian prior, a quadratic h, a small quadratic displacement, a
    point and an observation in dimension d."""
    p = _random_gaussian(d, rng)
    h = PolyScalarField(random_polynomial(d, 2, rng, scale=0.5))
    v = random_vector_field(d, 2, rng, scale=0.05)
    x = rng.uniform(-0.4, 0.4, size=d)
    y = float(0.3 * rng.standard_normal())
    return p, h, v, x, y


def _dz_probe(rng, d):
    """(p, h, k, x): a taylor dz probe built one field at a time: a
    Gaussian prior, an affine h and its closed-form gain K = cov @ H, and
    a point."""
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
    return p, h, k, rng.uniform(-0.7, 0.7, size=d)


def converges_quadratically(gap, gap_half):
    """True when halving fd_step cut the gap by >= 3, or both gaps already
    sit at the 1e-12 roundoff floor (FD-free identities)."""
    if abs(gap) <= 1e-12 and abs(gap_half) <= 1e-12:
        return True
    return abs(gap) >= 3.0 * abs(gap_half)


class TestFieldPrimitives:
    def test_polynomial_diff_matches_fd(self):
        rng = np.random.default_rng(42)
        poly = random_polynomial(3, 3, rng)
        x = np.array([0.3, -0.4, 0.2])
        field = PolyScalarField(poly)
        analytic = field.grad(x[None, :])[0]
        numeric = fd_grad(field.value, x, 1e-6)
        np.testing.assert_allclose(numeric, analytic, atol=1e-8)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_fd_grad_calls_fn_once_on_its_stencil(self, dim):
        """fn gets the (2d, d) stencil in one call: the rows x + step e_i,
        then the rows x - step e_i."""
        x = np.linspace(-0.5, 0.5, dim)
        calls = []

        def fn(points):
            calls.append(points.copy())
            return np.sum(points ** 2, axis=1)

        grad = fd_grad(fn, x, 1e-3)
        e = 1e-3 * np.eye(dim)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0],
                                      np.concatenate([x + e, x - e]))
        np.testing.assert_allclose(grad, 2.0 * x, atol=1e-12)

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
        np.testing.assert_allclose(p.partials(x, 1)[1][0],
                                   p.value(x)[0] * expected, atol=1e-12)

    def test_third_derivative_tensor_is_symmetric(self):
        rng = np.random.default_rng(9)
        f = PolyScalarField(random_polynomial(2, 4, rng))
        t = f.partials(np.array([[0.3, 0.7]]), 3)[3][0]
        np.testing.assert_array_equal(t, np.transpose(t, (1, 0, 2)))
        np.testing.assert_array_equal(t, np.transpose(t, (0, 2, 1)))

    @pytest.mark.parametrize("dim,degree,scale", [
        (1, 0, 1.0), (1, 3, 0.5), (2, 2, 0.05), (3, 3, 0.4), (3, 4, 1.0)])
    def test_random_polynomial_matches_scalar_draws(self, dim, degree,
                                                    scale):
        """One vector draw gives the coefficients, term order and
        generator state of one scalar draw per term."""
        for seed in range(20):
            gen, scalar = (np.random.default_rng(seed) for _ in range(2))
            got = random_polynomial(dim, degree, gen, scale)
            want = Polynomial(dim, {
                alpha: scale * scalar.standard_normal()
                for alpha in product(range(degree + 1), repeat=dim)
                if sum(alpha) <= degree})
            assert got.exponents.tobytes() == want.exponents.tobytes()
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert gen.standard_normal() == scalar.standard_normal()

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_random_polynomial_keeps_an_exact_zero_draw(self, zero):
        """A draw that holds an exact zero keeps its term, as the dict
        path does, with every term in its order."""
        class Draws:
            def standard_normal(self, n):
                draw = np.linspace(-1.0, 1.0, n) + 0.25
                draw[3] = zero
                return draw

        got = random_polynomial(2, 2, Draws(), 0.5)
        alphas = [alpha for alpha in product(range(3), repeat=2)
                  if sum(alpha) <= 2]
        want = Polynomial(2, dict(zip(alphas,
                                      0.5 * Draws().standard_normal(6))))
        assert len(got.coeffs) == 6
        assert got.terms[(1, 0)] == 0.0
        assert np.signbit(got.terms[(1, 0)]) == np.signbit(zero)
        assert got.exponents.tobytes() == want.exponents.tobytes()
        assert got.coeffs.tobytes() == want.coeffs.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_gaussian_matches_its_dict_oracle(self, dim):
        """ExpPolyDensity.gaussian's terms against the dict oracle: the
        same coefficient bytes exponent by exponent, in any term order
        (TestTermOrder), for random, diagonal (zero off-diagonal terms
        kept) and zero-mean (zero linear terms) Gaussians."""
        rng = np.random.default_rng(50 + dim)
        for case in range(60):
            mean = 0.3 * rng.standard_normal(dim) * (case % 3 != 1)
            a = 0.3 * rng.standard_normal((dim, dim))
            cov = np.eye(dim) + (a @ a.T if case % 3 != 2
                                 else np.diag(np.diag(a @ a.T)))
            got = ExpPolyDensity.gaussian(mean, cov).q.poly
            want = _gaussian_oracle(mean, cov)
            assert _coefficient_bytes(got) == _coefficient_bytes(want)

    def test_convergence_helper(self):
        assert converges_quadratically(1e-3, 2e-4)
        assert not converges_quadratically(1e-3, 5e-4)
        # both gaps at roundoff: identity without any FD content
        assert converges_quadratically(1e-14, 3e-14)


def _coefficient_bytes(poly):
    """{exponents: coefficient bytes} of a Polynomial's terms."""
    return {alpha: c.tobytes() for alpha, c in
            zip(map(tuple, poly.exponents.tolist()), poly.coeffs)}


def _gaussian_oracle(mean, cov):
    """log N(mean, cov) as a Polynomial built one dict entry at a time,
    off-diagonal precision entries merged (i, j) then (j, i)."""
    mean = np.asarray(mean, dtype=float).reshape(-1)
    d = len(mean)
    cov = np.asarray(cov, dtype=float).reshape(d, d)
    prec = np.linalg.inv(cov)
    const = -0.5 * (d * np.log(2.0 * np.pi) + np.log(np.linalg.det(cov)))
    eye = np.eye(d, dtype=int)
    terms = {(0,) * d: const - 0.5 * mean @ prec @ mean}
    for i in range(d):
        terms[tuple(eye[i])] = float(prec[i] @ mean)
        for j in range(d):
            e_ij = tuple(eye[i] + eye[j])
            terms[e_ij] = terms.get(e_ij, 0.0) - 0.5 * prec[i, j]
    return Polynomial(d, terms)


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
    derivatives and one pow per term, in the points' arithmetic (float64,
    or mpmath.mpf in an object array)."""
    for axis in axes:
        terms = _oracle_diff(terms, axis)
    out = np.zeros(len(points), dtype=points.dtype)
    for alpha, c in terms.items():
        out += c * np.prod(points ** np.array(alpha), axis=1)
    return out


def _assert_partials_match(actual, terms_list, points, order,
                           atol=np.finfo(float).tiny):
    """actual[n, i, l, ..., j] against the oracle for component j, to
    1e-12 relative to the sum of the absolute values of its terms, plus
    atol, by default the smallest normal double (subnormal results carry no
    relative precision)."""
    dim = points.shape[1]
    for axes in product(range(dim), repeat=order):
        for j, terms in enumerate(terms_list):
            expected = _oracle_partial(terms, axes, points)
            scale = _oracle_partial({a: abs(c) for a, c in terms.items()},
                                    axes, np.abs(points))
            got = actual[(slice(None),) + axes + (j,)]
            assert np.all(np.abs(got - expected) <= 1e-12 * scale + atol), \
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
        field = PolyVectorField(polys)
        for order in range(4):
            _assert_partials_match(
                scalar.partials(points, order)[order][..., None], terms[:1],
                points, order)
            _assert_partials_match(field.partials(points, order)[order],
                                   terms, points, order)
        for f, views in ((scalar, (scalar.value, scalar.grad)),
                         (field, (field.value, field.jac))):
            jet = f.partials(points, 3)
            assert len(jet) == 4
            for got, view in zip(jet, views):
                np.testing.assert_array_equal(got, view(points))

        # complex steps from the last three points, through the same
        # tables: Im partials(x + i h e_i, r) / h is the order-(r + 1)
        # partial along axis i then the axes of order r, to O(h^2), which
        # atol covers where a zero coordinate leaves no relative scale
        last, step = points[-3:], 1e-30
        for make, jet_terms in ((lambda z, r: field.partials(z, r)[r],
                                 terms),
                                (lambda z, r: scalar.partials(z, r)[r][
                                    ..., None], terms[:1])):
            for order in range(3):
                steps = []
                for i in range(dim):
                    got = make(last + 1j * step * np.eye(dim)[i], order)
                    assert got.dtype == complex
                    steps.append(got.imag / step)
                _assert_partials_match(np.stack(steps, axis=1), jet_terms,
                                       last, order + 1, atol=1e-40)


def _dense_partial_table(dim, exponents, order):
    """The dense builder partial_table's map replaced: (monomials, weights,
    index) with weights[m, t] . x^monomials the partial of combo m of
    x^exponents[t], a (combos, T, Q) array with at most one nonzero per
    (combo, term) row, filled in a second pass with list.index scans."""
    reached = set()
    for alpha in set(exponents):
        support = [j for j, a in enumerate(alpha) if a]
        for r in range(4):
            for axes in combinations_with_replacement(support, r):
                exps, coef = fields._differentiate(alpha, axes)
                if coef:
                    reached.add(exps)
    monomials = sorted(reached, key=lambda a: (sum(a), a))
    position = {a: q for q, a in enumerate(monomials)}
    combos = [axes for r in range(order + 1)
              for axes in combinations_with_replacement(range(dim), r)]
    weights = np.zeros((len(combos), len(exponents), len(monomials)))
    for m, axes in enumerate(combos):
        for t, alpha in enumerate(exponents):
            exps, coef = fields._differentiate(alpha, axes)
            if coef:
                weights[m, t, position[exps]] = coef
    monomials = np.array(monomials, dtype=int).reshape(-1, dim)
    index = [np.array([combos.index(tuple(sorted(axes)))
                       for axes in product(range(dim), repeat=r)]
                      ).reshape((dim,) * r) for r in range(order + 1)]
    return monomials, weights, index


@st.composite
def _exponent_sets(draw):
    """(dim, exponents) of 1-3 components, each a set of up to 6 terms;
    the few exponents per axis make components share terms often."""
    dim = draw(st.integers(1, 4))
    component = st.lists(st.tuples(*[st.integers(0, 3)] * dim),
                         unique=True, max_size=6)
    return dim, tuple(alpha for c in draw(st.lists(component, min_size=1,
                                                   max_size=3))
                      for alpha in c)


class TestPartialMapAgainstDenseTable:
    """partial_table's map against the dense (combos, T, Q) table that the
    map replaced."""

    @settings(max_examples=150, deadline=None)
    @given(_exponent_sets(), st.integers(0, 3))
    @example((2, ()), 3)
    @example((3, ()), 0)
    @example((2, ((1, 2), (0, 0), (1, 2), (3, 0), (0, 0))), 3)
    @example((4, ((1, 1, 1, 0), (0, 0, 0, 3), (1, 1, 1, 0))), 2)
    def test_map_scatters_to_the_dense_weights(self, case, order):
        dim, exponents = case
        monomials, _, (m, t, q, w), index = fields.partial_table(
            dim, exponents, order)
        dense_monomials, dense_weights, dense_index = _dense_partial_table(
            dim, exponents, order)
        assert monomials.shape == dense_monomials.shape
        assert monomials.tobytes() == dense_monomials.tobytes()
        assert len(index) == len(dense_index) == order + 1
        for got, want in zip(index, dense_index):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        # one weighted monomial per (partial, term), and nothing else
        assert len(set(zip(m.tolist(), t.tolist()))) == len(m)
        assert np.all(w > 0)
        weights = np.zeros(dense_weights.shape)
        weights[m, t, q] = w
        assert weights.tobytes() == dense_weights.tobytes()


def _weights_from_map(field, order):
    """Each order's weight table of a field, built from partial_table's map
    as the fields did before their layout was cached: a (combos, J, Q)
    array filled by the map, its rows gathered, transposed and reshaped."""
    exponents = np.vstack([c.exponents for c in field.components])
    coeffs = np.concatenate([c.coeffs for c in field.components])
    owner = np.repeat(np.arange(field.dim),
                      [len(c.coeffs) for c in field.components])
    d = exponents.shape[1]
    monomials, _, (m, t, q, w), index = fields.partial_table(
        d, tuple(map(tuple, exponents.tolist())), order)
    phi = np.zeros((math.comb(d + order, order), field.dim, len(monomials)))
    phi[m, owner[t], q] = coeffs[t] * w
    return [phi[index[r].ravel()].transpose(2, 0, 1).reshape(
        len(monomials), index[r].size * field.dim) for r in range(order + 1)]


class TestCachedPlans:
    """Fields take their weight layout from one cached plan per family."""

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_tables_equal_the_map_built_tables(self, order):
        """Every order's table, a field's one member slice of it,
        equals the one built from partial_table's map, in values, shape
        and strides (BLAS rounds by layout), for
        random fields, scalar fields, uneven components and a field with
        an empty component."""
        rng = np.random.default_rng(60 + order)
        built = [random_vector_field(d, deg, rng, 0.4)
                 for d in (1, 2, 3, 4) for deg in (0, 1, 2, 3)]
        built += [PolyScalarField(random_polynomial(d, 3, rng))._field
                  for d in (1, 2, 3)]
        built += [PolyVectorField([Polynomial(2, {(1, 0): 2.0}),
                                   Polynomial(2, {}),
                                   Polynomial(2, {(0, 3): 1.5, (1, 1): -1.0,
                                                  (0, 0): 0.5})])]
        for field in built:
            got = [t[0] for t in field._weights(order)[1]]
            want = _weights_from_map(field, order)
            assert len(got) == len(want) == order + 1
            for g, w in zip(got, want):
                assert (g.shape, g.strides) == (w.shape, w.strides)
                assert g.tobytes() == w.tobytes()

    def test_verify_builds_each_family_once(self, monkeypatch):
        """A pass of the seven suites builds one plan per distinct family
        (dim, exponents, order, component term counts): 28, each once (33
        while lm2 and the el bracket built order-0 tables for their
        values before their partials). The probe suites build the weight
        tables of their fields as stacks, one per (check, dimension,
        field) and per order upgrade: 78 builds over all suites cover
        1,311 fields (96 builds of 1,419 before lm2's three steps and the
        three bracket rows were one check each), where a build per probe
        field was 479 builds. lm2's 6 are p and K per dimension, each
        built once at order 2 for the analytic side, whose tables its
        stencils' values reuse (12 when each step was its own check and
        its values came first). el-invariance's 9 are 6 stacks of 25 (p
        and h on p_Y's grid and v on the complex stencils, per dimension;
        h and log p reuse their order-0 tables there) and the bracket
        stack's p, h and v, each built once (15 builds of single fields
        when each row was its own check; was 21 in all). A plan keyed by
        anything that varies per field would rebuild it per field."""
        build, keys = fields._partial_plan.__wrapped__, []
        monkeypatch.setattr(fields, "_partial_plan", lru_cache(maxsize=1024)(
            lambda *key: keys.append(key) or build(*key)))
        weights, tables = fields.PolyVectorField._weights, []
        monkeypatch.setattr(
            fields.PolyVectorField, "_weights",
            lambda self, order: (len(self._weight_tables[1]) <= order
                                 and tables.append(len(self.coeffs)))
            or weights(self, order))
        members = {}
        for suite in verify.SUITE_NAMES:
            tables.clear()
            assert all(row.passed for row in verify.run_suite(suite))
            members[suite] = list(tables)
        assert len(keys) == len(set(keys)) <= 28, len(keys)
        stacked = {suite: (len(tables), sum(tables))
                   for suite, tables in members.items() if tables}
        assert stacked == {"piola": (2, 100), "appendixB": (48, 800),
                           "lm2": (6, 100), "el-invariance": (9, 157),
                           "taylor": (13, 154)}, stacked


def _permuted(poly, rng):
    """poly with its terms in a random order other than their own."""
    terms = list(poly.terms.items())
    order = rng.permutation(len(terms))
    if len(terms) > 1 and (order == np.arange(len(terms))).all():
        order = order[::-1]
    return Polynomial(poly.dim, dict(terms[k] for k in order))


def _same(got, want):
    """Equal dtype, shape and bytes."""
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


class TestTermOrder:
    """Term order is free: each (partial, component, monomial) weight of a
    field comes from exactly one term, so a permutation of a polynomial's
    terms moves no byte of any partial."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_permuted_terms_move_no_partial(self, dim):
        """Scalar fields, vector fields with uneven components (degrees 3,
        0 and 2) and densities, at float64 points and on a complex128
        (d + 1)-point stencil (x, then x + 1e-30 i e_i), at every order
        0..3."""
        rng = np.random.default_rng(80 + dim)
        x = rng.uniform(-1.5, 1.5, size=(7, dim))
        stencil = x[0] + 1j * 1e-30 * np.eye(dim + 1, dim, -1)
        for _ in range(8):
            scalar = [random_polynomial(dim, 3, rng, 0.5)]
            vector = [random_polynomial(dim, deg, rng, 0.4)
                      for deg in (3, 0, 2)]
            log_p = [_random_gaussian(dim, rng).q.poly]
            cases = [(lambda ps: PolyScalarField(ps[0]), scalar,
                      (x, stencil)),
                     (PolyVectorField, vector, (x, stencil)),
                     (lambda ps: ExpPolyDensity(ps[0]), log_p, (x, stencil)),
                     (lambda ps: PolyScalarField(ps[0]), log_p,
                      (x, stencil))]
            for order in range(4):
                for make, polys, point_sets in cases:
                    permuted = [_permuted(p, rng) for p in polys]
                    for points in point_sets:
                        want = make(polys).partials(points, order)
                        got = make(permuted).partials(points, order)
                        assert all(map(_same, got, want))


def _all_coordinate_values(points, monomials):
    """The monomial kernel that gathered the power rows of all d
    coordinates for every monomial, exponent 0 included."""
    d = points.shape[1]
    powers = np.ones((d, monomials.max(initial=0) + 1, len(points)))
    for e in range(1, powers.shape[1]):
        np.multiply(powers[:, e - 1], points.T, out=powers[:, e])
    values = powers[0][monomials[:, 0]]
    for j in range(1, d):
        values *= powers[j][monomials[:, j]]
    return values


@st.composite
def _monomials_and_points(draw):
    """(monomials (Q, d), points (N, d)) for d 1-20: monomials of up to
    4 nonzero exponents (a cubic has at most 3), points with zeros, signed
    zeros, infinities and NaN among finite values."""
    dim = draw(st.integers(1, 20))
    support = st.dictionaries(st.integers(0, dim - 1), st.integers(1, 4),
                              max_size=4)
    supports = draw(st.lists(support, max_size=12))
    monomials = np.zeros((len(supports), dim), dtype=int)
    for q, row in enumerate(supports):
        for j, e in row.items():
            monomials[q, j] = e
    value = st.one_of(st.floats(-50.0, 50.0),
                      st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan,
                                       1e300]))
    n = draw(st.integers(1, 5))
    points = np.array(draw(st.lists(value, min_size=n * dim,
                                    max_size=n * dim))).reshape(n, dim)
    return monomials, points


class TestMonomialValuesAgainstAllCoordinates:
    """monomial_values multiplies each monomial's nonzero-exponent power
    rows alone; the product over all coordinates, with its factors 1.0,
    is the same bytes."""

    @settings(max_examples=200, deadline=None)
    @given(_monomials_and_points())
    def test_nonzero_rows_give_the_all_coordinate_bytes(self, case):
        monomials, points = case
        rows = fields.monomial_rows(monomials)
        assert rows.shape == (max(1, int((monomials != 0).sum(1).max(
            initial=0))), len(monomials))
        with np.errstate(all="ignore"):
            got = fields.monomial_values(points, rows)
            want = _all_coordinate_values(points, monomials)
        assert got.shape == want.shape == (len(monomials), len(points))
        assert got.tobytes() == want.tobytes()

    def test_dense_cubic_in_twenty_variables(self):
        """All 1,771 monomials of degree <= 3 in 20 variables, as the
        d = 20 dense cubic h reaches them: three gathers each."""
        d = 20
        exponents = tuple(tuple(axes.count(j) for j in range(d))
                          for axes in combinations_with_replacement(
                              range(d), 3))
        monomials, rows, _, _ = fields.partial_table(d, exponents, 1)
        assert len(monomials) == 1771 and rows.shape == (3, 1771)
        assert rows.tobytes() == fields.monomial_rows(monomials).tobytes()
        points = np.random.default_rng(20).uniform(-2.0, 2.0, size=(64, d))
        assert fields.monomial_values(points, rows).tobytes() \
            == _all_coordinate_values(points, monomials).tobytes()


class TestOneJetPerField:
    """Each probe field's partials come from one power table."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_density_partials_match_product_rule(self, dim):
        """partials(points, 3) against the product rule on p = exp(q),
        written out from separate evaluations of q's partials."""
        rng = np.random.default_rng(30 + dim)
        for p in (_random_gaussian(dim, rng),
                  ExpPolyDensity(random_polynomial(dim, 3, rng, scale=0.3))):
            x = rng.uniform(-1.0, 1.0, size=(7, dim))
            pv = np.exp(p.q.value(x))
            gq, hq, tq = (p.q.partials(x, r)[r] for r in (1, 2, 3))
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
            np.testing.assert_array_equal(p.value(x), got[0])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_density_partials_of_a_batch_stack_its_ensembles(self, dim):
        """partials on a batch (3, 5, d) at every order equals the stack
        of the three ensembles' own partials, byte for byte."""
        rng = np.random.default_rng(40 + dim)
        p = ExpPolyDensity(random_polynomial(dim, 3, rng, scale=0.3))
        batch = rng.uniform(-1.0, 1.0, size=(3, 5, dim))
        for order in range(4):
            got = p.partials(batch, order)
            wants = [p.partials(x, order) for x in batch]
            assert len(got) == order + 1
            for r, g in enumerate(got):
                want = np.stack([w[r] for w in wants])
                assert g.shape == (3, 5) + (dim,) * r
                assert g.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 40])
    def test_value_builds_no_partial_tables(self, n):
        """A field builds the weights of the orders asked so far: value
        those of order 0 alone, grad and jac those of orders <= 1, and
        each equals the same order of partials(x, 3) bit for bit."""
        rng = np.random.default_rng(n)
        for dim in (1, 2, 3):
            field = random_vector_field(dim, 3, rng)
            scalar = PolyScalarField(field.components[0])
            x = rng.uniform(-2.0, 2.0, size=(n, dim))
            value, h = field.value(x), scalar.value(x)
            for built in (field, scalar._field):
                assert len(built._weight_tables[1]) == 1
            jac, grad = field.jac(x), scalar.grad(x)
            for built in (field, scalar._field):
                assert len(built._weight_tables[1]) == 2
            for got, full in ((value, field.partials(x, 3)[0]),
                              (jac, field.partials(x, 3)[1]),
                              (h, scalar.partials(x, 3)[0]),
                              (grad, scalar.partials(x, 3)[1])):
                assert got.tobytes() == full.tobytes()

    def test_gradient_caches_a_sparse_map(self):
        """The gradient of a d = 20 dense cubic h (1,541 terms) leaves a
        cached partial_table entry of well under 1 MB; the dense weights
        it replaced, (21, 1541, 1771) numbers, took 458 MB."""
        d = 20
        terms = {(1,) + (0,) * (d - 1): 1.0}
        for axes in combinations_with_replacement(range(d), 3):
            terms[tuple(axes.count(j) for j in range(d))] = 1e-4
        h = PolyScalarField(Polynomial(d, terms))
        x = np.random.default_rng(20).uniform(-1.0, 1.0, size=(4, d))
        assert h.grad(x).shape == (4, d)
        hits = fields._partial_plan.cache_info().hits
        monomials, rows, derivs, index = fields.partial_table(
            d, tuple(map(tuple, h.poly.exponents.tolist())), 1)
        assert fields._partial_plan.cache_info().hits == hits + 1
        assert len(h.poly.coeffs) == 1541 and len(monomials) == 1771
        assert sum(a.nbytes for a in (monomials, rows, *derivs,
                                      *index)) < 1e6

    @pytest.mark.parametrize("n", [193, 200, 1])
    def test_blocks_of_points_match_one_block(self, monkeypatch, n):
        """A jet evaluated in blocks of 64 points (the last one short; a
        single point left over joins the block before it) equals the
        one-block jet byte for byte, at every order. A batch of three
        ensembles is evaluated in one call per block, with the blocks of
        one ensemble and each ensemble with the bytes it has alone."""
        gen = np.random.default_rng(33)
        field = random_vector_field(3, 3, gen)
        batch = gen.uniform(-1.5, 1.5, size=(3, n, 3))
        wholes = [field.partials(x, 3) for x in batch]
        q = field._weights(3)[2].shape[1]
        monkeypatch.setattr(fields, "JET_BLOCK", 64 * q + 63)
        calls, evaluate = [], fields.monomial_values
        monkeypatch.setattr(fields, "monomial_values",
                            lambda points, rows: calls.append(points.shape)
                            or evaluate(points, rows))
        blocks = [(1, m, 3) for m in {193: [64, 64, 65],
                                      200: [64, 64, 64, 8], 1: [1]}[n]]
        blocked = field.partials(batch[0], 3)
        assert calls == blocks
        for got, want in zip(blocked, wholes[0]):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        calls.clear()
        stacked = field.partials(batch, 3)
        assert calls == [(3, m, 3) for _, m, _ in blocks]
        for got, *want in zip(stacked, *wholes):
            assert got.shape == (3, *want[0].shape)
            assert got.tobytes() == np.stack(want).tobytes()

    def test_suites_keep_their_field_call_budget(self, monkeypatch):
        """Each check evaluates a field once per stencil, so the number of
        float64 monomial_values calls a suite makes is fixed by its
        probes, and a return to one point per call would multiply them
        (piola 1,200, appendixB 2,284, lm2 5,856 that way). Every probe
        suite evaluates each field once per stencil for all the probes of
        one (check, dimension): appendixB's 69 and lm2's 24 calls were
        1,150 and 600 when each probe made its own, piola's 2 were 200
        and taylor's 13 were 350. piola's 2 take both steps' stencils, 4d
        + 1 points a probe. lm2's 24 are p and K once per dimension for
        the analytic side and once per step's stencil (36 when each step
        was its own check and took the analytic side again).
        El-invariance's 12 are p and h on p_Y's quadrature grid, one
        (41^d, d) grid shared by each dimension's probes (4 calls), and
        the 8 of the 3 bracket rows, one stack of three 1-D probes (24
        when each row was its own check; was 28 in all); its points are
        exactly these (86,133 when each probe had its own grid, and
        201 nodes an axis would make them 2,030,133). Its complex128
        stencils are counted apart, exactly three calls a dimension, and
        no other suite makes any."""
        budget = {"piola": 2, "appendixB": 69, "lm2": 24,
                  "el-invariance": 12, "taylor": 13}
        kernel, calls = fields.monomial_values, []
        monkeypatch.setattr(fields, "monomial_values",
                            lambda points, rows: calls.append(
                                (np.iscomplexobj(points),
                                 points.size // points.shape[-1]))
                            or kernel(points, rows))
        counts, points, complex_counts = {}, {}, {}
        for suite in budget:
            calls.clear()
            assert all(row.passed for row in verify.run_suite(suite))
            floats = [n for is_complex, n in calls if not is_complex]
            counts[suite], points[suite] = len(floats), sum(floats)
            complex_counts[suite] = len(calls) - len(floats)
        assert counts == budget, counts
        assert points["piola"] == 50 * 9 + 50 * 13, points
        assert points["taylor"] == 350, points
        assert points["el-invariance"] == 2 * 41 + 2 * 41 ** 2 + 33, points
        assert complex_counts.pop("el-invariance") == 6
        assert not any(complex_counts.values()), complex_counts

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


    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_partials_do_not_depend_on_the_highest_order_asked(self, dim):
        """A field's order-r partials have the same bytes whether the
        highest order asked is r or more, and whether its tables were
        built for that order or upgraded from a lower one: for single
        fields, scalar fields, densities and stacks, at points (N, d) and
        a stack's (P, N, d)."""
        rng = np.random.default_rng(70 + dim)
        terms = fields.all_exponents(dim, 3)
        rows = 0.4 * rng.standard_normal((5, dim * len(terms)))
        moments = [random_moments(dim, rng) for _ in range(5)]
        means, covs = (np.array(a) for a in zip(*moments))
        seed = int(rng.integers(1 << 31))
        singles = [
            lambda: random_vector_field(dim, 3, np.random.default_rng(seed),
                                        0.4),
            lambda: PolyScalarField(random_polynomial(
                dim, 3, np.random.default_rng(seed), 0.5)),
            lambda: _random_gaussian(dim, np.random.default_rng(seed))]
        stacks = [
            lambda: PolyVectorField.stack(np.tile(terms, (dim, 1)),
                                          (len(terms),) * dim, rows),
            lambda: ExpPolyDensity.gaussians(means, covs)]
        shared = rng.uniform(-0.8, 0.8, size=(7, dim))
        own = rng.uniform(-0.8, 0.8, size=(5, 7, dim))
        for build, points in ([(b, shared) for b in singles + stacks]
                              + [(b, own) for b in stacks]):
            want = build().partials(points, 3)
            for order in range(4):
                fresh = build().partials(points, order)
                upgraded = build()
                for lower in range(order):
                    upgraded.partials(points, lower)
                for r in range(order + 1):
                    assert _same(fresh[r], want[r]), (order, r)
                    assert _same(upgraded.partials(points, order)[r],
                                 want[r]), (order, r)


def _member_fields(exponents, counts, rows):
    """Each coefficient row's own PolyVectorField, its components built
    through Polynomial, which keeps a zero term."""
    bounds = np.cumsum((0,) + tuple(counts))
    d = exponents.shape[1]
    return [PolyVectorField([
        Polynomial(d, dict(zip(map(tuple, exponents[lo:hi].tolist()),
                               row[lo:hi].tolist())))
        for lo, hi in zip(bounds, bounds[1:])]) for row in rows]


class TestFieldStacks:
    """A stack of P fields evaluates member m at points[m], and every
    member at shared points (M, d), with the bits of member m's own field,
    at every order."""

    @staticmethod
    def _assert_members(stacked, alone, points):
        for order in range(4):
            got = stacked.partials(points, order)
            shared = stacked.partials(points[0], order)
            for m, field in enumerate(alone):
                for jets, at in ((got, points[m]), (shared, points[0])):
                    want = field.partials(at, order)
                    assert len(jets) == len(want) == order + 1
                    for g, w in zip(jets, want):
                        assert g[m].shape == w.shape
                        assert g[m].tobytes() == w.tobytes(), (m, order)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_cubic_vector_family(self, dim):
        """Nine cubic vector fields, one of whose draws is an exact zero
        on a cubic term: that member keeps the term, as its own field
        does."""
        rng = np.random.default_rng(90 + dim)
        terms = fields.all_exponents(dim, 3)
        exponents = np.tile(terms, (dim, 1))
        counts = (len(terms),) * dim
        rows = 0.4 * rng.standard_normal((9, len(exponents)))
        rows[4, len(terms) - 1] = 0.0
        stacked = PolyVectorField.stack(exponents, counts, rows)
        alone = _member_fields(exponents, counts, rows)
        for n in (1, 2 * dim, 7):
            self._assert_members(stacked, alone,
                                 rng.uniform(-0.6, 0.6, size=(9, n, dim)))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_gaussian_family(self, dim):
        """Eight Gaussians, the last with a diagonal covariance, whose
        x_i x_j coefficients are exactly 0 when dim > 1 and kept: each
        member's log-density and density partials are those of
        ExpPolyDensity.gaussian."""
        rng = np.random.default_rng(95 + dim)
        moments = [random_moments(dim, rng) for _ in range(7)]
        moments.append((np.full(dim, 0.2), np.diag(np.arange(1.0, dim + 1))))
        means, covs = (np.array(a) for a in zip(*moments))
        stacked = ExpPolyDensity.gaussians(means, covs)
        alone = [ExpPolyDensity.gaussian(m, c) for m, c in moments]
        for n in (1, 2 * dim, 7):
            points = rng.uniform(-0.6, 0.6, size=(8, n, dim))
            self._assert_members(stacked.q, [p.q for p in alone], points)
            self._assert_members(stacked, alone, points)

    def test_one_field_is_a_stack_of_one(self):
        """A field's own partials at points (1, M, d) are the stack's of
        its one coefficient row."""
        rng = np.random.default_rng(99)
        terms = fields.all_exponents(2, 3)
        rows = rng.standard_normal((1, 2 * len(terms)))
        stacked = PolyVectorField.stack(np.tile(terms, (2, 1)),
                                        (len(terms),) * 2, rows)
        field = _member_fields(np.tile(terms, (2, 1)), (len(terms),) * 2,
                               rows)[0]
        points = rng.uniform(-1.0, 1.0, size=(1, 5, 2))
        for got, want in zip(stacked.partials(points, 3),
                             field.partials(points, 3)):
            assert got.tobytes() == want.tobytes()


def _fd_grad_per_point(fn, x, step):
    """The central difference with one call of fn per point."""
    e = step * np.eye(len(x))
    return np.array([(fn(x + e[i]) - fn(x - e[i])) / (2.0 * step)
                     for i in range(len(x))])


def _piola_per_point(v, x, step):
    """Cofactor divergence from one Jacobian call per point and one
    np.delete'd determinant per minor."""
    d = v.dim
    res, e = np.zeros(d), step * np.eye(d)
    for i in range(d):
        mats = [np.eye(d) + v.jac(x + s * e[i])[0] for s in (1.0, -1.0)]
        for j in range(d):
            hi, lo = (np.delete(np.delete(m, i, axis=0), j, axis=1)
                      for m in mats)
            minor_hi, minor_lo = (float(np.linalg.det(m)) if m.size else 1.0
                                  for m in (hi, lo))
            res[j] += (-1.0) ** (i + j) * (minor_hi - minor_lo) / (2.0 * step)
    return res


def _lm2_lhs_per_point(p, k, x, step):
    """sum_ij d^2(p K_i K_j)/dx_i dx_j, two field calls per p K_i K_j."""
    d, e = k.dim, np.eye(k.dim)

    def pkk(pt, i, j):
        kk = k.value(pt)[0]
        return float(p.value(pt)[0] * kk[i] * kk[j])

    lhs = 0.0
    for i in range(d):
        lhs += (pkk(x + step * e[i], i, i) - 2.0 * pkk(x, i, i)
                + pkk(x - step * e[i], i, i)) / step ** 2
        for j in range(d):
            if j != i:
                lhs += (pkk(x + step * (e[i] + e[j]), i, j)
                        - pkk(x + step * (e[i] - e[j]), i, j)
                        - pkk(x - step * (e[i] - e[j]), i, j)
                        + pkk(x - step * (e[i] + e[j]), i, j)) \
                    / (4.0 * step ** 2)
    return lhs


def _quadratic_rhs_per_point(ident, p, k, x, step):
    """The telescoped side of identities 6-8, one point per field call."""
    def curvature_quad(pt):
        kk = k.value(pt)[0]
        _, g, hess = (a[0] for a in p.q.partials(pt, 2))
        return float(kk @ (hess + np.outer(g, g)) @ kk)

    def slope_quad(pt):
        return float((k.value(pt)[0] @ p.grad_log(pt)[0]) ** 2)

    def transport(pt):
        kk, jac = (a[0] for a in k.partials(pt, 1))
        return float(kk @ jac @ p.grad_log(pt)[0])

    def div_flux(pt):
        kk, _, sk = (a[0] for a in k.partials(pt, 2))
        return float(np.einsum("all->a", sk) @ kk)

    if ident == 6:
        return (-0.5 * _fd_grad_per_point(curvature_quad, x, step)
                + 0.5 * _fd_grad_per_point(slope_quad, x, step))
    return -_fd_grad_per_point(transport if ident == 7 else div_flux, x, step)


def _el_bracket_per_point(p, h, v, x, y, dt):
    """el_bracket_residual with g evaluated one point per call."""
    def g_at(pt):
        shifted = pt + v.value(pt)[0]
        return float(p.value(shifted)[0]) * math.sqrt(dt / (2.0 * math.pi)) \
            * math.exp(-0.5 * dt * (y - float(h.value(shifted)[0])) ** 2)

    d, g0 = v.dim, g_at(x)
    p0, grad_p0 = (a[0] for a in p.partials(x, 1))
    _, jac, sec = (a[0] for a in v.partials(x, 2))
    v_inv = np.linalg.inv(np.eye(d) + jac)
    return (_fd_grad_per_point(g_at, x, 1e-4) * p0
            + g0 * np.einsum("ab,iba->i", v_inv, sec) * p0 - g0 * grad_p0)


class TestStencilsAgainstPerPointOracle:
    """Each check evaluates its fields once over its whole stencil. The
    one-point-per-call formulas it replaced (above) agree with it to
    finite-difference roundoff: a field's last bits depend on how many
    points share its call, and the outer difference divides them by h
    (by h^2 for lm2's second differences). Over 40 probes a dimension at
    h = 1e-4 and 1e-3 the largest gaps were, in eps/h: piola 2.7,
    identities 6-8 1.2, 2.0 and 4.0, the el bracket 0.003; lm2 0.72
    eps/h^2. The bounds keep a margin of 4 or more."""

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_checks_match_per_point_formulas(self, dim):
        rng = np.random.default_rng(60 + dim)
        for _ in range(10):
            p = _random_gaussian(dim, rng)
            k = random_vector_field(dim, 3, rng, scale=0.4)
            v = random_vector_field(dim, 3, rng, scale=0.4)
            h = PolyScalarField(random_polynomial(dim, 2, rng, scale=0.5))
            x = rng.uniform(-0.6, 0.6, size=dim)
            for step in (1e-4, 1e-3):
                assert np.max(np.abs(piola_residual(v, x, step)
                                     - _piola_per_point(v, x, step))) \
                    <= 16.0 * self.EPS / step
                lhs, _ = double_divergence_expansion_check(p, k, x, step)
                assert abs(lhs - _lm2_lhs_per_point(p, k, x, step)) \
                    <= 4.0 * self.EPS / step ** 2
                for ident in (6, 7, 8):
                    _, rhs = quadratic_term_identity(ident, p, k, x, step)
                    assert np.max(np.abs(rhs - _quadratic_rhs_per_point(
                        ident, p, k, x, step))) <= 16.0 * self.EPS / step
            small = random_vector_field(dim, 2, rng, scale=0.05)
            y = float(0.3 * rng.standard_normal())
            gap = el_bracket_residual(p, h, small, x, y, 0.01) \
                - _el_bracket_per_point(p, h, small, x, y, 0.01)
            assert np.max(np.abs(gap)) <= 0.02 * self.EPS / 1e-4


class TestPiolaIdentity:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_batched_minors_match_deleted_determinants(self, dim):
        """Every minor of the one batched det equals np.linalg.det of the
        np.delete'd matrix bit for bit; at d = 1 the empty minor is 1."""
        gen = np.random.default_rng(dim)
        mats = np.eye(dim) + gen.uniform(-1.0, 1.0, size=(2, 3, dim, dim))
        minors = _minors(mats)
        assert minors.shape == (2, 3, dim, dim)
        for idx in np.ndindex(2, 3, dim, dim):
            *m, i, j = idx
            sub = np.delete(np.delete(mats[tuple(m)], i, axis=0), j, axis=1)
            want = np.float64(np.linalg.det(sub) if sub.size else 1.0)
            assert minors[idx].tobytes() == want.tobytes(), idx

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
            v = random_vector_field(dim, 3, rng, scale=0.4)
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
            p, h, k, x = _dz_probe(rng, 1 + i % 3)
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


class TestStackedSuites:
    """The probe suites evaluate their probes one (check, dimension) at a
    time, with a leading probe axis; each row equals its probe drawn as
    the suites drew it one field at a time and checked alone, a batch of
    one."""

    def test_piola_rows_equal_each_probe_alone(self):
        rows = verify.run_suite("piola")
        rng = np.random.default_rng(1003)
        for i in range(100):
            d = 2 if i % 2 == 0 else 3
            v = random_vector_field(d, 3, rng, scale=0.4)
            x = rng.uniform(-0.8, 0.8, size=d)
            r, r_half = (float(np.max(np.abs(piola_residual(v, x, step))))
                         for step in (1e-4, 5e-5))
            assert (rows[2 * i].check, rows[2 * i].point,
                    rows[2 * i].residual) == ("piola", str(i), r)
            assert (rows[2 * i + 1].residual,
                    rows[2 * i + 1].tolerance) == (r_half,
                                                   max(r / 3.0, 1e-10))

    def test_taylor_rows_equal_each_probe_alone(self):
        rows = verify.run_suite("taylor")
        rng = np.random.default_rng(4001)
        for i in range(50):
            r = float(np.max(np.abs(dz_order_residual(
                *_dz_probe(rng, 1 + i % 3)))))
            assert (rows[i].check, rows[i].point,
                    rows[i].residual) == ("taylor-dz", str(i), r)
        p, h, k = _std_normal(), _h_linear(), _const_field(1.0)
        u = PolyVectorField([Polynomial(1, {(1,): -0.5})])
        for i, x0 in enumerate(np.linspace(-2.0, 2.0, 50)):
            r = float(np.max(np.abs(dt_order_residual(p, h, k, u,
                                                      np.array([x0])))))
            assert (rows[50 + i].check, rows[50 + i].point,
                    rows[50 + i].residual) == ("taylor-dt", str(i), r)

    def test_el_invariance_rows_equal_each_probe_alone(self):
        """Each generator's vector, and each pair's relative gap from
        np.linalg.norm, of a probe checked alone."""
        rows = verify.run_suite("el-invariance")
        rng = np.random.default_rng(3001)
        for i in range(50):
            res = el_generator_invariance(*_el_probe(rng, 1 + i % 2), 0.01)
            names = sorted(res)
            pairs = [(a, b) for n, a in enumerate(names)
                     for b in names[n + 1:]]
            for row, (a, b) in zip(rows[3 * i:3 * i + 3], pairs):
                scale = max(float(np.linalg.norm(res[a])),
                            float(np.linalg.norm(res[b])), 1e-30)
                rel = float(np.linalg.norm(res[a] - res[b])) / scale
                assert (row.check, row.point, row.residual) \
                    == (f"invariance-{a}~{b}", str(i), rel)
        assert [row.check for row in rows[150:]] == ["el-bracket"] * 3

    def test_a_zero_draw_keeps_its_term_and_its_bits(self):
        """A member whose draw is exactly 0 keeps that term, as its own
        field does: the stacked piola, el-invariance and dz results still
        equal each probe alone."""
        rng = np.random.default_rng(77)
        d, count = 2, 4
        cubic, quadratic = fields.all_exponents(d, 3), \
            fields.all_exponents(d, 2)
        ks = 0.4 * rng.standard_normal((count, d * len(cubic)))
        ks[2, 3] = 0.0
        stack = PolyVectorField.stack(np.tile(cubic, (d, 1)),
                                      (len(cubic),) * d, ks)
        alone = _member_fields(np.tile(cubic, (d, 1)), (len(cubic),) * d,
                               ks)
        xs = rng.uniform(-0.8, 0.8, size=(count, d))
        got = piola_residual(stack, xs, (1e-4, 5e-5))
        for m in range(count):
            for s, step in enumerate((1e-4, 5e-5)):
                assert _same(got[m, s], piola_residual(alone[m], xs[m],
                                                       step))

        moments = [random_moments(d, rng)
                   for _ in range(count)]
        means, covs = (np.array(a) for a in zip(*moments))
        hs = 0.5 * rng.standard_normal((count, len(quadratic)))
        vs = 0.05 * rng.standard_normal((count, d * len(quadratic)))
        hs[1, 2], vs[3, 0] = 0.0, 0.0
        ys = 0.3 * rng.standard_normal(count)
        xs = rng.uniform(-0.4, 0.4, size=(count, d))
        h_stack = PolyScalarField.stack(quadratic, hs)
        v_stack = PolyVectorField.stack(np.tile(quadratic, (d, 1)),
                                        (len(quadratic),) * d, vs)
        got = el_generator_invariance(ExpPolyDensity.gaussians(means, covs),
                                      h_stack, v_stack, xs, ys, 0.01)
        h_alone = _member_fields(quadratic, (len(quadratic),), hs)
        v_alone = _member_fields(np.tile(quadratic, (d, 1)),
                                 (len(quadratic),) * d, vs)
        for m in range(count):
            want = el_generator_invariance(
                ExpPolyDensity.gaussian(*moments[m]),
                PolyScalarField(h_alone[m].components[0]), v_alone[m],
                xs[m], ys[m], 0.01)
            for name in want:
                assert _same(got[name][m], want[name]), (m, name)

        affine = np.concatenate([np.eye(d, dtype=int),
                                 np.zeros((1, d), dtype=int)])
        gains = rng.standard_normal((count, d))
        hs = rng.standard_normal((count, d + 1))
        hs[0, 1], gains[2, 0] = 0.0, 0.0
        k_stack = PolyVectorField.stack(np.zeros((d, d), dtype=int),
                                        (1,) * d, gains)
        got = dz_order_residual(ExpPolyDensity.gaussians(means, covs),
                                PolyScalarField.stack(affine, hs), k_stack,
                                xs)
        h_alone = _member_fields(affine, (d + 1,), hs)
        k_alone = _member_fields(np.zeros((d, d), dtype=int), (1,) * d,
                                 gains)
        for m in range(count):
            assert _same(got[m], dz_order_residual(
                ExpPolyDensity.gaussian(*moments[m]),
                PolyScalarField(h_alone[m].components[0]), k_alone[m],
                xs[m]))

    def test_a_singular_probe_raises(self):
        """piola rejects a stack one of whose probes has a singular V at
        its point, naming the probe, as it rejects that probe alone."""
        stack = PolyVectorField.stack(np.eye(2, dtype=int), (1, 1),
                                      [[0.1, 0.2], [-1.0, -1.0],
                                       [0.3, -0.1]])
        xs = np.full((3, 2), 0.2)
        with pytest.raises(ValueError, match="singular.* probe 1$"):
            piola_residual(stack, xs)
        alone = _member_fields(np.eye(2, dtype=int), (1, 1),
                               np.array([[-1.0, -1.0]]))[0]
        with pytest.raises(ValueError, match="singular"):
            piola_residual(alone, xs[1])

    def test_el_bracket_rows_equal_each_probe_alone(self):
        """The three bracket rows, one stack of three 1-D probes, each
        equal their probe built field by field and checked alone."""
        rows = verify.run_suite("el-invariance")[150:]
        assert len(rows) == 3
        for j, (mean, var, x0) in enumerate(
                [(0.0, 1.0, 0.3), (0.2, 0.8, -0.4), (-0.3, 1.3, 0.1)]):
            v = PolyVectorField([Polynomial(
                1, {(0,): var * 0.01 - 0.5 * var * mean * 0.01,
                    (1,): -0.5 * var * 0.01})])
            r = float(np.max(np.abs(el_bracket_residual(
                ExpPolyDensity.gaussian([mean], [[var]]), _h_linear(), v,
                np.array([x0]), 1.0, 0.01))))
            assert (rows[j].check, rows[j].point, rows[j].residual,
                    rows[j].tolerance) == ("el-bracket", str(j), r, 1e-3)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_el_bracket_stack_equals_each_probe_alone(self, dim):
        """A stack of bracket probes (Gaussian p, quadratic h, a small
        quadratic v) gives each probe the bits it has alone."""
        rng = np.random.default_rng(80 + dim)
        count, quadratic = 6, fields.all_exponents(dim, 2)
        moments = [random_moments(dim, rng) for _ in range(count)]
        means, covs = (np.array(a) for a in zip(*moments))
        hs = 0.5 * rng.standard_normal((count, len(quadratic)))
        vs = 0.05 * rng.standard_normal((count, dim * len(quadratic)))
        xs = rng.uniform(-0.4, 0.4, size=(count, dim))
        ys = 0.3 * rng.standard_normal(count)
        got = el_bracket_residual(
            ExpPolyDensity.gaussians(means, covs),
            PolyScalarField.stack(quadratic, hs),
            PolyVectorField.stack(np.tile(quadratic, (dim, 1)),
                                  (len(quadratic),) * dim, vs), xs, ys, 0.01)
        h_alone = _member_fields(quadratic, (len(quadratic),), hs)
        v_alone = _member_fields(np.tile(quadratic, (dim, 1)),
                                 (len(quadratic),) * dim, vs)
        for m in range(count):
            assert _same(got[m], el_bracket_residual(
                ExpPolyDensity.gaussian(*moments[m]),
                PolyScalarField(h_alone[m].components[0]), v_alone[m],
                xs[m], ys[m], 0.01)), m

    def test_appendix_b_rows_equal_each_probe_alone(self):
        rows = verify.run_suite("appendixB")
        for ident in QUADRATIC_IDENTITY_IDS:
            rng = np.random.default_rng(2000 + ident)
            for i in range(50):
                p, k, x = _quadratic_probe(rng)
                lhs, rhs = quadratic_term_identity(ident, p, k, x, 1e-4)
                row = rows[50 * (ident - 1) + i]
                assert (row.check, row.point) == (f"identity-{ident}", str(i))
                assert row.residual == float(np.max(np.abs(lhs - rhs)))

    def test_lm2_rows_equal_each_probe_alone(self):
        rows = verify.run_suite("lm2")
        rng = np.random.default_rng(2112)
        for i in range(50):
            p, k, x = _quadratic_probe(rng)
            gap, gap_c, gap_h = (
                abs(np.subtract(*double_divergence_expansion_check(
                    p, k, x, step))) for step in (1e-4, 1e-2, 5e-3))
            assert rows[2 * i].residual == gap
            assert (rows[2 * i + 1].residual,
                    rows[2 * i + 1].tolerance) == (gap_h,
                                                   max(gap_c / 3.0, 1e-12))


def _vector_rows(field):
    """A field, scalar field or density as its PolyVectorField."""
    if isinstance(field, ExpPolyDensity):
        field = field.q
    return field._field if isinstance(field, PolyScalarField) else field


def _piola_probe(rng, d):
    return random_vector_field(d, 3, rng, scale=0.4), \
        rng.uniform(-0.8, 0.8, size=d)


class TestProbeDraws:
    """verify draws each probe's normals in one call and builds its fields
    a dimension group at a time; each probe equals the tests' oracle, which
    draws it one field at a time, and the generator ends in the same
    state."""

    @pytest.mark.parametrize("seed", [1003, *range(2001, 2009), 2112, 3001,
                                      4001])
    def test_array_draws_equal_the_oracle_draws(self, seed):
        rng, oracle = (np.random.default_rng(seed) for _ in range(2))
        if seed == 1003:
            groups = verify._piola_groups(rng)
            probes = [_piola_probe(oracle, 2 + i % 2) for i in range(100)]
        elif seed == 3001:
            groups = verify._el_groups(rng)
            probes = [_el_probe(oracle, 1 + i % 2) for i in range(50)]
        elif seed == 4001:
            groups = verify._dz_groups(rng)
            probes = [_dz_probe(oracle, 1 + i % 3) for i in range(50)]
        else:
            groups = verify._quadratic_groups(rng, 50)
            probes = [_quadratic_probe(oracle) for _ in range(50)]
        assert rng.bit_generator.state == oracle.bit_generator.state
        assert sorted(i for idx, *_ in groups for i in idx.tolist()) \
            == list(range(len(probes)))
        for idx, *stacked in groups:
            for m, i in enumerate(idx.tolist()):
                for got, want in zip(stacked, probes[i], strict=True):
                    if isinstance(got, np.ndarray):
                        assert _same(got[m], np.asarray(want)), i
                        continue
                    got, want = _vector_rows(got), _vector_rows(want)
                    assert _same(got.exponents, want.exponents), i
                    assert got.counts == want.counts, i
                    assert _same(got.coeffs[m], want.coeffs[0]), i


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


def _mp_det(rows):
    """Determinant by cofactor expansion along the first row, division-free."""
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j] * _mp_det([r[:j] + r[j + 1:]
                                                 for r in rows[1:]])
               for j in range(len(rows)))


def _mp_generator_derivatives(name):
    """(f', f'') of a divergence generator in mpmath arithmetic."""
    delta = mpmath.mpf(TV_DELTA)
    return {"kl": (lambda s: mpmath.log(s) + 1, lambda s: 1 / s),
            "hellinger": (lambda s: 1 - 1 / mpmath.sqrt(s),
                          lambda s: s ** mpmath.mpf("-1.5") / 2),
            "tv": (lambda s: (s - 1) / (2 * mpmath.sqrt((s - 1) ** 2
                                                        + delta ** 2)),
                   lambda s: delta ** 2 / (2 * ((s - 1) ** 2 + delta ** 2)
                                           ** mpmath.mpf("1.5")))}[name]


def _mp_generator_invariance(p, h, v, x, y, dt):
    """el_generator_invariance at 50 digits, as a reference: central
    differences with step 1e-8 on the (2d + 1)-point stencil x, x + 1e-8
    e_i, x - 1e-8 e_i, every polynomial evaluated from its terms, |det V|
    and the cofactors of V by expansion, and f', f'' in mpmath; p_Y is
    the float quadrature the checked function uses."""
    d = v.dim
    p_y = observation_marginal(p, h, y, dt)
    with mpmath.workdps(50):
        step = mpmath.mpf(1e-8)
        x_mp = np.array([mpmath.mpf(float(c)) for c in x], dtype=object)
        shift = np.diag([step] * d)
        pts = np.concatenate([x_mp[None], x_mp + shift, x_mp - shift])
        comps = [c.terms for c in v.components]
        shifted = pts + np.stack([_oracle_partial(t, (), pts)
                                  for t in comps], axis=1)
        log_p, h_terms = p.q.poly.terms, h.poly.terms
        xi = []
        for k in range(2 * d + 1):
            rows = [[int(i == j) + _oracle_partial(comps[j], (i,),
                                                   pts[k:k + 1])[0]
                     for j in range(d)] for i in range(d)]
            s_k = shifted[k:k + 1]
            rho = mpmath.sqrt(dt / (2 * mpmath.pi)) * mpmath.exp(
                -dt * (y - _oracle_partial(h_terms, (), s_k)[0]) ** 2 / 2)
            xi.append(mpmath.exp(_oracle_partial(log_p, (), s_k)[0]) * rho
                      * abs(_mp_det(rows))
                      / (mpmath.exp(_oracle_partial(log_p, (), pts[k:k + 1])
                                    [0]) * p_y))
            if k == 0:
                cof0 = [[(-1) ** (i + j) * _mp_det(
                    [r[:j] + r[j + 1:] for m, r in enumerate(rows) if m != i])
                    for j in range(d)] for i in range(d)]
        out = {}
        for name in ("kl", "hellinger", "tv"):
            fp, fpp = _mp_generator_derivatives(name)
            grad_fp = [(fp(xi[1 + i]) - fp(xi[1 + d + i])) / (2 * step)
                       for i in range(d)]
            out[name] = np.array([float(sum(grad_fp[i] * cof0[i][j]
                                            for i in range(d)) / fpp(xi[0]))
                                  for j in range(d)])
    return out


class TestGeneratorInvariance:
    def test_complex_step_matches_the_fifty_digit_oracle(self):
        """On all 50 el-invariance probes, each generator's complex-step
        vector matches the 50-digit central difference to 1e-9 relative
        (both agree to ~1.6e-10; the suite's tolerance is 1e-6)."""
        rng, dt = np.random.default_rng(3001), 0.01
        for i in range(50):
            p, h, v, x, y = _el_probe(rng, 1 + i % 2)
            got = el_generator_invariance(p, h, v, x, y, dt)
            want = _mp_generator_invariance(p, h, v, x, y, dt)
            assert set(got) == set(want)
            for name in want:
                assert (np.linalg.norm(got[name] - want[name])
                        <= 1e-9 * np.linalg.norm(want[name])), (i, name)

    def test_unknown_generator_lists_the_available_ones(self):
        p = ExpPolyDensity.gaussian([0.0], [[1.0]])
        with pytest.raises(KeyError, match="available: hellinger, kl, tv"):
            el_generator_invariance(
                p, _h_linear(), _const_field(0.01), np.array([0.1]),
                y=0.2, dt=0.01, generators=("kl", "chi2"))

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
        assert got == pytest.approx(expected, rel=1e-12)

    def test_observation_marginal_matches_a_finer_trapezoid(self):
        """On every el-invariance probe, p_Y on 41 nodes an axis agrees
        with the trapezoid rule on 201 nodes an axis over the same
        [-10, 10] to 1e-10 relative."""
        rng, dt = np.random.default_rng(3001), 0.01
        for i in range(50):
            p, h, _, _, y = _el_probe(rng, 1 + i % 2)
            axes = [np.linspace(-10.0, 10.0, 201)] * p.dim
            pts = np.stack(np.meshgrid(*axes, indexing="ij"),
                           axis=-1).reshape(-1, p.dim)
            vals = (p.value(pts) * np.sqrt(dt / (2.0 * np.pi))
                    * np.exp(-0.5 * dt * (y - h.value(pts)) ** 2)
                    ).reshape([201] * p.dim)
            for axis_grid in axes:
                vals = trapezoid(vals, axis_grid, axis=-1)
            assert observation_marginal(p, h, y, dt) == pytest.approx(
                float(vals), rel=1e-10), i


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

    def test_lemma_d_systems_match_solve_banded(self, monkeypatch):
        """On each system the lemmaD suite builds, phi' of the running-sum
        solve agrees on |x| <= 3 with phi' of scipy's banded LU solution of
        the same conservative tridiagonal system."""
        from scipy.linalg import solve_banded
        systems = []

        def recording(*args, **kwargs):
            systems.append((args, kwargs))
            return weighted_poisson_derivative_check(*args, **kwargs)

        monkeypatch.setattr(verify, "weighted_poisson_derivative_check",
                            recording)
        verify.run_suite("lemmaD")
        assert len(systems) == 3
        for (x, p, h), kwargs in systems:
            dx = x[1] - x[0]
            h_hat = np.trapezoid(h * p, x) / np.trapezoid(p, x)
            p_half = 0.5 * (p[:-1] + p[1:])
            bands = np.zeros((3, len(x) - 2))
            bands[0, 1:] = bands[2, :-1] = -p_half[1:-1] / dx ** 2
            bands[1] = (p_half[:-1] + p_half[1:]) / dx ** 2
            phi = np.zeros(len(x))
            phi[1:-1] = solve_banded((1, 1), bands, ((h - h_hat) * p)[1:-1])
            expected = (phi[2:] - phi[:-2]) / (2.0 * dx)
            _, phi_p = weighted_poisson_derivative_check(x, p, h, **kwargs)
            interior = np.abs(x[1:-1]) <= 3.0
            assert np.max(np.abs(phi_p[1:-1] - expected)[interior]) <= 1e-8

    def _args(self):
        x = self.X
        return [x.copy(), self._p(), x.copy(), np.ones_like(x),
                -np.ones_like(x)]

    @pytest.mark.parametrize("value", [0.0, -1e-3])
    @pytest.mark.parametrize("node", [0, 1000, -1],
                             ids=["first", "middle", "last"])
    def test_nonpositive_density_is_value_error(self, value, node):
        args = self._args()
        args[1][node] = value
        with pytest.raises(ValueError, match="p must be positive"):
            weighted_poisson_derivative_check(*args)

    @pytest.mark.parametrize("argument", range(5))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_value_error(self, argument, bad):
        args = self._args()
        args[argument][7] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            weighted_poisson_derivative_check(*args)
