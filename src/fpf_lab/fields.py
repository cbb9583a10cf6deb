"""Polynomial probe fields with exact derivatives.

The identity checks need smooth densities, observation functions, and
vector fields whose *inner* derivatives are analytic, so that a check
differentiates numerically in its outermost layer alone, by complex step
on the fields' complex128 evaluation. Low-degree polynomials with seeded
coefficients keep all derivatives bounded on the probe box.

One monomial kernel, shared with the Galerkin gain basis in gain.py, serves
every field: `monomial_values` gathers monomials from a power table built by
repeated multiplication, each from the power rows of its nonzero exponents
alone, and `partial_table` maps every partial of order <= 3 of a monomial
to the one weighted monomial it is.
Each field's `partials(points, order)` returns the value and the partials
of orders 1..order at points (N, d) or a batch (..., N, d) from one power
table per block of points, as one matrix product per order;
`value`, `grad` and `jac` are views of one order, and no order's weights
are built before it is asked. Points are float64, or complex128 for the
complex-step checks, which the same power and weight tables evaluate in
complex arithmetic.

A probe family's structure is built once and cached; every field of the
family is built from arrays:
- A random probe takes its exponents from a read-only table per (dim,
  degree), `all_exponents`, and `ExpPolyDensity.gaussian` its
  exponents from one per dimension. Term order is free: each (partial,
  component, monomial) weight comes from exactly one term, so a field's
  bits depend on its coefficients' arithmetic and not on the order of its
  terms. A field keeps every term it is given, a zero coefficient's too,
  so a stack's members share their terms whatever their draws; a zero
  term still builds its powers, and where one overflows, its 0 weight
  makes the field NaN (inf * 0), so `config.parse_polynomial` drops the
  zero terms a user writes.
- `partial_table`'s map and a field's weight layout (each map entry's
  flat scatter position, each order's gather rows) are one lru_cache
  entry, keyed by (dim, exponent shape and bytes, order, component term
  counts) and bounded at 1,024 entries.
- A `PolyVectorField` is one coefficient-row table: P fields on the same
  terms, with coefficient rows (P, T). One multiply, one scatter and one
  gather per order give its weight tables (P, Q, K), and its partials at
  points (P, N, d), member m at points[m], are one stacked matrix product
  per order and block of points, one BLAS call a member. A field built
  from components is one row, which evaluates a batch of ensembles
  (B, N, d) the same way, one BLAS call an ensemble; a stack
  (`PolyVectorField.stack`, `PolyScalarField.stack`,
  `ExpPolyDensity.gaussians`) holds P fields, so that verify evaluates
  all its probes of one dimension in one call, and evaluates every member
  at shared points (N, d) from one power table.
- Layout is part of the bits: values @ table rounds by the operands'
  layout, so each member's table is the column-major view of a C-ordered
  gather that a field's has always been, and its values the F-ordered
  view of its own C-ordered (Q, N) block. A member of a stack gets the
  bits of its own field.

`fd_grad(fn, x, step)`, the real central difference of the transport
bracket's outer gradient, evaluates fn (..., M, d) -> (..., M) once on
all 2d points of each of the points x (..., d). A stencil row may differ
from a one-point call in its last bits, as BLAS rounds a product by its
rows.

Derivative tensor conventions of partials[r] (N = number of eval points,
d = dim):
    scalar field:  grad (N, d), hess (N, d, d), third (N, d, d, d)
    vector field:  jac[n, i, j] = dF_j/dx_i, second[n, i, l, j],
                   third[n, i, l, m, j]
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from typing import Dict, Sequence, Tuple

import numpy as np


# ---------------------------------------------------------------------------
# monomial kernel
# ---------------------------------------------------------------------------

def monomial_values(points: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """x_n^alpha_q at points ([S,] N, d), shape ([S,] Q, N), for the
    monomials alpha_q whose rows = monomial_rows(monomials), from the power
    table powers[..., e * d + j, n] = x_nj**e built by repeated
    multiplication (no pow). Each monomial multiplies the power rows of its
    nonzero exponents alone, in coordinate order and padded with row 0
    (x_0^0 = 1): a cubic costs at most 3 gathers in any dimension, and as
    1.0 * v = v its value is the all-coordinate product's, bit for bit."""
    *lead, n, d = points.shape
    powers = np.empty((*lead, rows.max(initial=0) // d + 1, d, n),
                      dtype=points.dtype)
    powers[..., 0, :, :] = 1     # x^0; the loop writes every other row
    for e in range(1, powers.shape[-3]):
        # not out= the table: where an output's range overlaps an input's,
        # as across a stack of one-point members, NumPy takes a scalar
        # complex loop, which rounds otherwise than the vector one
        powers[..., e, :, :] = powers[..., e - 1, :, :] \
            * points.swapaxes(-1, -2)
    powers = powers.reshape(*lead, -1, n)
    values = powers[..., rows[0], :]
    for r in rows[1:]:
        values *= powers[..., r, :]
    return values


def monomial_rows(monomials: np.ndarray) -> np.ndarray:
    """The (width, Q) power-table rows that monomial_values multiplies for
    monomials (Q, d): rows[k, q] = e * d + j for the k-th nonzero exponent
    e of monomial q, at coordinate j, in coordinate order, and 0 past its
    last; width is the most nonzero exponents of any monomial, at least
    1."""
    d = monomials.shape[1]
    nonzero = monomials != 0
    q, j = np.nonzero(nonzero)
    rank = np.cumsum(nonzero, axis=1)[q, j] - 1
    rows = np.zeros((max(1, int(rank.max(initial=0)) + 1), len(monomials)),
                    dtype=int)
    rows[rank, q] = monomials[q, j] * d + j
    return rows


def _differentiate(alpha: Tuple[int, ...], axes: Tuple[int, ...]):
    """(exponents, coefficient) of d^axes x^alpha; the coefficient is 0
    where an exponent drops below 0."""
    exps, coef = list(alpha), 1
    for ax in axes:
        coef *= exps[ax]
        exps[ax] -= 1
    return tuple(exps), coef


def partial_table(dim: int, exponents, order: int = 3):
    """Partials of order <= `order` of the monomials x^exponents[t]:
    (monomials, rows, (m, t, q, w), index) for exponents (T, dim), an array
    or a sequence of tuples.

    monomials (Q, dim) are the exponents that partials of order <= 3 reach
    (at every order), by total degree, then lexicographically, and rows
    their monomial_rows, which monomial_values reads. A partial
    of a monomial is one weighted monomial: entry e of the map says that
    the partial of combo m[e] of x^exponents[t[e]] is w[e] x^monomials[q[e]],
    w the falling factorial a (a - 1) ... of the differentiated exponents;
    a partial that drops an exponent below 0 has no entry. The combos are
    the sorted axes of every order <= `order`, and index[r][i, l, ...] is
    the m of the ordered axes (i, l, ...) of order r. The tables are
    read-only, and cached as _partial_plan's entry of one component.
    """
    exponents = np.asarray(exponents, dtype=int).reshape(-1, dim)
    return _partial_plan(dim, exponents.shape, exponents.tobytes(), order,
                         (len(exponents),))[:4]


@lru_cache(maxsize=1024)
def _partial_plan(dim: int, shape: Tuple[int, int], data: bytes, order: int,
                  counts: Tuple[int, ...]):
    """partial_table's tables of the (shape) int exponents in `data`, then
    the layout of a field whose components hold counts[j] of them in turn:
    scatter[e] is entry e's flat position (m, j, q) in a (combos, J, Q)
    array, whose rows index[r] the order-r weights gather. Cached per
    (dim, shape, bytes, order, counts)."""
    exponents = np.frombuffer(data, dtype=int).reshape(shape)
    combos = {axes: m for m, axes in enumerate(
        axes for r in range(order + 1)
        for axes in combinations_with_replacement(range(dim), r))}
    reached, entries = set(), []
    for t, alpha in enumerate(map(tuple, exponents.tolist())):
        support = [j for j, a in enumerate(alpha) if a]
        for r in range(4):
            for axes in combinations_with_replacement(support, r):
                exps, coef = _differentiate(alpha, axes)
                if coef:
                    reached.add(exps)
                    if r <= order:
                        entries.append((combos[axes], t, exps, coef))
    monomials = sorted(reached, key=lambda a: (sum(a), a))
    position = {a: q for q, a in enumerate(monomials)}
    derivs = np.array([(m, t, position[exps], coef)
                       for m, t, exps, coef in entries],
                      dtype=int).reshape(-1, 4).T
    monomials = np.array(monomials, dtype=int).reshape(-1, dim)
    rows = monomial_rows(monomials)
    index = [np.array([combos[tuple(sorted(axes))]
                       for axes in product(range(dim), repeat=r)]
                      ).reshape((dim,) * r) for r in range(order + 1)]
    m, t, q, _ = derivs
    owner = np.repeat(np.arange(len(counts)), counts)
    scatter = (m * len(counts) + owner[t]) * len(monomials) + q
    for table in (monomials, rows, derivs, *index, scatter):
        table.flags.writeable = False
    return monomials, rows, tuple(derivs), index, scatter


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

# A field's partials are evaluated in blocks of points of at most this many
# monomial values (512 KiB, as the KDE and noise blocks), with one same-size
# gathered temporary beside them: a d = 20 dense cubic takes 64 points
JET_BLOCK = 1 << 16


# OpenBLAS threads a dot product from about 10,000 values (between 9,990
# and 10,010 in a scan with OpenBLAS 0.3.31 on 2 cores); a one-point,
# one-column product from this many values takes the padded path
DOT_SPLIT = 1 << 13


def _product(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """values (..., N, Q) @ table (..., Q, K), one BLAS product per slice.
    OpenBLAS splits the rows of a large one-column product among its
    threads (from about 460,000 values with OpenBLAS 0.3.31 on 2 cores),
    and a thread's rows past its last multiple of 4 take another kernel;
    so a one-column product of JET_BLOCK values or more runs on rows
    padded with zeros to a multiple of 64, so that a split among 2, 4, 8
    or 16 threads leaves every row in the kernel it takes on one thread.
    A one-row, one-column product is a dot product, which OpenBLAS splits
    from fewer values, so one of DOT_SPLIT values or more is padded too."""
    n, q = values.shape[-2:]
    if (table.shape[-1] > 1 or n % 64 == 0
            or n * q < (DOT_SPLIT if n == 1 else JET_BLOCK)):
        return values @ table
    padded = np.zeros(values.shape[:-2] + (q, n + -n % 64),
                      dtype=values.dtype)
    padded = padded.swapaxes(-1, -2)
    padded[..., :n, :] = values
    return (padded @ table)[..., :n, :]


class Polynomial:
    """Multivariate polynomial: exponents (T, d) and coefficients (T,),
    every term kept, a zero coefficient's too. A zero term is evaluated
    with the others, so a field holding one is NaN wherever that term's
    power overflows (inf * 0), e.g. 0 * x1^400 at |x1| > 5.9."""

    def __init__(self, dim: int, terms: Dict[Tuple[int, ...], float]):
        self._set(dim, np.array(list(terms), dtype=int).reshape(-1, dim),
                  np.array([float(c) for c in terms.values()]))

    def _set(self, dim: int, exponents: np.ndarray, coeffs: np.ndarray):
        self.dim = dim
        self.exponents, self.coeffs = exponents, coeffs
        self.exponents.flags.writeable = self.coeffs.flags.writeable = False

    @classmethod
    def _from_arrays(cls, dim: int, exponents: np.ndarray,
                     coeffs: np.ndarray) -> "Polynomial":
        poly = cls.__new__(cls)
        poly._set(dim, exponents, coeffs)
        return poly

    @property
    def terms(self) -> Dict[Tuple[int, ...], float]:
        return dict(zip(map(tuple, self.exponents.tolist()),
                        self.coeffs.tolist()))


@lru_cache(maxsize=None)
def all_exponents(dim: int, degree: int) -> np.ndarray:
    """Every exponent of total degree <= degree, (T, dim) in lexicographic
    order, which is itertools.product's; read-only. The order must stay: a
    random probe's coefficients are drawn in this order, so it fixes which
    draw goes to which term of every random verify probe. Each exponent
    counts the axes of one multiset of at most degree axes, so the work
    grows with T, not with the (degree + 1)**dim grid."""
    exponents = np.array(sorted(
        tuple(axes.count(j) for j in range(dim))
        for total in range(degree + 1)
        for axes in combinations_with_replacement(range(dim), total)),
        dtype=int).reshape(-1, dim)
    exponents.flags.writeable = False
    return exponents


def _as_points(points) -> np.ndarray:
    """Points as complex128 if they are complex, else as float64, at least
    (1, d)."""
    points = np.asarray(points)
    return np.atleast_2d(points.astype(
        complex if np.iscomplexobj(points) else float, copy=False))


class PolyScalarField:
    """Scalar polynomial field with exact partials of order <= 3."""

    def __init__(self, poly: Polynomial):
        self.poly = poly
        self.dim = poly.dim
        self._field = PolyVectorField([poly])

    @classmethod
    def stack(cls, exponents: np.ndarray,
              coeffs: np.ndarray) -> "PolyScalarField":
        """P scalar fields with coefficient rows coeffs (P, T) on exponents
        (T, d), evaluated as PolyVectorField.stack evaluates its members;
        poly is None."""
        stacked = cls.__new__(cls)
        stacked.poly, stacked.dim = None, exponents.shape[1]
        stacked._field = PolyVectorField.stack(exponents, (len(exponents),),
                                               coeffs)
        return stacked

    def _jet(self, points, orders: Sequence[int]) -> list:
        return [a[..., 0] for a in self._field._jet(points, orders)]

    def partials(self, points, order: int) -> list:
        """[value, grad, hess, third][:order + 1] from one power table per
        block of points."""
        return self._jet(points, range(order + 1))

    def value(self, points) -> np.ndarray:
        return self._jet(points, (0,))[0]

    def grad(self, points) -> np.ndarray:
        return self._jet(points, (1,))[0]


class PolyVectorField:
    """Vector field with polynomial components and exact derivatives.

    Its J components hold counts[j] terms in turn on exponents (T, d), with
    coefficient rows coeffs (P, T): P fields on the same terms.  A field
    built from components is one row, and evaluates points (..., N, d)
    with no member axis; a `stack` keeps the member axis."""

    def __init__(self, components: Sequence[Polynomial]):
        self.components = list(components)
        self.dim = len(self.components)
        self._set(np.concatenate([c.exponents for c in self.components]),
                  tuple(len(c.coeffs) for c in self.components),
                  np.concatenate([c.coeffs for c in self.components])[None])

    def _set(self, exponents: np.ndarray, counts: Tuple[int, ...],
             coeffs: np.ndarray):
        self.exponents, self.counts, self.coeffs = exponents, counts, coeffs
        self._weight_tables = (None, [], None)   # what _weights built last

    @classmethod
    def stack(cls, exponents: np.ndarray, counts: Tuple[int, ...],
              coeffs: np.ndarray) -> "PolyVectorField":
        """P vector fields with coefficient rows coeffs (P, T) on shared
        exponents (T, d), whose J components hold counts[j] terms in turn:
        partials, value and jac evaluate member m at points[m], points
        (P, M, d), or every member at the same points (M, d), from one
        power table, and stack the partials of order r as
        (P, M) + (d,) * r + (J,); it has no components.  Each member gets
        the bits of its own PolyVectorField."""
        stacked = cls.__new__(cls)
        stacked.components, stacked.dim = None, len(counts)
        stacked._set(np.asarray(exponents, dtype=int), tuple(counts),
                     np.asarray(coeffs, dtype=float))
        return stacked

    def _weights(self, order: int):
        """(monomials, tables, rows), rows the monomials' monomial_rows:
        tables[r] (P, Q, d**r * J) holds the weights of the order-r
        partials, columns ordered (i, l, m, j), for r up to the highest
        order asked so far. Each entry of the cached plan's map puts its
        term's coefficient times w at its scatter position in a flat
        (combos, J, Q) array per member, whose gathered rows are each
        order's weights. Each member's tables[r] is a column-major view of
        that C-ordered (d**r, J, Q) gather: BLAS rounds values @ tables[r]
        by the operands' layout, so the layout is part of every field's
        bits, and a member of a stack gets the bits of its own field."""
        if len(self._weight_tables[1]) > order:
            return self._weight_tables
        exponents = self.exponents
        d = exponents.shape[1]
        monomials, rows, (_, t, _, w), index, scatter = _partial_plan(
            d, exponents.shape, exponents.tobytes(), order, self.counts)
        p, j, q = len(self.coeffs), len(self.counts), len(monomials)
        phi = np.zeros((p, math.comb(d + order, order), j * q))
        phi.reshape(p, -1)[:, scatter] = self.coeffs[:, t] * w
        self._weight_tables = monomials, [
            np.take(phi, i.ravel(), axis=1).reshape(p, i.size, j, q)
            .transpose(0, 3, 1, 2).reshape(p, q, i.size * j)
            for i in index], rows
        return self._weight_tables

    def _jet(self, points, orders: Sequence[int]) -> list:
        """The partials of each order r in `orders`: a stack's at points
        (P, M, d) or (M, d), shape (P, M) + (d,) * r + (J,), and a field's
        at points (..., N, d), shape (..., N) + (d,) * r + (J,).  A batch
        is one call whose products are one per (N, d) ensemble, as a
        product over all its rows may round a row otherwise, each with the
        bits of that ensemble alone.  Complex points are evaluated in
        complex128 through the same tables.  Points of another width than
        the field's dimension raise ValueError."""
        points = _as_points(points)
        if points.shape[-1] != self.exponents.shape[1]:
            raise ValueError(
                f"points have {points.shape[-1]} coordinates; the field has "
                f"{self.exponents.shape[1]} variables")
        if points.ndim == 2:
            jets = self._rows_jet(points[None], orders)
            return jets if self.components is None else [a[0] for a in jets]
        jets = self._rows_jet(points.reshape(-1, *points.shape[-2:]),
                              orders)
        if self.components is None:
            return jets
        return [a.reshape(points.shape[:-2] + a.shape[1:]) for a in jets]

    def _rows_jet(self, points: np.ndarray, orders: Sequence[int]) -> list:
        """The partials of each order r in `orders` of member m at
        points[m], points (P, N, d): shape (P, N) + (d,) * r + (J,).
        Points (1, N, d) are every member's, and a field of one row
        evaluates each points[b] of points (B, N, d), as one stacked
        product whose slice b is the product of points[b] alone: its
        operand of one is broadcast, not copied.  The points are evaluated
        in blocks, so a block's (P, Q, N) values are all that exist at
        once.  A block is a multiple of 64 points holding at most
        JET_BLOCK values a member or ensemble (64 points at least), and
        the last block takes a single point left over, as BLAS rounds a
        one-row product differently.  The blocks depend on N and Q alone,
        so a member gets the bits of its own field; a block's rows need
        not get the bits of a longer product, even on one thread."""
        _, tables, rows = self._weights(max(orders))
        n, d = points.shape[1:]
        p = max(len(points), len(self.coeffs))
        block = max(64, JET_BLOCK // max(1, rows.shape[1]) // 64 * 64)
        if n > block + 1:
            bounds = [0, *range(block, n - 1, block), n]
            parts = [self._rows_jet(points[:, lo:hi], orders)
                     for lo, hi in zip(bounds, bounds[1:])]
            return [np.concatenate(jets, axis=1) for jets in zip(*parts)]
        values = np.ascontiguousarray(
            monomial_values(points, rows)).swapaxes(-1, -2)
        return [_product(values, tables[r]).reshape(
            (p, n) + (d,) * r + (len(self.counts),)) for r in orders]

    def partials(self, points, order: int) -> list:
        """[value, jac, second, third][:order + 1] from one power table per
        block of points."""
        return self._jet(points, range(order + 1))

    def value(self, points) -> np.ndarray:
        return self._jet(points, (0,))[0]

    def jac(self, points) -> np.ndarray:
        """jac[n, i, j] = dF_j/dx_i, i.e. each jac[n] is (grad F^T)."""
        return self._jet(points, (1,))[0]


class ExpPolyDensity:
    """Unnormalized-or-normalized density p = exp(q) with polynomial q.

    All derivatives of p and of log p are exact; identities quadratic in p
    are invariant under rescaling p, so exact normalization only matters
    where stated.
    """

    def __init__(self, q: Polynomial):
        self.q = PolyScalarField(q)
        self.dim = q.dim

    @classmethod
    def gaussian(cls, mean, cov) -> "ExpPolyDensity":
        """log N(mean, cov) as exp(q), q's terms in _gaussian_terms' order:
        gaussians' member of one."""
        mean = np.asarray(mean, dtype=float).reshape(-1)
        d = len(mean)
        cov = np.asarray(cov, dtype=float).reshape(d, d)
        return cls(Polynomial._from_arrays(
            d, _gaussian_terms(d)[0], _gaussian_coeffs(mean[None],
                                                       cov[None])[0]))

    @classmethod
    def gaussians(cls, means: np.ndarray,
                  covs: np.ndarray) -> "ExpPolyDensity":
        """P Gaussians N(means[m], covs[m]), means (P, d) and covs (P, d, d),
        as one density evaluated as PolyVectorField.stack evaluates its
        members: member m at points[m], points (P, M, d), or every member
        at points (M, d), with the bits of gaussian(means[m], covs[m])."""
        means = np.asarray(means, dtype=float)
        stacked = cls.__new__(cls)
        stacked.dim = means.shape[1]
        stacked.q = PolyScalarField.stack(
            _gaussian_terms(stacked.dim)[0],
            _gaussian_coeffs(means, np.asarray(covs, dtype=float)))
        return stacked

    def partials(self, points, order: int) -> list:
        """[p, grad p, hess p, third p][:order + 1] by the product rule on
        p = exp(q), from one evaluation of the partials of q."""
        q = self.q.partials(points, order)
        p = np.exp(q[0])
        out = [p]
        if order >= 1:
            out.append(p[..., None] * q[1])
        if order >= 2:
            out.append(p[..., None, None]
                       * (q[2] + np.einsum("...i,...j->...ij", q[1], q[1])))
        if order >= 3:
            sym = (np.einsum("...ij,...k->...ijk", q[2], q[1])
                   + np.einsum("...ik,...j->...ijk", q[2], q[1])
                   + np.einsum("...jk,...i->...ijk", q[2], q[1]))
            outer3 = np.einsum("...i,...j,...k->...ijk", q[1], q[1], q[1])
            out.append(p[..., None, None, None] * (q[3] + sym + outer3))
        return out

    def value(self, points) -> np.ndarray:
        return self.partials(points, 0)[0]

    # log-density gradient (a polynomial evaluation)
    def grad_log(self, points) -> np.ndarray:
        return self.q.grad(points)


def _gaussian_coeffs(means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """The coefficient rows (P, T) of log N(means[m], covs[m]) on
    _gaussian_terms' exponents, one LAPACK inverse and determinant and one
    BLAS product per matrix, each row the bits of its own: the constant is
    const - ((0.5 mean) @ prec) @ mean, x_i's coefficient prec[i] @ mean,
    and an x_i x_j coefficient 0.0 - 0.5 prec[i, j], less 0.5 prec[j, i]
    when i != j, in that order."""
    p, d = means.shape
    prec = np.linalg.inv(covs)
    const = -0.5 * (d * np.log(2.0 * np.pi) + np.log(np.linalg.det(covs)))
    exponents, first, second = _gaussian_terms(d)
    flat = prec.reshape(p, d * d)
    column = means[:, :, None]
    coeffs = np.empty((p, len(exponents)))
    coeffs[:, 0] = const - ((0.5 * means)[:, None] @ prec @ column)[:, 0, 0]
    for i in range(d):
        coeffs[:, 1 + i] = (prec[:, i, None] @ column)[:, 0, 0]
    coeffs[:, d + 1:] = 0.0 - 0.5 * flat[:, first]
    coeffs[:, 2 * d + 1:] -= 0.5 * flat[:, second]
    return coeffs


@lru_cache(maxsize=None)
def _gaussian_terms(d: int):
    """(exponents, first, second) of gaussian's terms in dimension d,
    read-only: the exponents of 1, each x_i, each x_i^2, then each x_i x_j
    with i < j; the flat precision position (i, i) or (i, j) of each
    quadratic term, and (j, i) of each x_i x_j."""
    eye = np.eye(d, dtype=int)
    i, j = np.array(list(combinations(range(d), 2)),
                    dtype=int).reshape(-1, 2).T
    terms = (np.concatenate([np.zeros((1, d), dtype=int), eye, 2 * eye,
                             eye[i] + eye[j]]),
             np.concatenate([np.arange(d) * (d + 1), i * d + j]),
             j * d + i)
    for table in terms:
        table.flags.writeable = False
    return terms


# ---------------------------------------------------------------------------
# finite differences (the transport bracket's outermost layer)
# ---------------------------------------------------------------------------

def fd_grad(fn, x: np.ndarray, step: float) -> np.ndarray:
    """Central-difference gradient at points x (..., d) of fn, points
    (..., M, d) -> values (..., M), from one call on the stencil
    x + step e_i, then x - step e_i, of each point."""
    x = np.asarray(x, dtype=float)[..., None, :]
    e = step * np.eye(x.shape[-1])
    f = fn(np.concatenate([x + e, x - e], axis=-2))
    return (f[..., :e.shape[0]] - f[..., e.shape[0]:]) / (2.0 * step)
