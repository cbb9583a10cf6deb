"""Polynomial probe fields with exact derivatives.

The identity checks need smooth densities, observation functions, and
vector fields whose *inner* derivatives are analytic, so that finite
differences appear only in the outermost layer of each check (nested FD
would drown the tolerances in roundoff). Low-degree polynomials with
seeded coefficients keep all derivatives bounded on the probe box.

One monomial kernel, shared with the Galerkin gain basis in gain.py, serves
every field: `monomial_values` gathers monomials from a power table built by
repeated multiplication, each from the power rows of its nonzero exponents
alone, and `partial_table` maps every partial of order <= 3 of a monomial
to the one weighted monomial it is.
Each field's `partials(points, order)` returns the value and the partials
of orders 1..order at points (N, d) or a batch (..., N, d) from one power
table per block of points, as one matrix product per order;
`value`, `grad` and `jac` are views of one order, and no order's weights
are built before it is asked. Points are float64, or an object array of
mpmath.mpf for the 50-digit checks, which the same power and weight tables
evaluate in mpmath arithmetic.

A probe family's structure is built once and cached; every field of the
family is built from arrays:
- `Polynomial.random` takes its exponents from a read-only table per
  (dim, degree), and `ExpPolyDensity.gaussian` its term order and the
  order in which off-diagonal precision entries merge from a plan per
  dimension. Both give the coefficient bytes of the dict they replaced.
- `partial_table`'s map and a field's weight layout (each map entry's flat
  scatter position, each order's gather rows) are one lru_cache entry,
  keyed by (dim, exponent shape and bytes, order, component term counts)
  and bounded at 1,024 entries. A field concatenates its coefficients and
  makes one multiply, one scatter and one gather per order.
- Layout is part of the bits: values @ table rounds by the operands'
  layout, so each order's table is the column-major view of a C-ordered
  gather that it has always been.

Finite differences, the outermost layer alone, call a function once per
stencil: `fd_grad(fn, x, step)` evaluates fn (M, d) -> (M,) on all 2d points.
A stencil row may differ from a one-point call in its last bits, as BLAS
rounds a product by its rows.

Derivative tensor conventions of partials[r] (N = number of eval points,
d = dim):
    scalar field:  grad (N, d), hess (N, d, d), third (N, d, d, d)
    vector field:  jac[n, i, j] = dF_j/dx_i, second[n, i, l, j],
                   third[n, i, l, m, j]
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, product
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
    powers = np.ones((*lead, rows.max(initial=0) // d + 1, d, n),
                     dtype=points.dtype)
    for e in range(1, powers.shape[-3]):
        np.multiply(powers[..., e - 1, :, :], points.swapaxes(-1, -2),
                    out=powers[..., e, :, :])
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
    """values (N, Q) @ table (Q, K).  OpenBLAS splits the rows of a large
    one-column product among its threads (from about 460,000 values with
    OpenBLAS 0.3.31 on 2 cores), and a thread's rows past its last
    multiple of 4 take another kernel; so a one-column product of
    JET_BLOCK values or more runs on rows padded with zeros to a multiple
    of 64, so that a split among 2, 4, 8 or 16 threads leaves every row
    in the kernel it takes on one thread.  A one-row, one-column product
    is a dot product, which OpenBLAS splits from fewer values, so one of
    DOT_SPLIT values or more is padded too."""
    n, q = values.shape
    if (table.shape[1] > 1 or n % 64 == 0
            or n * q < (DOT_SPLIT if n == 1 else JET_BLOCK)):
        return values @ table
    padded = np.zeros((q, n + -n % 64), dtype=values.dtype).T
    padded[:n] = values
    return (padded @ table)[:n]


class Polynomial:
    """Multivariate polynomial: exponents (T, d) and coefficients (T,).
    Terms with a zero coefficient are dropped."""

    def __init__(self, dim: int, terms: Dict[Tuple[int, ...], float]):
        self._set(dim, np.array(list(terms), dtype=int).reshape(-1, dim),
                  np.array([float(c) for c in terms.values()]))

    def _set(self, dim: int, exponents: np.ndarray, coeffs: np.ndarray):
        if not coeffs.all():
            keep = coeffs != 0.0
            exponents, coeffs = exponents[keep], coeffs[keep]
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

    @cached_property
    def _field(self) -> "PolyVectorField":
        return PolyVectorField([self])

    @classmethod
    def random(cls, dim: int, degree: int, rng: np.random.Generator,
               scale: float = 1.0) -> "Polynomial":
        """Standard normal coefficients times scale on every exponent of
        total degree <= degree, from one vector draw (the same values, and
        the same generator state after, as one scalar draw per term)."""
        exponents = _all_exponents(dim, degree)
        return cls._from_arrays(
            dim, exponents, scale * rng.standard_normal(len(exponents)))


@lru_cache(maxsize=None)
def _all_exponents(dim: int, degree: int) -> np.ndarray:
    """Every exponent of total degree <= degree, (T, dim) in the order of
    itertools.product; read-only."""
    exponents = np.array([alpha for alpha in product(range(degree + 1),
                                                     repeat=dim)
                          if sum(alpha) <= degree],
                         dtype=int).reshape(-1, dim)
    exponents.flags.writeable = False
    return exponents


class PolyScalarField:
    """Scalar polynomial field with exact partials of order <= 3."""

    def __init__(self, poly: Polynomial):
        self.poly = poly
        self.dim = poly.dim

    def _jet(self, points, orders: Sequence[int]) -> list:
        return [a[..., 0] for a in self.poly._field._jet(points, orders)]

    def partials(self, points, order: int) -> list:
        """[value, grad, hess, third][:order + 1] from one power table per
        block of points."""
        return self._jet(points, range(order + 1))

    def value(self, points) -> np.ndarray:
        return self._jet(points, (0,))[0]

    def grad(self, points) -> np.ndarray:
        return self._jet(points, (1,))[0]


class PolyVectorField:
    """Vector field with polynomial components and exact derivatives."""

    def __init__(self, components: Sequence[Polynomial]):
        self.components = list(components)
        self.dim = len(self.components)
        self._weight_tables = (None, [], None)   # what _weights built last

    @classmethod
    def random(cls, dim: int, degree: int, rng: np.random.Generator,
               scale: float = 1.0) -> "PolyVectorField":
        return cls([Polynomial.random(dim, degree, rng, scale)
                    for _ in range(dim)])

    def _weights(self, order: int):
        """(monomials, tables, rows), rows the monomials' monomial_rows:
        tables[r] (Q, d**r * J) holds the weights of
        the order-r partials, columns ordered (i, l, m, j), for r up to the
        highest order asked so far. Each entry of the cached plan's map puts
        its term's coefficient times w at its scatter position in a flat
        (combos, J, Q) array, whose gathered rows are each order's weights.
        tables[r] is a column-major view of that C-ordered (d**r, J, Q)
        gather: BLAS rounds values @ tables[r] by the operands' layout, so
        the layout is part of every field's bits."""
        if len(self._weight_tables[1]) > order:
            return self._weight_tables
        exponents = np.concatenate([c.exponents for c in self.components])
        d = exponents.shape[1]
        monomials, rows, (_, t, _, w), index, scatter = _partial_plan(
            d, exponents.shape, exponents.tobytes(), order,
            tuple(len(c.coeffs) for c in self.components))
        coeffs = np.concatenate([c.coeffs for c in self.components])
        q = len(monomials)
        phi = np.zeros((math.comb(d + order, order), self.dim * q))
        phi.ravel()[scatter] = coeffs[t] * w
        self._weight_tables = monomials, [
            phi[i.ravel()].reshape(i.size, self.dim, q).transpose(2, 0, 1)
            .reshape(q, i.size * self.dim) for i in index], rows
        return self._weight_tables

    def _jet(self, points, orders: Sequence[int]) -> list:
        """The partials of each order r in `orders` at points (..., N, d),
        shape (..., N) + (d,) * r + (J,).  A batch is evaluated one (N, d)
        ensemble at a time, as a product over all its rows may round a row
        otherwise, and an ensemble block by block, so its (Q, N) values
        never exist at once.  A block is a multiple of 64 points holding
        at most JET_BLOCK values (64 points at least), and the last block
        takes a single point left over, as BLAS rounds a one-row product
        differently.  The blocks depend on N and Q alone; a block's rows
        need not get the bits of a longer product, even on one thread.
        Object arrays of mpmath.mpf points keep their dtype, and are
        evaluated in mpmath arithmetic through the same tables."""
        points = np.asarray(points)
        points = np.atleast_2d(points if points.dtype == object
                               else points.astype(float, copy=False))
        if points.ndim > 2:
            parts = [self._jet(x, orders)
                     for x in points.reshape(-1, *points.shape[-2:])]
            return [np.stack(jets).reshape(points.shape[:-2] + jets[0].shape)
                    for jets in zip(*parts)]
        _, tables, rows = self._weights(max(orders))
        n, d = points.shape
        block = max(64, JET_BLOCK // max(1, rows.shape[1]) // 64 * 64)
        if n > block + 1:
            bounds = [0, *range(block, n - 1, block), n]
            parts = [self._jet(points[lo:hi], orders)
                     for lo, hi in zip(bounds, bounds[1:])]
            return [np.concatenate(jets) for jets in zip(*parts)]
        values = monomial_values(points, rows).T
        return [_product(values, tables[r]).reshape(
            (n,) + (d,) * r + (self.dim,)) for r in orders]

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
        """log N(mean, cov) as exp(q): q's constant, then for each i its
        x_i term and the x_i x_j terms it reaches first, j = 0..d-1. An
        x_i x_j coefficient is 0.0 - 0.5 prec[i, j], less 0.5 prec[j, i]
        when i != j, in that order."""
        mean = np.asarray(mean, dtype=float).reshape(-1)
        d = len(mean)
        cov = np.asarray(cov, dtype=float).reshape(d, d)
        prec = np.linalg.inv(cov)
        const = -0.5 * (d * np.log(2.0 * np.pi)
                        + np.log(np.linalg.det(cov)))
        exponents, linear, quadratic, first, second = _gaussian_plan(d)
        coeffs = np.empty(len(exponents))
        coeffs[0] = const - 0.5 * mean @ prec @ mean
        coeffs[linear] = [prec[i] @ mean for i in range(d)]
        quad = 0.0 - 0.5 * prec.ravel()[first]
        quad[d:] -= 0.5 * prec.ravel()[second]
        coeffs[quadratic] = quad
        return cls(Polynomial._from_arrays(d, exponents, coeffs))

    @classmethod
    def random_gaussian(cls, dim: int,
                        rng: np.random.Generator) -> "ExpPolyDensity":
        mean = 0.3 * rng.standard_normal(dim)
        a = 0.3 * rng.standard_normal((dim, dim))
        cov = np.eye(dim) + a @ a.T
        return cls.gaussian(mean, cov)

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


@lru_cache(maxsize=None)
def _gaussian_plan(d: int):
    """(exponents, linear, quadratic, first, second) of gaussian's terms in
    dimension d, read-only: the exponents in the order of the dict that
    adds x_i, then x_i x_j for j = 0..d-1, for each i in turn; the
    positions of the x_i and of the quadratic terms, squares first; and
    the flat precision entries (i, j) that add each quadratic term first
    and, off the diagonal, the (j, i) that merge into it after."""
    eye = np.eye(d, dtype=int)
    terms = {(0,) * d: []}
    linear = []
    for i in range(d):
        linear.append(len(terms))
        terms[tuple(eye[i])] = []
        for j in range(d):
            terms.setdefault(tuple(eye[i] + eye[j]), []).append(i * d + j)
    adds = list(terms.values())
    quadratic = sorted((q for q, flat in enumerate(adds) if flat),
                       key=lambda q: len(adds[q]))
    plan = (np.array(list(terms), dtype=int).reshape(-1, d),
            np.array(linear), np.array(quadratic, dtype=int),
            np.array([adds[q][0] for q in quadratic], dtype=int),
            np.array([adds[q][1] for q in quadratic[d:]], dtype=int))
    for table in plan:
        table.flags.writeable = False
    return plan


# ---------------------------------------------------------------------------
# finite differences (outermost layer only)
# ---------------------------------------------------------------------------

def fd_grad(fn, x: np.ndarray, step: float) -> np.ndarray:
    """Central-difference gradient at x (d,) of fn, points (M, d) -> values
    (M,), from one call on the stencil x + step e_i, then x - step e_i."""
    x = np.asarray(x, dtype=float)
    e = step * np.eye(len(x))
    f = fn(np.concatenate([x + e, x - e]))
    return (f[:len(x)] - f[len(x):]) / (2.0 * step)


def converges_quadratically(gap: float, gap_half: float) -> bool:
    """True when halving fd_step cut the gap by >= 3, or both gaps already
    sit at the 1e-12 roundoff floor (FD-free identities)."""
    if abs(gap) <= 1e-12 and abs(gap_half) <= 1e-12:
        return True
    return abs(gap) >= 3.0 * abs(gap_half)
