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
are built before it is asked.

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
    powers = np.ones((*lead, rows.max(initial=0) // d + 1, d, n))
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


@lru_cache(maxsize=1024)
def partial_table(dim: int, exponents: Tuple[Tuple[int, ...], ...],
                  order: int = 3):
    """Partials of order <= `order` of the monomials x^exponents[t]:
    (monomials, rows, (m, t, q, w), index), cached per (dim, exponents,
    order).

    monomials (Q, dim) are the exponents that partials of order <= 3 reach
    (at every order), by total degree, then lexicographically, and rows
    their monomial_rows, which monomial_values reads. A partial
    of a monomial is one weighted monomial: entry e of the map says that
    the partial of combo m[e] of x^exponents[t[e]] is w[e] x^monomials[q[e]],
    w the falling factorial a (a - 1) ... of the differentiated exponents;
    a partial that drops an exponent below 0 has no entry. The combos are
    the sorted axes of every order <= `order`, and index[r][i, l, ...] is
    the m of the ordered axes (i, l, ...) of order r. The tables are
    read-only.
    """
    combos = {axes: m for m, axes in enumerate(
        axes for r in range(order + 1)
        for axes in combinations_with_replacement(range(dim), r))}
    reached, entries = set(), []
    for t, alpha in enumerate(exponents):
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
    for table in (monomials, rows, derivs, *index):
        table.flags.writeable = False
    return monomials, rows, tuple(derivs), index


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

# A field's partials are evaluated in blocks of points of at most this many
# monomial values (512 KiB, as the KDE and noise blocks), with one same-size
# gathered temporary beside them: a d = 20 dense cubic takes 64 points
JET_BLOCK = 1 << 16

class Polynomial:
    """Multivariate polynomial: exponents (T, d) and coefficients (T,)."""

    def __init__(self, dim: int, terms: Dict[Tuple[int, ...], float]):
        terms = {tuple(a): float(c) for a, c in terms.items()
                 if float(c) != 0.0}
        self.dim = dim
        self.exponents = np.array(list(terms), dtype=int).reshape(-1, dim)
        self.coeffs = np.array(list(terms.values()))
        self.exponents.flags.writeable = self.coeffs.flags.writeable = False

    @property
    def terms(self) -> Dict[Tuple[int, ...], float]:
        return dict(zip(map(tuple, self.exponents.tolist()),
                        self.coeffs.tolist()))

    @cached_property
    def _field(self) -> "PolyVectorField":
        return PolyVectorField([self])

    def eval_one(self, x: Sequence):
        """Evaluate at one point with plain Python arithmetic.

        Works with any numeric type supporting * and ** (e.g. mpmath.mpf),
        which the high-precision checks rely on.
        """
        total = 0
        for alpha, c in zip(self.exponents.tolist(), self.coeffs.tolist()):
            total = total + math.prod((xi ** ai for xi, ai in zip(x, alpha)
                                       if ai), start=c)
        return total

    @classmethod
    def random(cls, dim: int, degree: int, rng: np.random.Generator,
               scale: float = 1.0) -> "Polynomial":
        return cls(dim, {alpha: scale * rng.standard_normal()
                         for alpha in product(range(degree + 1), repeat=dim)
                         if sum(alpha) <= degree})


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
        highest order asked so far. Each entry of partial_table's map puts
        its term's coefficient times w at (partial, component, monomial) of
        one (combos, J, Q) array, from which every order's columns are
        gathered."""
        if len(self._weight_tables[1]) > order:
            return self._weight_tables
        owner = np.repeat(np.arange(self.dim),
                          [len(c.coeffs) for c in self.components])
        coeffs = np.concatenate([c.coeffs for c in self.components])
        exponents = np.vstack([c.exponents for c in self.components])
        d = exponents.shape[1]
        monomials, rows, (m, t, q, w), index = partial_table(
            d, tuple(map(tuple, exponents.tolist())), order)
        phi = np.zeros((math.comb(d + order, order), self.dim,
                        len(monomials)))
        phi[m, owner[t], q] = coeffs[t] * w
        self._weight_tables = monomials, [
            phi[index[r].ravel()].transpose(2, 0, 1).reshape(
                len(monomials), index[r].size * self.dim)
            for r in range(order + 1)], rows
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
        need not get the bits of a longer product, even on one thread."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
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
        return [(values @ tables[r]).reshape((n,) + (d,) * r + (self.dim,))
                for r in orders]

    def partials(self, points, order: int) -> list:
        """[value, jac, second, third][:order + 1] from one power table per
        block of points."""
        return self._jet(points, range(order + 1))

    def value(self, points) -> np.ndarray:
        return self._jet(points, (0,))[0]

    def jac(self, points) -> np.ndarray:
        """jac[n, i, j] = dF_j/dx_i, i.e. each jac[n] is (grad F^T)."""
        return self._jet(points, (1,))[0]

    def value_one(self, x: Sequence) -> list:
        return [c.eval_one(x) for c in self.components]

    def jac_one(self, x: Sequence) -> list:
        """Row-major nested list J[i][j] = dF_j/dx_i at one point, from the
        weights of the first partials."""
        monomials, tables, _ = self._weights(1)
        exponents = list(map(tuple, monomials.tolist()))
        jac = [Polynomial(monomials.shape[1], dict(zip(exponents, col)))
               .eval_one(x)
               for col in tables[1].T.tolist()]        # ordered (i, j)
        return [jac[i * self.dim:(i + 1) * self.dim] for i in range(self.dim)]


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
        mean = np.asarray(mean, dtype=float).reshape(-1)
        d = len(mean)
        cov = np.asarray(cov, dtype=float).reshape(d, d)
        prec = np.linalg.inv(cov)
        const = -0.5 * (d * np.log(2.0 * np.pi)
                        + np.log(np.linalg.det(cov)))
        eye = np.eye(d, dtype=int)
        terms = {(0,) * d: const - 0.5 * mean @ prec @ mean}
        for i in range(d):
            terms[tuple(eye[i])] = float(prec[i] @ mean)
            for j in range(d):
                e_ij = tuple(eye[i] + eye[j])
                terms[e_ij] = terms.get(e_ij, 0.0) - 0.5 * prec[i, j]
        return cls(Polynomial(d, terms))

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
            out.append(p[:, None] * q[1])
        if order >= 2:
            out.append(p[:, None, None]
                       * (q[2] + np.einsum("ni,nj->nij", q[1], q[1])))
        if order >= 3:
            sym = (np.einsum("nij,nk->nijk", q[2], q[1])
                   + np.einsum("nik,nj->nijk", q[2], q[1])
                   + np.einsum("njk,ni->nijk", q[2], q[1]))
            outer3 = np.einsum("ni,nj,nk->nijk", q[1], q[1], q[1])
            out.append(p[:, None, None, None] * (q[3] + sym + outer3))
        return out

    def value(self, points) -> np.ndarray:
        return self.partials(points, 0)[0]

    def log_one(self, x: Sequence):
        return self.q.poly.eval_one(x)

    # log-density gradient (a polynomial evaluation)
    def grad_log(self, points) -> np.ndarray:
        return self.q.grad(points)


# ---------------------------------------------------------------------------
# finite differences (outermost layer only)
# ---------------------------------------------------------------------------

def fd_grad(fn, x: np.ndarray, step: float) -> np.ndarray:
    """Central-difference gradient of a scalar function of one point."""
    x = np.asarray(x, dtype=float)
    e = step * np.eye(len(x))
    return np.array([(fn(x + e[i]) - fn(x - e[i])) / (2.0 * step)
                     for i in range(len(x))])


def converges_quadratically(gap: float, gap_half: float) -> bool:
    """True when halving fd_step cut the gap by >= 3, or both gaps already
    sit at the 1e-12 roundoff floor (FD-free identities)."""
    if abs(gap) <= 1e-12 and abs(gap_half) <= 1e-12:
        return True
    return abs(gap) >= 3.0 * abs(gap_half)
