"""Polynomial probe fields with exact derivatives.

The identity checks need smooth densities, observation functions, and
vector fields whose *inner* derivatives are analytic, so that finite
differences appear only in the outermost layer of each check (nested FD
would drown the tolerances in roundoff). Low-degree polynomials with
seeded coefficients keep all derivatives bounded on the probe box.

One monomial kernel, shared with the Galerkin gain basis in gain.py, serves
every field: `monomial_values` gathers monomials from a power table built by
repeated multiplication, and `partial_table` holds the falling-factorial
weights that give every partial of order <= 3 as one matrix product.
Each field's `partials(points, order)` returns the value and the partials
of orders 1..order from one power table; `value`, `grad`, `jac`, ... are
views of one order, and no order's weights are built before it is asked.

Derivative tensor conventions (N = number of eval points, d = dim):
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

def monomial_values(points: np.ndarray, monomials: np.ndarray) -> np.ndarray:
    """x_n^monomials[q] at every point, shape (Q, N), from the power table
    powers[j, e, n] = x_nj**e built by repeated multiplication (no pow)."""
    d = points.shape[1]
    powers = np.ones((d, monomials.max(initial=0) + 1, len(points)))
    for e in range(1, powers.shape[1]):
        np.multiply(powers[:, e - 1], points.T, out=powers[:, e])
    values = powers[0][monomials[:, 0]]
    for j in range(1, d):
        values *= powers[j][monomials[:, j]]
    return values


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
    (monomials, weights, index), cached per (dim, exponents, order).

    monomials (Q, dim) are the exponents that partials of order <= 3 reach
    (at every order), by total degree, then lexicographically. d^axes_m
    x^exponents[t] = weights[m, t] . x^monomials, whose one nonzero weight
    is the falling factorial a (a - 1) ... of the differentiated exponents,
    and none where an exponent drops below 0. index[r][i, l, ...] is the m
    of the ordered axes (i, l, ...) of order r. The tables are read-only.
    """
    reached = set()
    for alpha in set(exponents):
        support = [j for j, a in enumerate(alpha) if a]
        for r in range(4):
            for axes in combinations_with_replacement(support, r):
                exps, coef = _differentiate(alpha, axes)
                if coef:
                    reached.add(exps)
    monomials = sorted(reached, key=lambda a: (sum(a), a))
    position = {a: q for q, a in enumerate(monomials)}
    combos = [axes for r in range(order + 1)
              for axes in combinations_with_replacement(range(dim), r)]
    weights = np.zeros((len(combos), len(exponents), len(monomials)))
    for m, axes in enumerate(combos):
        for t, alpha in enumerate(exponents):
            exps, coef = _differentiate(alpha, axes)
            if coef:
                weights[m, t, position[exps]] = coef
    monomials = np.array(monomials, dtype=int).reshape(-1, dim)
    index = [np.array([combos.index(tuple(sorted(axes)))
                       for axes in product(range(dim), repeat=r)]
                      ).reshape((dim,) * r) for r in range(order + 1)]
    for table in (monomials, weights, *index):
        table.flags.writeable = False
    return monomials, weights, index


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class Polynomial:
    """Multivariate polynomial: exponents (T, d) and coefficients (T,)."""

    def __init__(self, dim: int, terms: Dict[Tuple[int, ...], float]):
        terms = {tuple(a): float(c) for a, c in terms.items()
                 if float(c) != 0.0}
        self.dim = dim
        self.exponents = np.array(list(terms), dtype=int).reshape(-1, dim)
        self.coeffs = np.array(list(terms.values()))

    @property
    def terms(self) -> Dict[Tuple[int, ...], float]:
        return dict(zip(map(tuple, self.exponents.tolist()),
                        self.coeffs.tolist()))

    @cached_property
    def _field(self) -> "PolyVectorField":
        return PolyVectorField([self])

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self._field.value(points)[..., 0]

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
        """[value, grad, hess, third][:order + 1] from one power table."""
        return self._jet(points, range(order + 1))

    def value(self, points) -> np.ndarray:
        return self._jet(points, (0,))[0]

    def grad(self, points) -> np.ndarray:
        return self._jet(points, (1,))[0]

    def hess(self, points) -> np.ndarray:
        return self._jet(points, (2,))[0]

    def third(self, points) -> np.ndarray:
        return self._jet(points, (3,))[0]


class PolyVectorField:
    """Vector field with polynomial components and exact derivatives."""

    def __init__(self, components: Sequence[Polynomial]):
        self.components = list(components)
        self.dim = len(self.components)
        self._weight_tables = (None, [])       # what _weights built last

    @classmethod
    def random(cls, dim: int, degree: int, rng: np.random.Generator,
               scale: float = 1.0) -> "PolyVectorField":
        return cls([Polynomial.random(dim, degree, rng, scale)
                    for _ in range(dim)])

    def _weights(self, order: int):
        """(monomials, tables): tables[r] (Q, d**r * J) holds the weights of
        the order-r partials, columns ordered (i, l, m, j), for r up to the
        highest order asked so far: those of every order up to 3 take
        gigabytes for thousands of terms in 20 variables."""
        if len(self._weight_tables[1]) > order:
            return self._weight_tables
        owner = np.repeat(np.arange(self.dim),
                          [len(c.coeffs) for c in self.components])
        coeffs = (owner == np.arange(self.dim)[:, None]) \
            * np.concatenate([c.coeffs for c in self.components])
        exponents = np.vstack([c.exponents for c in self.components])
        monomials, weights, index = partial_table(
            exponents.shape[1], tuple(map(tuple, exponents.tolist())), order)
        phi = coeffs @ weights                          # (M, J, Q)
        self._weight_tables = monomials, [
            phi[index[r].ravel()].transpose(2, 0, 1).reshape(
                len(monomials), index[r].size * self.dim)
            for r in range(order + 1)]
        return self._weight_tables

    def _jet(self, points, orders: Sequence[int]) -> list:
        """The partials of each order r in `orders`, shape
        (N,) + (d,) * r + (J,), from one power table."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        monomials, tables = self._weights(max(orders))
        values = monomial_values(points, monomials).T
        return [(values @ tables[r]).reshape(
                    (len(points),) + (points.shape[1],) * r + (self.dim,))
                for r in orders]

    def partials(self, points, order: int) -> list:
        """[value, jac, second, third][:order + 1] from one power table."""
        return self._jet(points, range(order + 1))

    def value(self, points) -> np.ndarray:
        return self._jet(points, (0,))[0]

    def jac(self, points) -> np.ndarray:
        """jac[n, i, j] = dF_j/dx_i, i.e. each jac[n] is (grad F^T)."""
        return self._jet(points, (1,))[0]

    def second(self, points) -> np.ndarray:
        """second[n, i, l, j] = d2 F_j / dx_i dx_l."""
        return self._jet(points, (2,))[0]

    def third(self, points) -> np.ndarray:
        """third[n, i, l, m, j] = d3 F_j / dx_i dx_l dx_m."""
        return self._jet(points, (3,))[0]

    def value_one(self, x: Sequence) -> list:
        return [c.eval_one(x) for c in self.components]

    def jac_one(self, x: Sequence) -> list:
        """Row-major nested list J[i][j] = dF_j/dx_i at one point, from the
        weights of the first partials."""
        monomials, tables = self._weights(1)
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

    # density derivatives: views of partials
    def grad(self, points) -> np.ndarray:
        return self.partials(points, 1)[1]

    def hess(self, points) -> np.ndarray:
        return self.partials(points, 2)[2]

    def third(self, points) -> np.ndarray:
        return self.partials(points, 3)[3]


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
