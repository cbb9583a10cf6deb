"""Polynomial probe fields with exact derivatives.

The identity checks need smooth densities, observation functions, and
vector fields whose *inner* derivatives are analytic, so that finite
differences appear only in the outermost layer of each check (nested FD
would drown the tolerances in roundoff). Low-degree polynomials with
seeded coefficients keep all derivatives bounded on the probe box.

Derivative tensor conventions (N = number of eval points, d = dim):
    scalar field:  grad (N, d), hess (N, d, d), third (N, d, d, d)
    vector field:  jac[n, i, j] = dF_j/dx_i, second[n, i, l, j],
                   third[n, i, l, m, j]
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np


class Polynomial:
    """Multivariate polynomial stored as {exponent tuple: coefficient}."""

    def __init__(self, dim: int, terms: Dict[Tuple[int, ...], float]):
        self.dim = dim
        self.terms = {tuple(a): float(c) for a, c in terms.items()
                      if float(c) != 0.0}

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(points.shape[0])
        for alpha, c in self.terms.items():
            out += c * np.prod(points ** np.array(alpha), axis=1)
        return out

    def eval_one(self, x: Sequence):
        """Evaluate at one point with plain Python arithmetic.

        Works with any numeric type supporting * and ** (e.g. mpmath.mpf),
        which the high-precision checks rely on.
        """
        total = 0
        for alpha, c in self.terms.items():
            term = c
            for xi, ai in zip(x, alpha):
                if ai:
                    term = term * xi ** ai
            total = total + term
        return total

    def diff(self, axis: int) -> "Polynomial":
        terms: Dict[Tuple[int, ...], float] = {}
        for alpha, c in self.terms.items():
            if alpha[axis] == 0:
                continue
            new = list(alpha)
            new[axis] -= 1
            key = tuple(new)
            terms[key] = terms.get(key, 0.0) + c * alpha[axis]
        return Polynomial(self.dim, terms)

    @classmethod
    def random(cls, dim: int, degree: int, rng: np.random.Generator,
               scale: float = 1.0) -> "Polynomial":
        from itertools import product
        terms = {}
        for alpha in product(range(degree + 1), repeat=dim):
            if sum(alpha) <= degree:
                terms[alpha] = scale * rng.standard_normal()
        return cls(dim, terms)


class PolyScalarField:
    """Scalar polynomial with cached derivative polynomials."""

    def __init__(self, poly: Polynomial):
        self.poly = poly
        self.dim = poly.dim
        self._cache: Dict[Tuple[int, ...], Polynomial] = {(): poly}

    def _d(self, axes: Tuple[int, ...]) -> Polynomial:
        if axes not in self._cache:
            self._cache[axes] = self._d(axes[:-1]).diff(axes[-1])
        return self._cache[axes]

    def value(self, points) -> np.ndarray:
        return self.poly(points)

    def grad(self, points) -> np.ndarray:
        points = np.atleast_2d(points)
        return np.stack([self._d((i,))(points) for i in range(self.dim)],
                        axis=1)

    def hess(self, points) -> np.ndarray:
        points = np.atleast_2d(points)
        d = self.dim
        out = np.empty((points.shape[0], d, d))
        for i in range(d):
            for j in range(i, d):
                out[:, i, j] = out[:, j, i] = self._d((i, j))(points)
        return out

    def third(self, points) -> np.ndarray:
        points = np.atleast_2d(points)
        d = self.dim
        out = np.empty((points.shape[0], d, d, d))
        for i in range(d):
            for j in range(d):
                for l in range(d):
                    out[:, i, j, l] = self._d(tuple(sorted((i, j, l))))(points)
        return out


class PolyVectorField:
    """Vector field with polynomial components and exact derivatives."""

    def __init__(self, components: Sequence[Polynomial]):
        self.components = list(components)
        self.dim = len(self.components)

    @classmethod
    def random(cls, dim: int, degree: int, rng: np.random.Generator,
               scale: float = 1.0) -> "PolyVectorField":
        return cls([Polynomial.random(dim, degree, rng, scale)
                    for _ in range(dim)])

    def _fields(self):
        if not hasattr(self, "_scalar_fields"):
            self._scalar_fields = [PolyScalarField(c) for c in self.components]
        return self._scalar_fields

    def value(self, points) -> np.ndarray:
        points = np.atleast_2d(points)
        return np.stack([c(points) for c in self.components], axis=1)

    def jac(self, points) -> np.ndarray:
        """jac[n, i, j] = dF_j/dx_i, i.e. each jac[n] is (grad F^T)."""
        points = np.atleast_2d(points)
        fields = self._fields()
        return np.stack([fields[j].grad(points) for j in range(self.dim)],
                        axis=2)

    def second(self, points) -> np.ndarray:
        """second[n, i, l, j] = d2 F_j / dx_i dx_l."""
        points = np.atleast_2d(points)
        fields = self._fields()
        return np.stack([fields[j].hess(points) for j in range(self.dim)],
                        axis=3)

    def third(self, points) -> np.ndarray:
        """third[n, i, l, m, j] = d3 F_j / dx_i dx_l dx_m."""
        points = np.atleast_2d(points)
        fields = self._fields()
        return np.stack([fields[j].third(points) for j in range(self.dim)],
                        axis=4)

    def value_one(self, x: Sequence) -> list:
        return [c.eval_one(x) for c in self.components]

    def jac_one(self, x: Sequence) -> list:
        """Row-major nested list J[i][j] = dF_j/dx_i at one point."""
        fields = self._fields()
        return [[fields[j]._d((i,)).eval_one(x) for j in range(self.dim)]
                for i in range(self.dim)]


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
        terms: Dict[Tuple[int, ...], float] = {}

        def add(alpha, c):
            terms[alpha] = terms.get(alpha, 0.0) + c

        add((0,) * d, const - 0.5 * mean @ prec @ mean)
        for i in range(d):
            e_i = tuple(1 if k == i else 0 for k in range(d))
            add(e_i, float(prec[i] @ mean))
            for j in range(d):
                e_ij = tuple((1 if k == i else 0) + (1 if k == j else 0)
                             for k in range(d))
                add(e_ij, -0.5 * prec[i, j])
        return cls(Polynomial(d, terms))

    @classmethod
    def random_gaussian(cls, dim: int,
                        rng: np.random.Generator) -> "ExpPolyDensity":
        mean = 0.3 * rng.standard_normal(dim)
        a = 0.3 * rng.standard_normal((dim, dim))
        cov = np.eye(dim) + a @ a.T
        return cls.gaussian(mean, cov)

    def value(self, points) -> np.ndarray:
        return np.exp(self.q.value(points))

    def log_one(self, x: Sequence):
        return self.q.poly.eval_one(x)

    # log-density derivatives (polynomial evaluations)
    def grad_log(self, points) -> np.ndarray:
        return self.q.grad(points)

    def hess_log(self, points) -> np.ndarray:
        return self.q.hess(points)

    def third_log(self, points) -> np.ndarray:
        return self.q.third(points)

    # density derivatives via the product rule on p = exp(q)
    def grad(self, points) -> np.ndarray:
        return self.value(points)[:, None] * self.q.grad(points)

    def hess(self, points) -> np.ndarray:
        gq = self.q.grad(points)
        hq = self.q.hess(points)
        p = self.value(points)
        return p[:, None, None] * (hq + np.einsum("ni,nj->nij", gq, gq))

    def third(self, points) -> np.ndarray:
        gq = self.q.grad(points)
        hq = self.q.hess(points)
        tq = self.q.third(points)
        p = self.value(points)
        sym = (np.einsum("nij,nk->nijk", hq, gq)
               + np.einsum("nik,nj->nijk", hq, gq)
               + np.einsum("njk,ni->nijk", hq, gq))
        outer3 = np.einsum("ni,nj,nk->nijk", gq, gq, gq)
        return p[:, None, None, None] * (tq + sym + outer3)


# ---------------------------------------------------------------------------
# finite differences (outermost layer only)
# ---------------------------------------------------------------------------

def fd_grad(fn, x: np.ndarray, step: float) -> np.ndarray:
    """Central-difference gradient of a scalar function of one point."""
    x = np.asarray(x, dtype=float)
    out = np.empty(len(x))
    for i in range(len(x)):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        out[i] = (fn(hi) - fn(lo)) / (2.0 * step)
    return out


def converges_quadratically(gap: float, gap_half: float,
                            factor: float = 3.0,
                            floor: float = 1e-12) -> bool:
    """True when halving fd_step cut the gap by >= factor, or both gaps
    already sit at the roundoff floor (FD-free identities)."""
    if abs(gap) <= floor and abs(gap_half) <= floor:
        return True
    return abs(gap) >= factor * abs(gap_half)
