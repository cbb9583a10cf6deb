"""Gain-function solvers for the feedback particle filter.

Each solver produces, at every particle, the gain K, its Jacobian, the
drift correction u, and the Jacobian of u:

    u = -K (h + h_hat) / 2 + Omega,   Omega_j = (1/2) sum_l K_l dK_j/dx_l

Jacobian convention throughout: jac[n, i, j] = d(field_j)/dx_i at particle n,
i.e. each jac[n] is the matrix usually written as (grad v^T).

Methods:
    exact_gaussian  closed form K = Cov(X) H for affine observations
    constant        ensemble average K_j = (1/N) sum (h - h_hat)(X_j - mean_j)
    galerkin        weak-form solve in a monomial basis of total degree <= D
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iter_product
from typing import List, Optional, Tuple

import numpy as np

from .grid import trapezoid
from .model import ModelValidationError, PosteriorStats, SdeModel

__all__ = [
    "GainField", "compute_gain", "exact_gain", "constant_gain",
    "galerkin_gain", "monomial_exponents", "check_admissible",
    "gain_residual_on_grid",
]


@dataclass
class GainField:
    """Gain and drift-correction fields evaluated at the ensemble."""

    k: np.ndarray                       # (N, d)
    k_jac: np.ndarray                   # (N, d, d)
    u: np.ndarray                       # (N, d)
    u_jac: np.ndarray                   # (N, d, d)
    method: str
    coeffs: Optional[np.ndarray] = None          # Galerkin coefficients
    exponents: Optional[np.ndarray] = None       # (n_basis, d) monomial powers

    def k_at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the gain field at arbitrary points, shape (M, d)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.coeffs is None:
            return np.broadcast_to(self.k[0], points.shape).copy()
        out = np.zeros_like(points)
        d = points.shape[1]
        for c, alpha in zip(self.coeffs, self.exponents):
            for j in range(d):
                out[:, j] += c * _monomial_partial(points, alpha, (j,))
        return out


# ---------------------------------------------------------------------------
# monomial basis
# ---------------------------------------------------------------------------

def monomial_exponents(dim: int, degree: int) -> np.ndarray:
    """Exponent multi-indices with 1 <= total degree <= degree, shape (K, dim).

    Ordered by total degree, then lexicographically, so coefficient vectors
    are reproducible. The constant monomial is excluded (only gradients of
    the basis enter the weak form).
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    alphas: List[Tuple[int, ...]] = []
    for total in range(1, degree + 1):
        level = [a for a in _iter_product(range(total + 1), repeat=dim)
                 if sum(a) == total]
        alphas.extend(sorted(level))
    return np.array(alphas, dtype=int)


def _monomial_partial(points: np.ndarray, alpha: np.ndarray,
                      axes: Tuple[int, ...]) -> np.ndarray:
    """Partial derivative of x^alpha along the given axes, at all points."""
    a = np.array(alpha, dtype=int)
    coef = 1.0
    for ax in axes:
        if a[ax] == 0:
            return np.zeros(points.shape[0])
        coef *= a[ax]
        a[ax] -= 1
    return coef * np.prod(points ** a, axis=1)


# ---------------------------------------------------------------------------
# shared drift-correction assembly
# ---------------------------------------------------------------------------

def _assemble_u(k: np.ndarray, k_jac: np.ndarray, k_second: np.ndarray,
                h_vals: np.ndarray, h_hat: float, h_grad: np.ndarray):
    """u and its Jacobian from the gain field and observation function.

    k_second[n, i, l, j] = d^2 K_j / dx_i dx_l at particle n.
    """
    hs = (h_vals + h_hat)[:, None]
    omega = 0.5 * np.einsum("nl,nlj->nj", k, k_jac)
    u = -0.5 * k * hs + omega

    u_jac = (-0.5 * hs[:, :, None] * k_jac
             - 0.5 * np.einsum("ni,nj->nij", h_grad, k)
             + 0.5 * np.einsum("nil,nlj->nij", k_jac, k_jac)
             + 0.5 * np.einsum("nl,nilj->nij", k, k_second))
    return u, u_jac


def _constant_field(k0: np.ndarray, h_vals: np.ndarray, h_hat: float,
                    h_grad: np.ndarray, method: str) -> GainField:
    n, d = h_grad.shape
    k = np.broadcast_to(k0, (n, d)).copy()
    # _assemble_u with k_jac = 0 and k_second = 0: Omega and every
    # Jacobian term but the h_grad one vanish
    u = -0.5 * k * (h_vals + h_hat)[:, None]
    u_jac = -0.5 * np.einsum("ni,nj->nij", h_grad, k)
    return GainField(k=k, k_jac=np.zeros((n, d, d)), u=u, u_jac=u_jac,
                     method=method)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def exact_gain(stats: PosteriorStats, obs_vector: np.ndarray,
               h_grad: np.ndarray) -> GainField:
    """Closed-form gain K = Cov(X) H for an affine observation h = H^T x + c."""
    k0 = stats.cov @ np.asarray(obs_vector, dtype=float).reshape(-1)
    return _constant_field(k0, stats.h_vals, stats.h_hat, h_grad, "exact")


def constant_gain(states: np.ndarray, stats: PosteriorStats,
                  h_grad: np.ndarray) -> GainField:
    """Ensemble-constant gain: cross-covariance of h with the state (1/N)."""
    centered = states - states.mean(axis=0)
    dh = stats.h_vals - stats.h_hat
    k0 = dh @ centered / states.shape[0]
    return _constant_field(k0, stats.h_vals, stats.h_hat, h_grad, "constant")


def galerkin_gain(states: np.ndarray, stats: PosteriorStats,
                  h_grad: np.ndarray, degree: int = 3,
                  ridge: Optional[float] = None) -> GainField:
    """Weak-form gain in the monomial basis of total degree <= degree.

    Solves (A + ridge I) c = b with
        A_kl = (1/N) sum_n grad psi_k . grad psi_l
        b_k  = (1/N) sum_n (h - h_hat) psi_k
    and returns K = sum_k c_k grad psi_k together with its first and second
    derivative fields (the latter feed the Jacobian of u).

    ridge defaults to 1e-6 * tr(A) / dim(A); pass 0.0 to disable.
    """
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
    if ridge is None:
        ridge = 1e-6 * np.trace(a_mat) / nb
    coeffs = np.linalg.solve(a_mat + ridge * np.eye(nb), b_vec)

    k = np.einsum("k,nkj->nj", coeffs, grad_psi)
    k_jac = np.zeros((n, d, d))
    k_third = np.zeros((n, d, d, d))
    for k_idx, alpha in enumerate(exps):
        c = coeffs[k_idx]
        if c == 0.0:
            continue
        for i in range(d):
            for j in range(i, d):
                second = c * _monomial_partial(states, alpha, (i, j))
                k_jac[:, i, j] += second
                if j != i:
                    k_jac[:, j, i] += second
        for i in range(d):
            for l in range(i, d):
                for j in range(l, d):
                    third = c * _monomial_partial(states, alpha, (i, l, j))
                    for perm in {(i, l, j), (i, j, l), (l, i, j),
                                 (l, j, i), (j, i, l), (j, l, i)}:
                        k_third[:, perm[0], perm[1], perm[2]] += third
    # k is a gradient field, so k_second[n,i,l,j] = d^3 phi and is symmetric
    u, u_jac = _assemble_u(k, k_jac, k_third, stats.h_vals, stats.h_hat,
                           h_grad)
    return GainField(k=k, k_jac=k_jac, u=u, u_jac=u_jac, method="galerkin",
                     coeffs=coeffs, exponents=exps)


def compute_gain(model: SdeModel, states: np.ndarray, stats: PosteriorStats,
                 method: str, degree: int = 3,
                 ridge: Optional[float] = None) -> GainField:
    """Dispatch to a gain solver by name.

    Accepted names: 'exact_gaussian' (alias 'exact'), 'constant',
    'galerkin'.
    """
    h_grad = model.obs_grad_at(states)
    if method in ("exact_gaussian", "exact"):
        if model.obs_vector is None:
            raise ModelValidationError("exact solver requires affine h")
        return exact_gain(stats, model.obs_vector, h_grad)
    if method == "constant":
        return constant_gain(states, stats, h_grad)
    if method == "galerkin":
        return galerkin_gain(states, stats, h_grad, degree=degree, ridge=ridge)
    raise ValueError(f"unknown gain method {method!r}")


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def check_admissible(field: GainField, dz: float, dt: float,
                     eps: float = 1e-8):
    """Flag particles whose update map is locally non-invertible.

    The one-step displacement is v = K dz + u dt; the particle flow stays
    an orientation-preserving diffeomorphism only while det(I + grad v^T)
    stays positive. Returns (flags, dets).
    """
    v_jac = field.k_jac * dz + field.u_jac * dt
    dets = np.linalg.det(np.eye(v_jac.shape[1]) + v_jac)
    return dets <= eps, dets


def gain_residual_on_grid(x: np.ndarray, p: np.ndarray, h_vals: np.ndarray,
                          k_vals: np.ndarray) -> float:
    """Weak-form defect of a 1-D gain on a grid.

    Measures max_i |d/dx (p K) + (h - h_hat) p| over interior nodes with
    central differences; zero (to discretization error) iff K solves the
    weighted Poisson equation for h under p.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    h_hat = trapezoid(h_vals * p, x) / trapezoid(p, x)
    pk = p * k_vals
    dx = x[1] - x[0]
    flux_div = (pk[2:] - pk[:-2]) / (2.0 * dx)
    residual = flux_div + (h_vals[1:-1] - h_hat) * p[1:-1]
    return float(np.max(np.abs(residual)))
