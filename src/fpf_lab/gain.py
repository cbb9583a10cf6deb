"""Gain-function solvers for the feedback particle filter.

Each solver produces, at every particle, the gain K, its Jacobian, the
drift correction u, and the Jacobian of u:

    u = -K (h + h_hat) / 2 + Omega,   Omega_j = (1/2) sum_l K_l dK_j/dx_l

Jacobian convention throughout: jac[n, i, j] = d(field_j)/dx_i at particle n,
i.e. each jac[n] is the matrix usually written as (grad v^T).

A batch of S ensembles (states (S, N, d), one per filter seed) gives every
field a leading S axis; every solver solves all seeds at once, each seed
with the bits of its ensemble alone.  A field that takes one value at
every particle (K and its zero Jacobian for the particle-constant gains,
and u's Jacobian for them when h is affine) has a particle axis of length
1 and reaches the particles by broadcasting, so check_admissible computes
its determinant once per seed.

Methods:
    exact_gaussian  closed form K = Cov(X) H for affine observations
    constant        ensemble average K_j = (1/N) sum (h - h_hat)(X_j - mean_j)
    galerkin        weak-form solve in a monomial basis of total degree <= D
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import List, Optional, Tuple

import numpy as np

from .fields import monomial_values, partial_table
from .model import (FilterAbortError, ModelValidationError, PosteriorStats,
                    SdeModel)

__all__ = [
    "GAIN_METHODS", "GainField", "SingularGainError", "compute_gain",
    "exact_gain", "constant_gain", "galerkin_gain", "monomial_exponents",
    "check_admissible",
]


class SingularGainError(FilterAbortError):
    """The Galerkin system of the ensemble at `index` of a batch, () for a
    single ensemble, is singular."""

    index = ()


@dataclass
class GainField:
    """Gain and drift-correction fields evaluated at the ensemble; a
    particle-constant field has 1 in place of N.  u_jac's shape covers
    k_jac's: a K that varies over the particles makes u vary too."""

    k: np.ndarray                       # ([S,] N, d)
    k_jac: np.ndarray                   # ([S,] N, d, d)
    u: np.ndarray                       # ([S,] N, d)
    u_jac: np.ndarray                   # ([S,] N, d, d)
    coeffs: Optional[np.ndarray] = None          # Galerkin coefficients
    exponents: Optional[np.ndarray] = None       # (n_basis, d) monomial powers

    def k_at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the gain field at arbitrary points (M, d): shape (M, d),
        or (S, M, d) for a batch, each seed's gain at every point."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.coeffs is None:
            return np.broadcast_to(self.k[..., :1, :],
                                   self.k.shape[:-2] + points.shape).copy()
        d = points.shape[1]
        _, rows, weights, _ = _basis_table(d, int(self.exponents.max()))
        values = monomial_values(points, rows)
        # ([S,] d, Q) weights of each seed's gain, then ([S,] d, M) values
        k = (self.coeffs[..., None, None, :] @ weights[1:1 + d])[..., 0, :]
        return (k @ values).swapaxes(-1, -2).copy()


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
        level = [tuple(axes.count(j) for j in range(dim)) for axes in
                 combinations_with_replacement(range(dim), total)]
        alphas.extend(sorted(level))
    return np.array(alphas, dtype=int)


def galerkin_table_size(dim: int, degree: int) -> int:
    """Entries of _basis_table(dim, degree)'s weights, which config caps."""
    n_basis = math.comb(dim + degree, dim) - 1
    return math.comb(dim + 3, 3) * n_basis * (n_basis + 1)


@lru_cache(maxsize=None)
def _basis_table(dim: int, degree: int):
    """(monomials, rows, weights, index) of the basis psi_k = x^exps[k],
    exps = monomial_exponents(dim, degree), with partial_table's monomials,
    rows and index: d^axes_m psi_k = weights[m, k] . x^monomials, the
    dense (C(dim + 3, 3), K, Q) table that every Galerkin product reads,
    filled from partial_table's map. The monomials are the constant, then
    exps."""
    exps = monomial_exponents(dim, degree)
    monomials, rows, (m, k, q, w), index = partial_table(dim, exps)
    weights = np.zeros((math.comb(dim + 3, 3), len(exps), len(monomials)))
    weights[m, k, q] = w
    weights.flags.writeable = False
    return monomials, rows, weights, index


def _constant_field(k0: np.ndarray, h_vals: np.ndarray, h_hat,
                    h_grad: np.ndarray) -> GainField:
    """The field of a gain k0 (..., d) that is constant over the
    particles: k and k_jac have a particle axis of length 1, and so has
    u_jac when h_grad has (affine h)."""
    k = k0[..., None, :]
    # with k_jac = 0, Omega and every Jacobian term of u but the h_grad
    # one vanish
    u = -0.5 * k * (h_vals + np.asarray(h_hat)[..., None])[..., None]
    u_jac = -0.5 * (h_grad[..., :, None] * k[..., None, :])
    return GainField(k=k, k_jac=np.zeros(k.shape + k.shape[-1:]), u=u,
                     u_jac=u_jac)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def exact_gain(stats: PosteriorStats, obs_vector: np.ndarray,
               h_grad: np.ndarray) -> GainField:
    """Closed-form gain K = Cov(X) H for an affine observation h = H^T x + c."""
    k0 = stats.cov @ np.asarray(obs_vector, dtype=float).reshape(-1)
    return _constant_field(k0, stats.h_vals, stats.h_hat, h_grad)


def constant_gain(states: np.ndarray, stats: PosteriorStats,
                  h_grad: np.ndarray) -> GainField:
    """Ensemble-constant gain: cross-covariance of h with the state (1/N)."""
    centered = states - stats.mean[..., None, :]
    dh = stats.h_vals - np.asarray(stats.h_hat)[..., None]
    k0 = (dh[..., None, :] @ centered)[..., 0, :] / states.shape[-2]
    return _constant_field(k0, stats.h_vals, stats.h_hat, h_grad)


def galerkin_gain(states: np.ndarray, stats: PosteriorStats,
                  h_grad: np.ndarray, degree: int = 3,
                  ridge: Optional[float] = None) -> GainField:
    """Weak-form gain in the monomial basis of total degree <= degree.

    Solves (A + ridge I) c = b with
        A_kl = (1/N) sum_n grad psi_k . grad psi_l
        b_k  = (1/N) sum_n (h - h_hat) psi_k
    and returns K = sum_k c_k grad psi_k together with its Jacobian; the
    third partials of sum_k c_k psi_k enter the Jacobian of u.

    A batch (S, N, d) stacks each seed's products and solve.  ridge
    defaults to 1e-6 * tr(A) / dim(A), per seed; pass 0.0 to disable.  A
    singular system raises SingularGainError for the first seed at fault.
    """
    n, d = states.shape[-2:]
    monomials, rows, weights, index = _basis_table(d, degree)
    mono = monomial_values(states, rows)      # psi_k = mono[..., 1 + k, :]
    nb = len(monomials) - 1

    # the ([S,] K, d N) gradient matrices, so each A is one BLAS product
    grad = (weights[1:1 + d].transpose(1, 0, 2).reshape(nb * d, -1)
            @ mono).reshape(mono.shape[:-2] + (nb, d * n))
    a_mat = grad @ grad.swapaxes(-1, -2) / n
    h_hat = np.asarray(stats.h_hat)[..., None]
    b_vec = mono[..., 1:, :] @ (stats.h_vals - h_hat)[..., None] / n
    if ridge is None:
        ridge = 1e-6 * np.trace(a_mat, axis1=-2, axis2=-1) / nb
    a_mat = a_mat + np.asarray(ridge)[..., None, None] * np.eye(nb)
    try:
        coeffs = np.linalg.solve(a_mat, b_vec)[..., 0]
    except np.linalg.LinAlgError:
        exc = SingularGainError("the Galerkin system is singular")
        if a_mat.ndim == 3:
            # solve's LU meets an exact zero pivot where slogdet's sign is 0
            exc.index = int(np.argmax(np.linalg.slogdet(a_mat).sign == 0))
        raise exc from None

    # every partial of phi = sum_k c_k psi_k, axes (partial, [S,] N): K =
    # grad phi, k_jac is its Hessian, and the sum_l K_l d^2 K_j/dx_i dx_l
    # term of u_jac is the third partial of phi contracted with K
    phi = ((coeffs[..., None, None, :] @ weights)[..., 0, :]
           @ mono).swapaxes(0, -2)
    k, hess = phi[index[1]], phi[index[2]]
    hs = stats.h_vals + h_hat
    # the gradient of h, its axis first: (d, [S,] N), (d, [1,] 1) if affine
    h_grad = h_grad.reshape((1,) * (states.ndim - h_grad.ndim) + h_grad.shape)
    h_grad = h_grad.transpose(-1, *range(states.ndim - 1))
    u = -0.5 * k * hs + 0.5 * sum(k[l] * hess[l] for l in range(d))
    u_jac = (-0.5 * hs * hess
             - 0.5 * h_grad[:, None] * k
             + 0.5 * sum(hess[:, l, None] * hess[l] for l in range(d))
             + 0.5 * sum(k[l] * phi[index[3][:, l]] for l in range(d)))
    # the partial's axes last again (np.moveaxis costs more per call)
    k, u = (f.transpose(*range(1, f.ndim), 0).copy() for f in (k, u))
    k_jac, u_jac = (f.transpose(*range(2, f.ndim), 0, 1).copy()
                    for f in (hess, u_jac))
    return GainField(k=k, k_jac=k_jac, u=u, u_jac=u_jac, coeffs=coeffs,
                     exponents=monomials[1:])


# 'exact' is an alias of 'exact_gaussian'
GAIN_METHODS = ("exact_gaussian", "exact", "constant", "galerkin")


def compute_gain(model: SdeModel, states: np.ndarray, stats: PosteriorStats,
                 method: str, degree: int = 3,
                 ridge: Optional[float] = None) -> GainField:
    """Dispatch to a gain solver by one of the names in GAIN_METHODS; each
    solver takes a batch (S, N, d) in one call, with a leading S axis."""
    if method not in GAIN_METHODS:
        raise ValueError(f"unknown gain method {method!r}")
    h_grad = model.obs_grad_at(states)
    if method == "constant":
        return constant_gain(states, stats, h_grad)
    if method == "galerkin":
        return galerkin_gain(states, stats, h_grad, degree, ridge)
    if model.obs_vector is None:
        raise ModelValidationError("exact solver requires affine h")
    return exact_gain(stats, model.obs_vector, h_grad)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def check_admissible(field: GainField, dz: float, dt: float,
                     eps: float = 1e-8):
    """Flag particles whose update map is locally non-invertible.

    The one-step displacement is v = K dz + u dt; the particle flow stays
    an orientation-preserving diffeomorphism only while det(I + grad v^T)
    stays positive. Returns (flags, dets), each shaped ([S,] N) like the
    particles, or ([S,] 1) when both Jacobians are particle-constant: then
    one determinant stands for every particle of its seed.  A determinant
    that is not finite is flagged too.
    """
    # I + grad v^T in one (N, d, d) array beyond the inputs; addition
    # commutes, so this is (k_jac dz + u_jac dt) + I bit for bit
    a = field.u_jac * dt
    a += field.k_jac * dz
    a += _identity(a.shape[-1])
    dets = _det(a)
    flags = ~((dets > eps) & np.isfinite(dets))
    return flags, dets


@lru_cache(maxsize=None)
def _identity(d: int) -> np.ndarray:
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def _det(a: np.ndarray) -> np.ndarray:
    """Determinants of a stack of (d, d) matrices: the closed form for
    d <= 2, LU beyond."""
    d = a.shape[-1]
    if d == 1:
        return a[..., 0, 0]
    if d == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    return np.linalg.det(a)

