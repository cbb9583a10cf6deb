"""Gain-function solvers for the feedback particle filter.

Each solver produces, at every particle, the gain K, its Jacobian, the
drift correction u, and the Jacobian of u:

    u = -K (h + h_hat) / 2 + Omega,   Omega_j = (1/2) sum_l K_l dK_j/dx_l

Jacobian convention throughout: jac[n, i, j] = d(field_j)/dx_i at particle n,
i.e. each jac[n] is the matrix usually written as (grad v^T).

A batch of S ensembles (states (S, N, d), one per filter seed) gives every
field a leading S axis.  The closed-form and constant gains solve all seeds
at once; the Galerkin gain solves one seed at a time.  A field that takes
one value at every particle (the particle-constant gains, and u's Jacobian
for them when h is affine) is a read-only view that repeats it along the
particle axis, never a materialised (N, d, d) array, and check_admissible
computes its determinant once per seed.

Methods:
    exact_gaussian  closed form K = Cov(X) H for affine observations
    constant        ensemble average K_j = (1/N) sum (h - h_hat)(X_j - mean_j)
    galerkin        weak-form solve in a monomial basis of total degree <= D
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import List, Optional, Tuple

import numpy as np

from .fields import monomial_values, partial_table
from .grid import trapezoid
from .model import (FilterAbortError, ModelValidationError, PosteriorStats,
                    SdeModel, repeat_view)

__all__ = [
    "GAIN_METHODS", "GainField", "SingularGainError", "compute_gain",
    "exact_gain", "constant_gain", "galerkin_gain", "monomial_exponents",
    "check_admissible", "gain_residual_on_grid",
]


class SingularGainError(FilterAbortError):
    """The Galerkin system of the ensemble at `index` of a batch, () for a
    single ensemble, is singular."""

    index = ()


@dataclass
class GainField:
    """Gain and drift-correction fields evaluated at the ensemble."""

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
        monomials, weights, _ = _basis_table(d, int(self.exponents.max()))
        values = monomial_values(points, monomials)
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


@lru_cache(maxsize=None)
def _basis_table(dim: int, degree: int):
    """partial_table of the basis psi_k = x^exps[k], exps =
    monomial_exponents(dim, degree): its monomials are the constant, then
    exps."""
    return partial_table(dim, tuple(map(tuple, monomial_exponents(
        dim, degree).tolist())))


def _particle_constant(a: np.ndarray, axis: int) -> bool:
    """Whether a repeats one value along its particle axis (a stride-0
    view, as model.repeat_view makes)."""
    return a.strides[axis] == 0


def _constant_field(k0: np.ndarray, h_vals: np.ndarray, h_hat,
                    h_grad: np.ndarray) -> GainField:
    """The field of a gain k0 (..., d) that is constant over the particles."""
    n = h_vals.shape[-1]
    k = k0[..., None, :]
    # with k_jac = 0, Omega and every Jacobian term of u but the h_grad
    # one vanish
    u = -0.5 * k * (h_vals + np.asarray(h_hat)[..., None])[..., None]
    if _particle_constant(h_grad, -2):       # affine h: one gradient
        u_jac = repeat_view(
            -0.5 * (h_grad[..., :1, :, None] * k[..., None, :]), n, -3)
    else:
        u_jac = -0.5 * (h_grad[..., :, None] * k[..., None, :])
    k_jac = repeat_view(np.zeros(k.shape + k.shape[-1:]), n, -3)
    return GainField(k=repeat_view(k, n, -2), k_jac=k_jac, u=u, u_jac=u_jac)


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

    ridge defaults to 1e-6 * tr(A) / dim(A); pass 0.0 to disable.  A
    singular system raises SingularGainError.
    """
    n, d = states.shape
    monomials, weights, index = _basis_table(d, degree)
    mono = monomial_values(states, monomials)     # psi_k = mono[1 + k]
    nb = len(mono) - 1

    # the (K, d N) gradient matrix, so A is one BLAS product
    grad = (weights[1:1 + d].transpose(1, 0, 2).reshape(nb * d, -1)
            @ mono).reshape(nb, d * n)
    a_mat = grad @ grad.T / n
    b_vec = mono[1:] @ (stats.h_vals - stats.h_hat) / n
    if ridge is None:
        ridge = 1e-6 * np.trace(a_mat) / nb
    try:
        coeffs = np.linalg.solve(a_mat + ridge * np.eye(nb), b_vec)
    except np.linalg.LinAlgError:
        raise SingularGainError("the Galerkin system is singular") from None

    # every partial of phi = sum_k c_k psi_k, particles last: K = grad phi,
    # k_jac is the Hessian of phi, and the sum_l K_l d^2 K_j / dx_i dx_l
    # term of u_jac is the third partial of phi contracted with K
    phi = (coeffs @ weights) @ mono
    k, hess = phi[index[1]], phi[index[2]]
    hs = stats.h_vals + stats.h_hat
    u = -0.5 * k * hs + 0.5 * sum(k[l] * hess[l] for l in range(d))
    u_jac = (-0.5 * hs * hess
             - 0.5 * h_grad.T[:, None] * k
             + 0.5 * sum(hess[:, l, None] * hess[l] for l in range(d))
             + 0.5 * sum(k[l] * phi[index[3][:, l]] for l in range(d)))
    k, k_jac, u, u_jac = (np.moveaxis(f, -1, 0).copy()
                          for f in (k, hess, u, u_jac))
    return GainField(k=k, k_jac=k_jac, u=u, u_jac=u_jac, coeffs=coeffs,
                     exponents=monomials[1:])


# 'exact' is an alias of 'exact_gaussian'
GAIN_METHODS = ("exact_gaussian", "exact", "constant", "galerkin")


def compute_gain(model: SdeModel, states: np.ndarray, stats: PosteriorStats,
                 method: str, degree: int = 3,
                 ridge: Optional[float] = None) -> GainField:
    """Dispatch to a gain solver by one of the names in GAIN_METHODS; a
    batch of ensembles (S, N, d) gives a field with a leading S axis."""
    if method not in GAIN_METHODS:
        raise ValueError(f"unknown gain method {method!r}")
    h_grad = model.obs_grad_at(states)
    if method == "constant":
        return constant_gain(states, stats, h_grad)
    if method == "galerkin":
        if states.ndim == 2:
            return galerkin_gain(states, stats, h_grad, degree=degree,
                                 ridge=ridge)
        fields = []
        for s in range(len(states)):
            try:
                fields.append(galerkin_gain(states[s], stats.of_seed(s),
                                            h_grad[s], degree=degree,
                                            ridge=ridge))
            except SingularGainError as exc:
                exc.index = s
                raise
        return GainField(
            *(np.stack([getattr(f, name) for f in fields])
              for name in ("k", "k_jac", "u", "u_jac")),
            coeffs=np.stack([f.coeffs for f in fields]),
            exponents=fields[0].exponents)
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
    stays positive. Returns (flags, dets), each shaped like the particles
    ([S,] N); a determinant that is not finite is flagged too.  When both
    Jacobians repeat one matrix along the particle axis, the determinant
    is computed once per seed and broadcast to the particles.
    """
    k_jac, u_jac = field.k_jac, field.u_jac
    n = k_jac.shape[-3]
    compact = _particle_constant(k_jac, -3) and _particle_constant(u_jac, -3)
    if compact:
        k_jac, u_jac = k_jac[..., :1, :, :], u_jac[..., :1, :, :]
    v_jac = k_jac * dz + u_jac * dt
    dets = _det(_identity(v_jac.shape[-1]) + v_jac)
    flags = ~((dets > eps) & np.isfinite(dets))
    if compact:
        return repeat_view(flags, n, -1), repeat_view(dets, n, -1)
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
