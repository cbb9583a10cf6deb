"""Numerical checks of the matrix-calculus machinery behind the filter.

Every check follows the same discipline: inner derivatives of the probe
fields are analytic (see fields.py) and finite differences appear only in
the outermost layer, so each residual is either an exact cancellation
(roundoff-floor small) or O(fd_step^2) truncation that must shrink by ~4x
when the step is halved.

Notation used throughout the docstrings: p is a smooth positive density,
L = log p, h the scalar observation function, K and u vector fields,
V = I + grad v^T the displacement Jacobian, all evaluated pointwise.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

import mpmath
import numpy as np

from .divergence import TV_DELTA
from .fields import ExpPolyDensity, PolyScalarField, PolyVectorField, fd_grad
from .grid import trapezoid

__all__ = [
    "piola_residual", "el_bracket_residual", "el_generator_invariance",
    "dz_order_residual", "dt_order_residual", "quadratic_term_identity",
    "double_divergence_expansion_check", "poincare_ratio_sweep",
    "weighted_poisson_derivative_check", "bounded_slope_grad_log",
    "QUADRATIC_IDENTITY_IDS",
]


# ---------------------------------------------------------------------------
# Piola identity: the cofactor columns of V = I + grad v^T are divergence-free
# ---------------------------------------------------------------------------

def _minor(mat: np.ndarray, i: int, j: int) -> float:
    sub = np.delete(np.delete(mat, i, axis=0), j, axis=1)
    return float(np.linalg.det(sub)) if sub.size else 1.0


def piola_residual(v: PolyVectorField, x: np.ndarray,
                   fd_step: float = 1e-4) -> np.ndarray:
    """Divergence of the cofactor columns of V = I + grad v^T at x.

    residual_j = sum_i (-1)^(i+j) d/dx_i [minor_ij(V)], which the
    change-of-variables algebra requires to vanish identically. The minors
    are built from the analytic Jacobian of v; only the outer d/dx_i is a
    central difference.
    """
    x = np.asarray(x, dtype=float)
    d = v.dim
    v0 = np.eye(d) + v.jac(x)[0]
    if abs(np.linalg.det(v0)) < 1e-12:
        raise ValueError("I + grad v^T is singular at the probe point")

    res = np.zeros(d)
    step = fd_step * np.eye(d)
    for i in range(d):
        v_hi = np.eye(d) + v.jac(x + step[i])[0]
        v_lo = np.eye(d) + v.jac(x - step[i])[0]
        for j in range(d):
            sign = -1.0 if (i + j) % 2 else 1.0
            res[j] += sign * (_minor(v_hi, i, j) - _minor(v_lo, i, j)) \
                / (2.0 * fd_step)
    return res


# ---------------------------------------------------------------------------
# Euler-Lagrange first variation for the one-step update map
# ---------------------------------------------------------------------------

def _obs_likelihood(y: float, h_val, dt: float):
    """Density of the sampled observation y given state s: N(h(s), 1/dt)."""
    return math.sqrt(dt / (2.0 * math.pi)) \
        * math.exp(-0.5 * dt * (y - h_val) ** 2)


def el_bracket_residual(p: ExpPolyDensity, h: PolyScalarField,
                        v: PolyVectorField, x: np.ndarray, y: float,
                        dt: float) -> np.ndarray:
    """First-variation bracket of the one-step transport problem.

    With g(x) = p(x + v(x)) rho(y | x + v(x)), the stationarity condition
    reads (per coordinate i)

        [d_i g] p + g tr(V^{-1} d_i V) p - g d_i p = 0,

    i.e. g p grad log xi = 0. For the optimizing displacement
    v = K dz + u dt the bracket is a second-order remainder,
    O(dz^2 + dt^2). The outer gradient of g is a central difference with
    step 1e-4.
    """
    x = np.asarray(x, dtype=float)

    def g_at(pt: np.ndarray) -> float:
        shifted = pt + v.value(pt)[0]
        return float(p.value(shifted)[0]) \
            * _obs_likelihood(y, float(h.value(shifted)[0]), dt)

    d = v.dim
    g0 = g_at(x)
    p0, grad_p0 = (a[0] for a in p.partials(x, 1))
    _, jac, sec = (a[0] for a in v.partials(x, 2))  # sec[i] = d_i grad v^T
    v_inv = np.linalg.inv(np.eye(d) + jac)
    logdet_grad = np.einsum("ab,iba->i", v_inv, sec)

    t1 = fd_grad(g_at, x, 1e-4) * p0
    t2 = g0 * logdet_grad * p0
    t3 = -g0 * grad_p0
    return t1 + t2 + t3


def _mp_det(rows):
    """Determinant by cofactor expansion along the first row, division-free."""
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j] * _mp_det([r[:j] + r[j + 1:]
                                                 for r in rows[1:]])
               for j in range(len(rows)))


def _mp_cofactor_transpose(v_rows):
    """|V| V^{-T} as the cofactor matrix, division-free."""
    d = len(v_rows)
    return [[(-1) ** (i + j) * _mp_det([r[:j] + r[j + 1:] for k, r
                                        in enumerate(v_rows) if k != i])
             for j in range(d)] for i in range(d)]


def _mp_generator_derivatives(name: str):
    """(f', f'') of a divergence generator in arbitrary precision."""
    if name == "kl":
        return (lambda s: mpmath.log(s) + 1,
                lambda s: 1 / s)
    if name == "hellinger":
        return (lambda s: 1 - 1 / mpmath.sqrt(s),
                lambda s: mpmath.mpf("0.5") * s ** mpmath.mpf("-1.5"))
    if name == "tv":
        delta = mpmath.mpf(TV_DELTA)

        def fp(s):
            t = s - 1
            return t / (2 * mpmath.sqrt(t * t + delta * delta))

        def fpp(s):
            t = s - 1
            return delta * delta / (2 * (t * t + delta * delta) ** mpmath.mpf("1.5"))

        return fp, fpp
    raise KeyError(f"unknown generator {name!r}")


def observation_marginal(p: ExpPolyDensity, h: PolyScalarField, y: float,
                         dt: float) -> float:
    """p_Y(y) = int p(s) rho(y|s) ds by trapezoid quadrature on the tensor
    grid of 201 nodes per axis over [-10, 10] (float)."""
    d, n = p.dim, 201
    axes = [np.linspace(-10.0, 10.0, n)] * d
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    # four blocks of points keep the grid's monomial tables small
    vals = np.concatenate([p.value(b) * np.sqrt(dt / (2.0 * np.pi))
                           * np.exp(-0.5 * dt * (y - h.value(b)) ** 2)
                           for b in np.array_split(pts, 4)]).reshape([n] * d)
    for axis_grid in axes:
        vals = trapezoid(vals, axis_grid, axis=-1)
    return float(vals)


def el_generator_invariance(p: ExpPolyDensity, h: PolyScalarField,
                            v: PolyVectorField, x: np.ndarray, y: float,
                            dt: float, generators: Sequence[str] = (
                                "kl", "hellinger", "tv")
                            ) -> Dict[str, np.ndarray]:
    """Normalized stationarity residuals, one per divergence generator.

    For each generator the full residual is grad_x[f'(xi)] |V| V^{-T} with
    xi(x) = p(x+v) rho(y|x+v) |V| / (p(x) p_Y). Dividing by f''(xi(x))
    strips the only f-dependent factor, so the returned vectors must agree
    across generators — that is the invariance under test.

    Evaluated in arbitrary precision: the smoothed-TV generator has
    |f'| <= 1/2 pinned within ~delta of its limits, which float64
    differencing cannot resolve. The step 1e-8 keeps the FD truncation
    negligible even where f''' ~ 1/delta^2 (probes with xi near 1);
    at 50 digits there is no cancellation penalty.
    """
    x = np.asarray(x, dtype=float)
    d = v.dim
    p_y = observation_marginal(p, h, y, dt)

    with mpmath.workdps(50):
        step = mpmath.mpf(1e-8)
        p_y_mp = mpmath.mpf(p_y)
        dt_mp = mpmath.mpf(dt)
        y_mp = mpmath.mpf(y)

        def xi_at(pt):
            vv = v.value_one(pt)
            shifted = [pt_i + vv_i for pt_i, vv_i in zip(pt, vv)]
            jac = v.jac_one(pt)
            v_rows = [[jac[i][j] + (1 if i == j else 0) for j in range(d)]
                      for i in range(d)]
            det = _mp_det(v_rows)
            rho = mpmath.sqrt(dt_mp / (2 * mpmath.pi)) * mpmath.exp(
                -dt_mp * (y_mp - h.poly.eval_one(shifted)) ** 2 / 2)
            num = mpmath.exp(p.log_one(shifted)) * rho * abs(det)
            xi = num / (mpmath.exp(p.log_one(pt)) * p_y_mp)
            if xi <= 0:
                raise ValueError("density ratio nonpositive at probe point")
            return xi, v_rows

        x_mp = [mpmath.mpf(float(xi_)) for xi_ in x]
        xi0, v_rows0 = xi_at(x_mp)
        cof0 = _mp_cofactor_transpose(v_rows0)

        xi_plus, xi_minus = [], []
        for i in range(d):
            hi = list(x_mp)
            lo = list(x_mp)
            hi[i] = hi[i] + step
            lo[i] = lo[i] - step
            xi_plus.append(xi_at(hi)[0])
            xi_minus.append(xi_at(lo)[0])

        out: Dict[str, np.ndarray] = {}
        for name in generators:
            fp, fpp = _mp_generator_derivatives(name)
            grad_fp = [(fp(xi_plus[i]) - fp(xi_minus[i])) / (2 * step)
                       for i in range(d)]
            residual = [sum(grad_fp[i] * cof0[i][j] for i in range(d))
                        for j in range(d)]
            scale = fpp(xi0)
            out[name] = np.array([float(r / scale) for r in residual])
    return out


# ---------------------------------------------------------------------------
# Leading-order equations of the small-increment expansion
# ---------------------------------------------------------------------------

def dz_order_residual(p: ExpPolyDensity, h: PolyScalarField,
                      K: PolyVectorField, x: np.ndarray) -> np.ndarray:
    """Coefficient of dz in the expanded stationarity condition.

    residual = p (grad^2 p) K + p (grad^T p)(grad K^T)^T + p^2 grad h
             + p^2 grad(div K) - (grad^T p K) grad p,

    which vanishes identically iff K solves grad^T(pK) = -(h - h_hat) p
    (verified here on closed-form families). All terms are analytic.
    """
    p0, gp, hp = (a[0] for a in p.partials(x, 2))
    gh = h.partials(x, 1)[1][0]
    # jk[i, j] = dK_j/dx_i, sk[i, l, j] = d2 K_j/dx_i dx_l
    k, jk, sk = (a[0] for a in K.partials(x, 2))
    grad_div_k = np.einsum("iaa->i", sk)

    t1 = p0 * hp @ k
    t2 = p0 * gp @ jk.T
    t3 = p0 * p0 * gh
    t4 = p0 * p0 * grad_div_k
    t5 = -(gp @ k) * gp
    return t1 + t2 + t3 + t4 + t5


def dt_order_residual(p: ExpPolyDensity, h: PolyScalarField,
                      K: PolyVectorField, u: PolyVectorField,
                      x: np.ndarray) -> np.ndarray:
    """Coefficient of dt in the expanded stationarity condition.

    Twelve analytic terms; vanishes identically for the closed-form pair
    (K, u = -K(h + h_hat)/2 + Omega) on matched families, e.g. K = 1,
    u = -x/2 for the standard Gaussian with h = x.
    """
    p0, gp, hp, tp = (a[0] for a in p.partials(x, 3))
    h0, gh, hh = (a[0] for a in h.partials(x, 2))
    k, jk, sk = (a[0] for a in K.partials(x, 2))
    u0, ju, su = (a[0] for a in u.partials(x, 2))
    grad_div_k = np.einsum("iaa->i", sk)
    grad_div_u = np.einsum("iaa->i", su)

    s1 = p0 * hp @ u0
    s2 = 0.5 * p0 * np.einsum("abj,a,b->j", tp, k, k)
    s3 = p0 * gp @ ju.T
    s4 = p0 * (hp @ k) @ jk.T
    s5 = -p0 * p0 * h0 * gh
    s6 = p0 * (gp @ k) * gh
    s7 = p0 * p0 * hh @ k
    s8 = p0 * p0 * gh @ jk.T
    s9 = p0 * (gp @ k) * grad_div_k
    s10 = p0 * p0 * (grad_div_u - np.einsum("ab,iba->i", jk, sk))
    s11 = -(gp @ u0) * gp
    s12 = -0.5 * (k @ hp @ k) * gp
    return s1 + s2 + s3 + s4 + s5 + s6 + s7 + s8 + s9 + s10 + s11 + s12


# ---------------------------------------------------------------------------
# Quadratic-term ledger: eight cancellation identities
# ---------------------------------------------------------------------------

QUADRATIC_IDENTITY_IDS = tuple(range(1, 9))


def quadratic_term_identity(identity_id: int, p: ExpPolyDensity,
                            K: PolyVectorField, x: np.ndarray,
                            fd_step: float = 1e-4
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """One of the eight cancellation identities among the K-quadratic terms.

    The expansion of the update map produces a ledger of row-vector terms
    built from L = log p and K; grouped correctly they cancel pairwise or
    telescope into total derivatives. Returns (lhs, rhs) whose equality is
    the identity:

      1  -K^T grad^2 L (grad K^T)^T                 = -( K^T grad^2 L (grad K^T)^T reversed )
      2  (K^T grad L) grad^T L (grad K^T)^T pairs with its negative
      3  (grad^T L K) grad^T(div K) pairs with its negative
      4  the (K^T grad^2 L K + (grad^T L K)^2) grad^T L group cancels
      5  (grad^T L K) K^T grad^2 L terms sum to zero
      6  third-derivative group telescopes to
         -1/2 grad^T[(1/p) K^T grad^2 p K] + 1/2 grad^T[(K^T grad L)^2]
      7  Jacobian-squared group telescopes to -grad^T[K^T (grad K^T) grad L]
      8  div-K group telescopes to -grad^T[grad^T(div K) K]

    Identities 1-5 are evaluated purely analytically (gap at roundoff);
    6-8 difference an analytic scalar in the outermost layer only.
    """
    _, gl, hl, tl = (a[0] for a in p.q.partials(x, 3))
    k, jk, sk, tk = (a[0] for a in K.partials(x, 3))
    grad_div_k = np.einsum("all->a", sk)

    if identity_id == 1:
        # -K^T grad^2 L (grad K^T)^T  vs  its negative, contracted K-first
        lhs = -np.einsum("i,il,jl->j", k, hl, jk)
        rhs = -(jk @ (hl @ k))
        return lhs, rhs

    if identity_id == 2:
        lhs = (k @ gl) * (jk @ gl)
        rhs = (gl @ k) * (gl @ jk.T)
        return lhs, rhs

    if identity_id == 3:
        lhs = -(gl @ k) * grad_div_k
        rhs = -(k @ gl) * np.einsum("jll->j", sk)
        return lhs, rhs

    if identity_id == 4:
        lhs = 0.5 * (k @ hl @ k) * gl + 0.5 * (gl @ k) ** 2 * gl
        rhs = 0.5 * np.einsum("i,il,l->", k, hl, k) * gl \
            + 0.5 * (k @ gl) * (gl @ k) * gl
        return lhs, rhs

    if identity_id == 5:
        lhs = 0.5 * (gl @ k) * (k @ hl) + 0.5 * (k @ gl) * (hl @ k) \
            - (gl @ k) * (k @ hl)
        rhs = np.zeros_like(k)
        return lhs, rhs

    x = np.asarray(x, dtype=float)

    if identity_id == 6:
        lhs = (-np.einsum("l,i,lij->j", k, k, tl)
               + 0.5 * np.einsum("a,b,abj->j", k, k, tl)
               - np.einsum("i,il,jl->j", k, hl, jk))

        def curvature_quad(pt):
            kk = K.value(pt)[0]
            _, g, hess = (a[0] for a in p.q.partials(pt, 2))
            return float(kk @ (hess + np.outer(g, g)) @ kk)

        def slope_quad(pt):
            return float((K.value(pt)[0] @ p.grad_log(pt)[0]) ** 2)

        rhs = -0.5 * fd_grad(curvature_quad, x, fd_step) \
            + 0.5 * fd_grad(slope_quad, x, fd_step)
        return lhs, rhs

    if identity_id == 7:
        lhs = (-np.einsum("i,il,lj->j", k, jk, hl)
               - np.einsum("i,l,ijl->j", k, gl, sk)
               - gl @ (jk.T @ jk.T))

        def transport(pt):
            kk, jac = (a[0] for a in K.partials(pt, 1))
            return float(kk @ jac @ p.grad_log(pt)[0])

        rhs = -fd_grad(transport, x, fd_step)
        return lhs, rhs

    if identity_id == 8:
        lhs = -np.einsum("i,ijll->j", k, tk) - grad_div_k @ jk.T

        def div_flux(pt):
            kk, _, sk2 = (a[0] for a in K.partials(pt, 2))
            return float(np.einsum("all->a", sk2) @ kk)

        rhs = -fd_grad(div_flux, x, fd_step)
        return lhs, rhs

    raise ValueError(f"identity_id must be 1..8, got {identity_id}")


def double_divergence_expansion_check(p: ExpPolyDensity, K: PolyVectorField,
                                      x: np.ndarray, fd_step: float = 1e-4
                                      ) -> Tuple[float, float]:
    """Product-rule expansion of sum_ij d^2(p K_i K_j)/dx_i dx_j.

    lhs: direct second differences of the analytic scalar p K_i K_j.
    rhs: K^T grad^2 p K + 2 (grad^T p K)(div K) + 2 K^T (grad K^T) grad p
         + p (div K)^2 + 2 p grad^T(div K) K + p tr[(grad K^T)^2].
    """
    x = np.asarray(x, dtype=float)
    d = K.dim

    def pkk(pt, i, j):
        kk = K.value(pt)[0]
        return float(p.value(pt)[0] * kk[i] * kk[j])

    lhs = 0.0
    e = np.eye(d)
    for i in range(d):
        lhs += (pkk(x + fd_step * e[i], i, i)
                - 2.0 * pkk(x, i, i)
                + pkk(x - fd_step * e[i], i, i)) / fd_step ** 2
        for j in range(d):
            if j == i:
                continue
            lhs += (pkk(x + fd_step * (e[i] + e[j]), i, j)
                    - pkk(x + fd_step * (e[i] - e[j]), i, j)
                    - pkk(x - fd_step * (e[i] - e[j]), i, j)
                    + pkk(x - fd_step * (e[i] + e[j]), i, j)) \
                / (4.0 * fd_step ** 2)

    p0, gp, hp = (a[0] for a in p.partials(x, 2))
    k, jk, sk = (a[0] for a in K.partials(x, 2))
    div_k = np.trace(jk)
    grad_div_k = np.einsum("all->a", sk)

    rhs = (k @ hp @ k
           + 2.0 * (gp @ k) * div_k
           + 2.0 * k @ jk @ gp
           + p0 * div_k ** 2
           + 2.0 * p0 * grad_div_k @ k
           + p0 * np.trace(jk @ jk))
    return float(lhs), float(rhs)


# ---------------------------------------------------------------------------
# Poincare-ratio sweep: no uniform constant on growing balls
# ---------------------------------------------------------------------------

def bounded_slope_grad_log(x: np.ndarray) -> np.ndarray:
    """(log p)' for p proportional to exp(-sqrt(1+x^2)); |slope| <= 1."""
    x = np.asarray(x, dtype=float)
    return -x / np.sqrt(1.0 + x * x)


def poincare_ratio_sweep(q: int, grad_log_p, radii: Sequence[float],
                         centers: Sequence[float] | None = None
                         ) -> np.ndarray:
    """||u_n||_{L^q(p)} / ||grad u_n||_{L^q(p)} for bump-profile test
    functions u_n(x) = gamma((x - x_n)/r_n) p(x)^{-1/q} (1-D).

    Under the substitution x = x_n + r y both norms carry the same r^{1/q}
    factor, leaving

        ratio(r) = ||gamma||_q
                 / ( int |gamma'(y)/r - (1/q) gamma(y) s(x_n + r y)|^q dy )^{1/q}

    with s = (log p)'. When sup|s| <= q(1 - eps) the denominator stays
    bounded while the gamma'/r term dies off, so the ratio grows with the
    ball radius: no single constant can serve arbitrarily large balls.
    Here eps = 1/4, the sup is taken over [-50, 50], and the y-integrals
    are trapezoid sums on 4001 nodes.
    Centers default to x_n = 10 r_n — the balls recede to where the slope
    field is uniformly saturated, the regime the growing-balls argument
    lives in. (A fixed center works too but the ratio then overshoots its
    r -> inf limit and is no longer monotone across an octave sweep.)
    Densities violating the slope bound (e.g. any Gaussian) are rejected
    up front.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    radii = list(radii)
    if centers is None:
        centers = [10.0 * r for r in radii]
    probe = np.linspace(-50.0, 50.0, 20001)
    slope_sup = float(np.max(np.abs(grad_log_p(probe))))
    if slope_sup > 0.75 * q:
        raise ValueError(
            f"grad log p too large for q={q}: sup |grad log p| = "
            f"{slope_sup:.3g} > q(1-eps) = {0.75 * q:.3g}")

    y = np.linspace(-1.0, 1.0, 4001)
    gamma = np.zeros_like(y)
    dgamma = np.zeros_like(y)
    inner = np.abs(y) < 1.0
    with np.errstate(over="ignore", divide="ignore"):
        w = 1.0 - y[inner] ** 2
        gamma[inner] = np.exp(-1.0 / w)
        dgamma[inner] = gamma[inner] * (-2.0 * y[inner] / w ** 2)

    num = trapezoid(gamma ** q, y) ** (1.0 / q)
    ratios = []
    for x_n, r in zip(centers, radii):
        integrand = np.abs(dgamma / r
                           - gamma * grad_log_p(x_n + r * y) / q) ** q
        den = trapezoid(integrand, y) ** (1.0 / q)
        ratios.append(num / den)
    return np.array(ratios)


# ---------------------------------------------------------------------------
# Weighted-Poisson derivative recursion, 1-D base case
# ---------------------------------------------------------------------------

def weighted_poisson_derivative_check(x: np.ndarray, p_vals: np.ndarray,
                                      h_vals: np.ndarray,
                                      h_grad_vals: np.ndarray,
                                      log_p_hess_vals: np.ndarray
                                      ) -> Tuple[float, np.ndarray]:
    """Solve -(p phi')' = (h - h_hat) p, then verify the derivative relation
    -(p phi'')' = G1 p with G1 = (log p)'' phi' + h'.

    The solve uses a conservative tridiagonal discretization with p at
    half nodes and phi = 0 at both ends; the relation is then checked with
    central differences over interior nodes. Returns (max residual, phi').
    """
    # local import: scipy.linalg adds ~0.3 s to each fpf-lab start (2 cores)
    from scipy.linalg import solve_banded

    x = np.asarray(x, dtype=float)
    p_vals = np.asarray(p_vals, dtype=float)
    h_vals = np.asarray(h_vals, dtype=float)
    n = len(x)
    dx = x[1] - x[0]

    h_hat = trapezoid(h_vals * p_vals, x) / trapezoid(p_vals, x)
    rhs = (h_vals - h_hat) * p_vals

    p_half = 0.5 * (p_vals[:-1] + p_vals[1:])       # at i + 1/2
    n_in = n - 2
    ab = np.zeros((3, n_in))
    ab[1] = (p_half[:-1] + p_half[1:]) / dx ** 2     # diagonal, rows 1..n-2
    ab[0, 1:] = -p_half[1:-1] / dx ** 2              # upper
    ab[2, :-1] = -p_half[1:-1] / dx ** 2             # lower
    phi = np.zeros(n)
    phi[1:-1] = solve_banded((1, 1), ab, rhs[1:-1])

    phi_p = np.zeros(n)
    phi_p[1:-1] = (phi[2:] - phi[:-2]) / (2.0 * dx)
    phi_p[0] = (phi[1] - phi[0]) / dx
    phi_p[-1] = (phi[-1] - phi[-2]) / dx
    phi_pp = np.zeros(n)
    phi_pp[1:-1] = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / dx ** 2

    w = p_vals * phi_pp
    lhs = np.zeros(n)
    lhs[2:-2] = -(w[3:-1] - w[1:-3]) / (2.0 * dx)
    g1 = log_p_hess_vals * phi_p + h_grad_vals
    residual = lhs[2:-2] - (g1 * p_vals)[2:-2]
    return float(np.max(np.abs(residual))), phi_p
