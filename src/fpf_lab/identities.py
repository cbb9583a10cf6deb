"""Numerical checks of the matrix-calculus machinery behind the filter.

Every check follows the same discipline: inner derivatives of the probe
fields are analytic (see fields.py) and an outer derivative is a complex
step (Squire and Trapp, SIAM Review 1998), with no subtraction to cancel,
so each residual is an exact cancellation at roundoff. The transport
bracket alone differences real points: its residual is the expansion's
O(dz^2 + dt^2) remainder. Each check evaluates each field once per
stencil, on all the points it needs.

Every probe check (piola_residual, el_bracket_residual,
el_generator_invariance and its observation_marginal, dz_order_residual,
dt_order_residual, the quadratic-term identities and the Lemma 2
expansion) takes P probes at points x (P, d), with observations y (P,)
where it takes one, and returns a leading probe axis (P, ...). Each field
is stacked (PolyVectorField.stack, PolyScalarField.stack,
ExpPolyDensity.gaussians), member m evaluated at x[m], or one field that
all P share, and is evaluated once per stencil for all P. The arithmetic
carries the probe axis with one BLAS product per probe where the
one-probe formula has one, on operands of the one-probe layout, and no
vectorized pow, which rounds some values otherwise than the scalar one;
so each probe's result has the bits it has in a stack of one.

Notation used throughout the docstrings: p is a smooth positive density,
L = log p, h the scalar observation function, K and u vector fields,
V = I + grad v^T the displacement Jacobian, all evaluated pointwise.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from .divergence import GENERATORS
from .fields import ExpPolyDensity, PolyScalarField, PolyVectorField, fd_grad
from .grid import trapezoid

__all__ = [
    "piola_residual", "el_bracket_residual", "el_generator_invariance",
    "dz_order_residual", "dt_order_residual", "quadratic_term_identity",
    "double_divergence_expansion_check", "poincare_ratio_sweep",
    "weighted_poisson_derivative_check",
    "bounded_slope_grad_log", "QUADRATIC_IDENTITY_IDS",
]


# ---------------------------------------------------------------------------
# Piola identity: the cofactor columns of V = I + grad v^T are divergence-free
# ---------------------------------------------------------------------------

def _minors(mats: np.ndarray) -> np.ndarray:
    """minors[..., i, j] = det of mats[...] (d, d) without row i and column
    j, from one batched det over index arrays; every minor is 1 at d = 1.
    C-ordered: det lays a batch out with its leading axes innermost, and a
    product with it would then take another BLAS kernel than a product
    with one matrix's minors, and round otherwise."""
    c = np.arange(mats.shape[-1] - 1)
    keep = c + (c >= np.arange(mats.shape[-1])[:, None])   # all but i
    return np.ascontiguousarray(np.linalg.det(
        mats[..., keep[:, None, :, None], keep[None, :, None, :]]))


# the complex step h of every outer derivative: Re f(x + i h e_i) is f(x)
# and Im f(x + i h e_i) / h is d_i f(x), each to O(h^2), far below roundoff
CS_STEP = 1e-30


def _complex_stencil(x: np.ndarray) -> np.ndarray:
    """x + i CS_STEP e_i for points x (P, d): (P, d, d), row i stepped along
    axis i, complex128."""
    x = np.asarray(x, dtype=float)
    return x[:, None] + 1j * CS_STEP * np.eye(x.shape[-1])


def _piola_terms(v: PolyVectorField, x: np.ndarray) -> np.ndarray:
    """terms[:, i, j] = (-1)^(i+j) d/dx_i [minor_ij(V)] at points x (P, d),
    (P, d, d), whose sum over i piola_residual returns.

    The minors come from the analytic Jacobian of v on the complex stencil,
    one v.jac call, and one batched det; d/dx_i is the complex step of
    stencil row i. A probe where V is singular at x raises ValueError."""
    d = v.dim
    mats = np.eye(d) + v.jac(_complex_stencil(x))
    singular = np.abs(np.linalg.det(mats[:, 0].real)) < 1e-12
    if singular.any():
        raise ValueError(f"I + grad v^T is singular at the point of probe "
                         f"{int(np.argmax(singular))}")
    i = np.arange(d)
    sign = np.where((i[:, None] + i) % 2, -1.0, 1.0)
    # stencil row i's minors of row i
    return sign * _minors(mats)[:, i, i].imag / CS_STEP


def piola_residual(v: PolyVectorField, x: np.ndarray) -> np.ndarray:
    """Divergence of the cofactor columns of V = I + grad v^T at x.

    residual_j = sum_i (-1)^(i+j) d/dx_i [minor_ij(V)], which the
    change-of-variables algebra requires to vanish identically. v holds P
    probes at points x (P, d), giving (P, d).
    """
    return np.sum(_piola_terms(v, x), axis=-2)


# ---------------------------------------------------------------------------
# Euler-Lagrange first variation for the one-step update map
# ---------------------------------------------------------------------------

def el_bracket_residual(p: ExpPolyDensity, h: PolyScalarField,
                        v: PolyVectorField, x: np.ndarray, y: np.ndarray,
                        dt: float) -> np.ndarray:
    """First-variation bracket of the one-step transport problem.

    With g(x) = p(x + v(x)) rho(y | x + v(x)), the stationarity condition
    reads (per coordinate i)

        [d_i g] p + g tr(V^{-1} d_i V) p - g d_i p = 0,

    i.e. g p grad log xi = 0. For the optimizing displacement
    v = K dz + u dt the bracket is a second-order remainder,
    O(dz^2 + dt^2). The outer gradient of g is a central difference with
    step 1e-4.

    p, h and v hold P probes at points x (P, d) with observations y (P,),
    giving (P, d), each field evaluated once per stencil for all P.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)[:, None]

    def g_at(pts: np.ndarray) -> np.ndarray:
        shifted = pts + v.value(pts)     # rho(y | s): N(h(s), 1/dt) at y
        return p.value(shifted) * (np.sqrt(dt / (2.0 * np.pi)) * np.exp(
            -0.5 * dt * (y - h.value(shifted)) ** 2))

    # partials first, so that each field builds its weight tables once
    _, jac, sec = (a[:, 0] for a in v.partials(x[:, None], 2))
    p0, grad_p0 = (a[:, 0] for a in p.partials(x[:, None], 1))
    g0 = g_at(x[:, None])
    v_inv = np.linalg.inv(np.eye(v.dim) + jac)
    # sec[:, i] = d_i V; tr(V^-1 d_i V) from one BLAS product per (probe, i)
    logdet_grad = np.trace(v_inv[:, None] @ sec, axis1=-2, axis2=-1)

    t1 = fd_grad(g_at, x, 1e-4) * p0[:, None]
    t2 = g0 * logdet_grad * p0[:, None]
    t3 = -g0 * grad_p0
    return t1 + t2 + t3


def observation_marginal(p: ExpPolyDensity, h: PolyScalarField,
                         y: np.ndarray, dt: float) -> np.ndarray:
    """p_Y(y) = int p(s) rho(y|s) ds by trapezoid quadrature on the tensor
    grid of 41 nodes per axis (spacing 0.5) over [-10, 10].

    The integrand is smooth and decays like a Gaussian, where the trapezoid
    rule converges exponentially in the node count (Trefethen and
    Weideman, SIAM Review 2014): on the el-invariance probes 41 nodes an
    axis give the 201-node value to 2.3e-11 relative or better (the same
    bits on 35 of 50), from 1,681 points at d = 2 in place of 40,401.
    Truncating at +-10 drops e^-50 of a standard normal's integrand, the
    same at any node count. p_Y only places xi on each generator, so the
    invariance residuals hold for any positive p_Y, and its last digits
    move them at roundoff.

    p and h hold P probes with observations y (P,), giving (P,): every
    member is evaluated on the one grid, one call a field.
    """
    d, n = p.dim, 41
    axes = [np.linspace(-10.0, 10.0, n)] * d
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    y = np.asarray(y, dtype=float)
    vals = (p.value(pts) * np.sqrt(dt / (2.0 * np.pi))
            * np.exp(-0.5 * dt * (y[..., None] - h.value(pts)) ** 2))
    vals = vals.reshape(y.shape + (n,) * d)
    for axis_grid in axes:
        vals = trapezoid(vals, axis_grid, axis=-1)
    return vals


def el_generator_invariance(p: ExpPolyDensity, h: PolyScalarField,
                            v: PolyVectorField, x: np.ndarray,
                            y: np.ndarray, dt: float
                            ) -> Dict[str, np.ndarray]:
    """Normalized stationarity residuals, one per divergence generator of
    divergence.GENERATORS (kl, hellinger, tv).

    For each generator the full residual is grad_x[f'(xi)] |V| V^{-T} with
    xi(x) = p(x+v) rho(y|x+v) |V| / (p(x) p_Y). Dividing by f''(xi(x))
    strips the only f-dependent factor, so the returned vectors must agree
    across generators — that is the invariance under test.

    grad_x[f'(xi)] is a complex-step derivative (Squire and Trapp, SIAM
    Review 1998): d_i g(x) = Im g(x + i h e_i) / h + O(h^2), with no
    subtraction, so h = 1e-30 leaves it at float64 roundoff, even for the
    smoothed-TV generator, whose f' is pinned within ~delta of its limits
    where a real difference cannot resolve it. The (d+1)-point stencil x,
    x + i h e_i is one complex128 array, on which each field is evaluated
    once: v's value and Jacobian, h at the shifted points, and log p at
    the shifted and the base points stacked. xi takes det V, not |det V|,
    as abs is not analytic; V is near I on the probes, and a stencil point
    where Re xi <= 0 raises ValueError.

    p, h and v hold P probes at points x (P, d) with observations y (P,),
    giving each generator's vectors (P, d): the stencils of all P are one
    (P, d + 1, d) array, p_Y one grid for all, and each generator's f'
    and f'' one call on all P.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)[:, None]
    d = v.dim
    p_y = observation_marginal(p, h, y[:, 0], dt)[:, None]

    pts = np.concatenate([x[:, None] + 0j, _complex_stencil(x)], axis=1)
    disp, jac = v.partials(pts, 1)
    shifted = pts + disp
    mats = np.eye(d) + jac
    log_num, log_den = np.split(
        p.q.value(np.concatenate([shifted, pts], axis=1)), 2, axis=1)
    rho = np.sqrt(dt / (2.0 * np.pi)) * np.exp(
        -0.5 * dt * (y - h.value(shifted)) ** 2)
    xi = np.exp(log_num - log_den) * rho * np.linalg.det(mats) / p_y
    if np.any(xi.real <= 0.0):
        raise ValueError("density ratio nonpositive at probe point")
    i = np.arange(d)
    cof0 = np.where((i[:, None] + i) % 2, -1.0, 1.0) * _minors(
        mats[:, 0].real)
    return {name: _vm(gen.fp(xi[:, 1:]).imag / CS_STEP, cof0)
            / gen.fpp(xi[:, :1].real) for name, gen in GENERATORS.items()}


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

    The fields hold P probes at points x (P, d), giving (P, d), each
    field evaluated in one call.
    """
    x = np.asarray(x, dtype=float)
    p0, gp, hp = (a[:, 0] for a in p.partials(x[:, None], 2))
    gh = h.partials(x[:, None], 1)[1][:, 0]
    # jk[i, j] = dK_j/dx_i, sk[i, l, j] = d2 K_j/dx_i dx_l
    k, jk, sk = (a[:, 0] for a in K.partials(x[:, None], 2))
    grad_div_k = np.einsum("...iaa->...i", sk)
    p0 = p0[:, None]

    t1 = _mv(p0[..., None] * hp, k)
    t2 = _vm(p0 * gp, jk.swapaxes(-1, -2))
    t3 = p0 * p0 * gh
    t4 = p0 * p0 * grad_div_k
    t5 = -_dot(gp, k)[:, None] * gp
    return t1 + t2 + t3 + t4 + t5


def dt_order_residual(p: ExpPolyDensity, h: PolyScalarField,
                      K: PolyVectorField, u: PolyVectorField,
                      x: np.ndarray) -> np.ndarray:
    """Coefficient of dt in the expanded stationarity condition.

    Twelve analytic terms; vanishes identically for the closed-form pair
    (K, u = -K(h + h_hat)/2 + Omega) on matched families, e.g. K = 1,
    u = -x/2 for the standard Gaussian with h = x.

    P probes at points x (P, d), giving (P, d), as dz_order_residual
    takes them.
    """
    x = np.asarray(x, dtype=float)
    p0, gp, hp, tp = (a[:, 0] for a in p.partials(x[:, None], 3))
    h0, gh, hh = (a[:, 0] for a in h.partials(x[:, None], 2))
    k, jk, sk = (a[:, 0] for a in K.partials(x[:, None], 2))
    u0, ju, su = (a[:, 0] for a in u.partials(x[:, None], 2))
    grad_div_k = np.einsum("...iaa->...i", sk)
    grad_div_u = np.einsum("...iaa->...i", su)
    jk_t, ju_t = jk.swapaxes(-1, -2), ju.swapaxes(-1, -2)
    p0, h0 = p0[:, None], h0[:, None]
    gp_k = _dot(gp, k)[:, None]

    s1 = _mv(p0[..., None] * hp, u0)
    s2 = 0.5 * p0 * np.einsum("...abj,...a,...b->...j", tp, k, k)
    s3 = _vm(p0 * gp, ju_t)
    s4 = _vm(p0 * _mv(hp, k), jk_t)
    s5 = -p0 * p0 * h0 * gh
    s6 = p0 * gp_k * gh
    s7 = _mv(p0[..., None] * p0[..., None] * hh, k)
    s8 = _vm(p0 * p0 * gh, jk_t)
    s9 = p0 * gp_k * grad_div_k
    # tr(grad K^T d_i grad K^T) from one BLAS product per (probe, i)
    s10 = p0 * p0 * (grad_div_u - np.trace(jk[:, None] @ sk, axis1=-2,
                                           axis2=-1))
    s11 = -_dot(gp, u0)[:, None] * gp
    s12 = -0.5 * _dot(_vm(k, hp), k)[:, None] * gp
    return s1 + s2 + s3 + s4 + s5 + s6 + s7 + s8 + s9 + s10 + s11 + s12


# ---------------------------------------------------------------------------
# Quadratic-term ledger: eight cancellation identities
# ---------------------------------------------------------------------------

QUADRATIC_IDENTITY_IDS = tuple(range(1, 9))


def _mv(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v for matrices (..., m, n) and vectors (..., n), one BLAS
    matrix-vector product per matrix, as a 2-D a @ 1-D v is."""
    return (a @ v[..., None])[..., 0]


def _vm(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """v @ a for vectors (..., m) and matrices (..., m, n), as a 1-D v @
    2-D a is."""
    return (v[..., None, :] @ a)[..., 0, :]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u @ v for vectors (..., n), one BLAS dot product per pair, as two
    1-D operands are."""
    return (u[..., None, :] @ v[..., None])[..., 0, 0]


def quadratic_term_identity(identity_id: int, p: ExpPolyDensity,
                            K: PolyVectorField, x: np.ndarray
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

    Identities 1-5 are evaluated purely analytically; 6-8 take the
    gradient of analytic scalars by complex step, one call a field on the
    stencil. Every gap is at roundoff.

    p and K hold P probes at points x (P, d), whose lhs and rhs are
    (P, d): each field is evaluated once per stencil for all P probes.
    """
    x = np.asarray(x, dtype=float)
    # the orders read: third partials of L in 6 alone, of K in 8 alone
    _, gl, hl, *tl = (a[:, 0] for a in p.q.partials(
        x[:, None], 3 if identity_id == 6 else 2))
    k, jk, sk, *tk = (a[:, 0] for a in K.partials(
        x[:, None], 3 if identity_id == 8 else 2))
    jk_t = jk.swapaxes(-1, -2)
    grad_div_k = np.einsum("...all->...a", sk)

    if identity_id == 1:
        # -K^T grad^2 L (grad K^T)^T  vs  its negative, contracted K-first
        lhs = -np.einsum("...i,...il,...jl->...j", k, hl, jk)
        rhs = -_mv(jk, _mv(hl, k))
        return lhs, rhs

    if identity_id == 2:
        lhs = _dot(k, gl)[:, None] * _mv(jk, gl)
        rhs = _dot(gl, k)[:, None] * _vm(gl, jk_t)
        return lhs, rhs

    if identity_id == 3:
        lhs = -_dot(gl, k)[:, None] * grad_div_k
        rhs = -_dot(k, gl)[:, None] * np.einsum("...jll->...j", sk)
        return lhs, rhs

    if identity_id == 4:
        lhs = 0.5 * _dot(_vm(k, hl), k)[:, None] * gl \
            + 0.5 * _dot(gl, k)[:, None] ** 2 * gl
        # K^T (grad^2 L K), contracted L-first; a scalar einsum of three
        # operands rounds by how many probes share the call
        rhs = 0.5 * _dot(k, _mv(hl, k))[:, None] * gl \
            + 0.5 * _dot(k, gl)[:, None] * _dot(gl, k)[:, None] * gl
        return lhs, rhs

    if identity_id == 5:
        lhs = 0.5 * _dot(gl, k)[:, None] * _vm(k, hl) \
            + 0.5 * _dot(k, gl)[:, None] * _mv(hl, k) \
            - _dot(gl, k)[:, None] * _vm(k, hl)
        rhs = np.zeros_like(k)
        return lhs, rhs

    if identity_id == 6:
        lhs = (-np.einsum("...l,...i,...lij->...j", k, k, tl[0])
               + 0.5 * np.einsum("...a,...b,...abj->...j", k, k, tl[0])
               - np.einsum("...i,...il,...jl->...j", k, hl, jk))
        pts = _complex_stencil(x)
        kk = K.value(pts)
        _, g, hess = p.q.partials(pts, 2)
        curvature_quad = np.einsum(
            "...ni,...nij,...nj->...n", kk,
            hess + np.einsum("...ni,...nj->...nij", g, g), kk)
        slope_quad = np.einsum("...ni,...ni->...n", kk, g) ** 2
        rhs = (-0.5 * curvature_quad + 0.5 * slope_quad).imag / CS_STEP
        return lhs, rhs

    if identity_id == 7:
        lhs = (-np.einsum("...i,...il,...lj->...j", k, jk, hl)
               - np.einsum("...i,...l,...ijl->...j", k, gl, sk)
               - _vm(gl, jk_t @ jk_t))
        pts = _complex_stencil(x)
        kk, jac = K.partials(pts, 1)
        transport = np.einsum("...ni,...nij,...nj->...n", kk, jac,
                              p.grad_log(pts))
        rhs = -transport.imag / CS_STEP
        return lhs, rhs

    if identity_id == 8:
        lhs = -np.einsum("...i,...ijll->...j", k, tk[0]) \
            - _vm(grad_div_k, jk_t)
        kk, _, sk2 = K.partials(_complex_stencil(x), 2)
        div_flux = np.einsum("...nall,...na->...n", sk2, kk)
        rhs = -div_flux.imag / CS_STEP
        return lhs, rhs

    raise ValueError(f"identity_id must be 1..8, got {identity_id}")


def _double_divergence_terms(p: ExpPolyDensity, K: PolyVectorField,
                             x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(lhs (P,), terms (P, 6)) of double_divergence_expansion_check at
    points x (P, d): the direct lhs, and the six terms of the product-rule
    rhs, whose sum is the rhs."""
    x = np.asarray(x, dtype=float)
    # the rhs first: its order-2 weight tables serve the lhs's order 1
    p0, gp, hp = (a[:, 0] for a in p.partials(x[:, None], 2))
    k, jk, sk = (a[:, 0] for a in K.partials(x[:, None], 2))
    div_k = np.trace(jk, axis1=-2, axis2=-1)
    grad_div_k = np.einsum("...all->...a", sk)
    terms = np.stack([_dot(_vm(k, hp), k),
                      2.0 * _dot(gp, k) * div_k,
                      _dot(_vm(2.0 * k, jk), gp),
                      p0 * div_k ** 2,
                      _dot(2.0 * p0[:, None] * grad_div_k, k),
                      p0 * np.trace(jk @ jk, axis1=-2, axis2=-1)], axis=-1)

    # the lhs, its own route: g_j = sum_i d_i(p K_i K_j)
    #   = (grad^T p K + p div K) K_j + p (K^T grad) K_j
    # from the first partials on the complex stencil, and sum_j d_j g_j by
    # complex step
    pts = _complex_stencil(x)
    ps, gps = p.partials(pts, 1)
    ks, jks = K.partials(pts, 1)
    g = ((_dot(gps, ks) + ps * np.trace(jks, axis1=-2, axis2=-1))[..., None]
         * ks + ps[..., None] * _vm(ks, jks))
    lhs = np.trace(g, axis1=-2, axis2=-1).imag / CS_STEP
    return lhs, terms


def double_divergence_expansion_check(p: ExpPolyDensity, K: PolyVectorField,
                                      x: np.ndarray
                                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Product-rule expansion of sum_ij d^2(p K_i K_j)/dx_i dx_j.

    lhs: sum_j d_j of g_j = sum_i d_i(p K_i K_j), which takes the inner
         level from the first partials of p and K, and the outer d_j by
         complex step.
    rhs: K^T grad^2 p K + 2 (grad^T p K)(div K) + 2 K^T (grad K^T) grad p
         + p (div K)^2 + 2 p grad^T(div K) K + p tr[(grad K^T)^2],
         from the second partials of p and K at x.

    p and K hold P probes at points x (P, d), giving lhs (P,) and rhs (P,):
    one call a field on the complex stencil and one at x.
    """
    lhs, terms = _double_divergence_terms(p, K, x)
    return lhs, np.sum(terms, axis=-1)


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

    The conservative discretization has p at half nodes and phi = 0 at
    both ends, so the face flux q_{i+1/2} = p_{i+1/2} (phi_{i+1} - phi_i)
    / dx falls by dx (h_i - h_hat) p_i across each interior node i. It is
    solved exactly by two running sums: q is a constant minus dx times the
    running sum of the right-hand side, phi is dx times the running sum of
    q / p_{i+1/2}, and phi = 0 at the right end makes the constant a ratio
    of two sums over 1 / p_{i+1/2}. The relation is then checked with
    central differences over interior nodes. A non-finite input or a
    p <= 0 raises ValueError. Returns (max residual, phi').
    """
    arrays = [np.asarray(a, dtype=float)
              for a in (x, p_vals, h_vals, h_grad_vals, log_p_hess_vals)]
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")
    x, p_vals, h_vals, h_grad_vals, log_p_hess_vals = arrays
    if not np.all(p_vals > 0.0):
        raise ValueError("p must be positive at every node")
    n = len(x)
    dx = x[1] - x[0]

    h_hat = trapezoid(h_vals * p_vals, x) / trapezoid(p_vals, x)
    rhs = (h_vals - h_hat) * p_vals

    p_half = 0.5 * (p_vals[:-1] + p_vals[1:])       # at i + 1/2
    # q_{i+1/2} = c - s_i with s_i = dx * sum of rhs over nodes 1..i
    s = np.concatenate(([0.0], dx * np.cumsum(rhs[1:-1])))
    c = np.sum(s / p_half) / np.sum(1.0 / p_half)
    phi = np.zeros(n)
    phi[1:-1] = dx * np.cumsum(((c - s) / p_half)[:-1])

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
