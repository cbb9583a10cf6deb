"""Bulk verification suites over the identity checks.

Each suite evaluates one family of checks at seeded probe configurations
and reports rows of (check, point, residual, tolerance, pass). A row
passes iff residual <= tolerance. A relative row divides a probe's
residual by the largest term that cancels in it, so it holds a wrong
formula to account at any scale of the probe's fields, where an absolute
row passes whatever cancels below its tolerance.

The same drivers back the `fpf-lab verify` command and the acceptance
tests, so the tolerances frozen here are the single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List

import numpy as np

from .fields import (ExpPolyDensity, Polynomial, PolyScalarField,
                     PolyVectorField, all_exponents)
from .grid import cumulative_trapezoid, trapezoid
from .identities import (
    QUADRATIC_IDENTITY_IDS,
    _dot,
    _double_divergence_terms,
    _mv,
    _piola_terms,
    bounded_slope_grad_log,
    el_bracket_residual,
    el_generator_invariance,
    dt_order_residual,
    dz_order_residual,
    poincare_ratio_sweep,
    quadratic_term_identity,
    weighted_poisson_derivative_check,
)
from .table import write_table

__all__ = ["CheckRow", "SUITE_NAMES", "run_suite", "write_suite_csv"]


@dataclass
class CheckRow:
    check: str
    point: str
    residual: float
    tolerance: float
    passed: bool


def _row(check: str, point, residual: float, tolerance: float) -> CheckRow:
    residual = float(residual)
    return CheckRow(check, str(point), residual, tolerance,
                    residual <= tolerance)


# ---------------------------------------------------------------------------
# probe families: drawn as arrays, checked one dimension at a time
# ---------------------------------------------------------------------------

def _draw(rng: np.random.Generator, dims: Iterable[int],
          widths: Callable[[int], list], bound: float, observe=False) -> list:
    """Probes drawn in turn, each of dimension d the next of `dims`: its
    widths(d) normals in one call (the values and generator state of one
    call a width), its point uniform(-bound, bound) (d,), and with
    `observe` one normal more. (indices, d, z, x[, y]) per dimension in
    ascending order, over its probes in draw order: z a (P, width) array
    a width, x (P, d), y (P,)."""
    groups: Dict[int, list] = {}
    for i, d in enumerate(dims):
        draws = [i, rng.standard_normal(sum(widths(d))),
                 rng.uniform(-bound, bound, size=d)]
        if observe:
            draws.append(rng.standard_normal())
        groups.setdefault(d, []).append(draws)
    out = []
    for d, probes in sorted(groups.items()):
        # unpack a list, not a generator: CPython grows a tuple of a
        # generator by resizing it, and keeps it on its size's free list
        # when it dies (up to 2,000 a size), so a tuple of each group's
        # size piled up there every pass, and memory with them
        idx, z, *arrays = [np.array(a) for a in zip(*probes)]
        out.append((idx, d, np.split(z, np.cumsum(widths(d))[:-1], axis=1),
                    *arrays))
    return out


def _moments(mean: np.ndarray, a: np.ndarray):
    """(means, covs) from normals mean (P, d) and a (P, d * d): 0.3 mean
    and I + b b^T with b = 0.3 a, a probe's bits those of its own."""
    d = mean.shape[1]
    a = 0.3 * a.reshape(-1, d, d)
    return 0.3 * mean, np.eye(d) + a @ a.swapaxes(-1, -2)


def _vector_stack(d: int, degree: int,
                  coeffs: np.ndarray) -> PolyVectorField:
    """The stack of coefficient rows (P, d * T), each of d components on
    every term of degree <= degree in turn."""
    exponents = all_exponents(d, degree)
    return PolyVectorField.stack(np.tile(exponents, (d, 1)),
                                 (len(exponents),) * d, coeffs)


# ---------------------------------------------------------------------------
# piola
# ---------------------------------------------------------------------------

def _piola_groups(rng: np.random.Generator) -> list:
    """(indices, v, x) per dimension, v cubic displacements (scale 0.4)
    and d = 2, 3 by index."""
    return [(idx, _vector_stack(d, 3, 0.4 * v), xs)
            for idx, d, (v,), xs in _draw(
                rng, (2 + i % 2 for i in range(100)),
                lambda d: [d * len(all_exponents(d, 3))], 0.8)]


def suite_piola() -> List[CheckRow]:
    """Divergence-free cofactor columns for random cubic displacements.

    Per probe, the largest |residual_j| (at roundoff: 1.8e-15 at worst),
    then the same over the largest term d_i minor_ij that cancels in it
    (floored at 1e-30). Each dimension's probes go through one Jacobian
    call on their complex stencils, and each row has the bits of its probe
    checked alone.
    """
    gaps, scales = np.empty(100), np.empty(100)
    for idx, v, xs in _piola_groups(np.random.default_rng(1003)):
        terms = _piola_terms(v, xs)
        gaps[idx] = np.max(np.abs(np.sum(terms, axis=-2)), axis=-1)
        scales[idx] = np.max(np.abs(terms), axis=(-2, -1))
    rows: List[CheckRow] = []
    for i, (gap, scale) in enumerate(zip(gaps.tolist(), scales.tolist())):
        rows.append(_row("piola", i, gap, 1e-12))
        rows.append(_row("piola-relative", i, gap / max(scale, 1e-30),
                         1e-12))
    return rows


# ---------------------------------------------------------------------------
# appendixB / lm2 probe family
# ---------------------------------------------------------------------------

def _quadratic_groups(rng: np.random.Generator, count: int) -> list:
    """(indices, p, K, x) per dimension of `count` probes, p Gaussian, K
    cubic (scale 0.4) and d drawn from integers(1, 4)."""
    return [(idx, ExpPolyDensity.gaussians(*_moments(mean, a)),
             _vector_stack(d, 3, 0.4 * k), xs)
            for idx, d, (mean, a, k), xs in _draw(
                rng, (int(rng.integers(1, 4)) for _ in range(count)),
                lambda d: [d, d * d, d * len(all_exponents(d, 3))], 0.6)]


def suite_appendix_b() -> List[CheckRow]:
    """Eight cancellation identities, one row per (identity, probe); each
    identity evaluates its probes one dimension at a time, and a row has
    the bits of its probe evaluated alone."""
    rows: List[CheckRow] = []
    for ident in QUADRATIC_IDENTITY_IDS:
        gaps = np.empty(50)
        for idx, p, k, x in _quadratic_groups(
                np.random.default_rng(2000 + ident), 50):
            lhs, rhs = quadratic_term_identity(ident, p, k, x)
            gaps[idx] = np.max(np.abs(lhs - rhs), axis=-1)
        rows += [_row(f"identity-{ident}", i, gap, 1e-12)
                 for i, gap in enumerate(gaps.tolist())]
    return rows


def suite_lm2() -> List[CheckRow]:
    """Double-divergence product-rule expansion: per probe, |lhs - rhs|,
    then the same over the largest of |lhs| and the six rhs terms that
    cancel in it (floored at 1e-30). The probes of one dimension are
    evaluated together, one call a field on the complex stencils and one
    at the points, and each row has the bits of its probe evaluated alone.
    """
    gaps, scales = np.empty(50), np.empty(50)
    for idx, p, k, x in _quadratic_groups(np.random.default_rng(2112), 50):
        lhs, terms = _double_divergence_terms(p, k, x)
        gaps[idx] = np.abs(lhs - np.sum(terms, axis=-1))
        scales[idx] = np.maximum(np.abs(lhs), np.max(np.abs(terms), axis=-1))
    rows: List[CheckRow] = []
    for i, (gap, scale) in enumerate(zip(gaps.tolist(), scales.tolist())):
        rows.append(_row("lm2", i, gap, 1e-12))
        rows.append(_row("lm2-relative", i, gap / max(scale, 1e-30),
                         1e-12))
    return rows


# ---------------------------------------------------------------------------
# el-invariance
# ---------------------------------------------------------------------------

def _pairwise_rel(res: Dict[str, np.ndarray]) -> tuple:
    """(pairs, rel): each pair a~b of res's names in sorted order, and
    rel (P, pairs) = |res[a] - res[b]| / max(|res[a]|, |res[b]|, 1e-30)
    per probe, res[name] (P, d); each norm the one np.linalg.norm gives a
    probe's vector, the square root of one dot product."""
    names = sorted(res)
    norm = {name: np.sqrt(_dot(r, r)) for name, r in res.items()}
    pairs, rel = [], []
    for a_i, a in enumerate(names):
        for b in names[a_i + 1:]:
            diff = res[a] - res[b]
            pairs.append(f"{a}~{b}")
            rel.append(np.sqrt(_dot(diff, diff))
                       / np.maximum(np.maximum(norm[a], norm[b]), 1e-30))
    return pairs, np.stack(rel, axis=-1)


def _el_groups(rng: np.random.Generator) -> list:
    """(indices, p, h, v, x, y) per dimension, p Gaussian, h quadratic
    (scale 0.5), v a small quadratic (scale 0.05), y 0.3 z and d = 1, 2 by
    index."""
    return [(idx, ExpPolyDensity.gaussians(*_moments(mean, a)),
             PolyScalarField.stack(all_exponents(d, 2), 0.5 * h),
             _vector_stack(d, 2, 0.05 * v), xs, 0.3 * ys)
            for idx, d, (mean, a, h, v), xs, ys in _draw(
                rng, (1 + i % 2 for i in range(50)),
                lambda d: [d, d * d, len(all_exponents(d, 2)),
                           d * len(all_exponents(d, 2))], 0.4, observe=True)]


def suite_el_invariance() -> List[CheckRow]:
    """Generator-independence of normalized stationarity residuals,
    plus the bracket check at the closed-form optimal displacement.

    Each generator's normalized residual grad_x[f'(xi)] |V| V^-T / f''(xi)
    equals grad xi |V| V^-T for every f with f'' != 0, whatever v is, so
    the invariance rows test each generator's fp against its fpp, not the
    control; the headline claim, that the optimal control is stationary
    for every f-divergence, is ROADMAP item 4's to check. The invariance
    probes alternate d = 1, 2 by index; each dimension's
    are checked in one call, the three 1-D bracket probes in one more, and
    each row has the bits of its probe checked alone."""
    dt = 0.01
    rel = np.empty((50, 3))
    for idx, p, h, v, xs, ys in _el_groups(np.random.default_rng(3001)):
        pairs, rel[idx] = _pairwise_rel(el_generator_invariance(
            p, h, v, xs, ys, dt))
    rows = [_row(f"invariance-{pair}", i, r, 1e-6)
            for i, rs in enumerate(rel.tolist()) for pair, r in zip(pairs, rs)]

    # bracket at the optimal coupling: Gaussian priors, h = x, y = 1,
    # v = K dz + u dt with dz = y dt = dt, K = var, u = -K(x + mean)/2
    mean, var, x0 = np.array([(0.0, 1.0, 0.3), (0.2, 0.8, -0.4),
                              (-0.3, 1.3, 0.1)]).T
    v = PolyVectorField.stack(np.array([[0], [1]]), (2,), np.stack(
        [var * dt - 0.5 * var * mean * dt, -0.5 * var * dt], axis=-1))
    r = np.max(np.abs(el_bracket_residual(
        ExpPolyDensity.gaussians(mean[:, None], var[:, None, None]),
        PolyScalarField(Polynomial(1, {(1,): 1.0})), v, x0[:, None],
        np.ones(3), dt)), axis=-1)
    rows += [_row("el-bracket", j, g, 1e-3) for j, g in enumerate(r.tolist())]
    return rows


# ---------------------------------------------------------------------------
# poincare
# ---------------------------------------------------------------------------

def suite_poincare() -> List[CheckRow]:
    """Growth of the norm ratio over balls of doubling radius, plus
    rejection of a density violating the bounded-slope hypothesis."""
    radii = [1.0, 2.0, 4.0, 8.0]
    ratios = poincare_ratio_sweep(2, bounded_slope_grad_log, radii)
    rows: List[CheckRow] = []
    for r, ratio in zip(radii, ratios):
        rows.append(_row("poincare-ratio", f"r={r:g}", ratio, np.inf))
    for i in range(1, len(radii)):
        rows.append(_row("poincare-monotone",
                         f"r={radii[i - 1]:g}->{radii[i]:g}",
                         ratios[i - 1] / ratios[i], 1.0 - 1e-12))
    rows.append(_row("poincare-growth", "r=1->8",
                     ratios[0] / ratios[-1], 1.0 / 3.0))
    try:
        poincare_ratio_sweep(2, lambda x: -x, radii)
        rejected = False
    except ValueError:
        rejected = True
    rows.append(_row("poincare-gaussian-reject", "N(0,1)",
                     0.0 if rejected else 1.0, 0.5))
    return rows


# ---------------------------------------------------------------------------
# lemmaD
# ---------------------------------------------------------------------------

def suite_lemma_d() -> List[CheckRow]:
    """Weighted-Poisson solve and its differentiated identity on a grid.

    phi' comparisons are restricted to |x| <= 3: the operator -(p phi')'
    is nearly singular where p ~ 1e-15 near the domain ends, so boundary
    values of phi' amplify rounding of the right-hand side by 1/p.
    """
    x = np.linspace(-8.0, 8.0, 2001)
    p = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    interior = np.abs(x) <= 3.0
    rows: List[CheckRow] = []

    res, phi_p = weighted_poisson_derivative_check(
        x, p, x, h_grad_vals=np.ones_like(x), log_p_hess_vals=-np.ones_like(x))
    rows.append(_row("lemmaD-residual", "h=x", res, 1e-3))
    rows.append(_row("lemmaD-gain", "h=x,K=1",
                     np.max(np.abs(phi_p[interior] - 1.0)), 1e-3))

    res2, phi_p2 = weighted_poisson_derivative_check(
        x, p, x * x, h_grad_vals=2.0 * x, log_p_hess_vals=-np.ones_like(x))
    rows.append(_row("lemmaD-residual", "h=x^2", res2, 1e-3))
    # quadrature oracle: phi'(x) = (1/p) int_x^inf (h - h_hat) p ds
    h_hat = trapezoid(x * x * p, x) / trapezoid(p, x)
    cumulative = cumulative_trapezoid((x * x - h_hat) * p, x)
    oracle = (cumulative[-1] - cumulative) / p
    rows.append(_row("lemmaD-gain", "h=x^2,quadrature",
                     np.max(np.abs(phi_p2[interior] - oracle[interior])),
                     1e-2))
    idx = int(np.argmin(np.abs(x - 2.0)))
    rows.append(_row("lemmaD-gain", "h=x^2,x=2",
                     abs(phi_p2[idx] - 2.0), 1e-3))

    res3, phi_p3 = weighted_poisson_derivative_check(
        x, p, np.full_like(x, 3.0), h_grad_vals=np.zeros_like(x),
        log_p_hess_vals=-np.ones_like(x))
    rows.append(_row("lemmaD-residual", "h=const", res3, 1e-9))
    rows.append(_row("lemmaD-gain", "h=const,interior",
                     np.max(np.abs(phi_p3[interior])), 1e-10))
    return rows


# ---------------------------------------------------------------------------
# taylor
# ---------------------------------------------------------------------------

def _dz_groups(rng: np.random.Generator) -> list:
    """(indices, p, h, K, x) per dimension, p Gaussian, h affine (x_j's,
    then 1), K = cov @ H from a contiguous H and d = 1, 2, 3 by index."""
    out = []
    for idx, d, (mean, a, h), xs in _draw(
            rng, (1 + i % 3 for i in range(50)),
            lambda d: [d, d * d, d + 1], 0.7):
        means, covs = _moments(mean, a)
        eye = np.eye(d, dtype=int)
        gains = _mv(covs, np.ascontiguousarray(h[:, :-1]))
        out.append((idx, ExpPolyDensity.gaussians(means, covs),
                    PolyScalarField.stack(np.append(eye, 0 * eye[:1], 0), h),
                    PolyVectorField.stack(0 * eye, (1,) * d, gains), xs))
    return out


def suite_taylor() -> List[CheckRow]:
    """Leading-order expansion equations on closed-form solution families.

    dz order: Gaussian prior with affine h; K = cov @ H solves the gain
    equation, so the residual is identically zero. dt order: the pair
    (K = 1, u = -x/2) on the standard Gaussian with h = x. Each
    dimension's dz probes are checked in one call, the dt rows' points in
    one call on their one set of fields, and each row has the bits of its
    probe checked alone.
    """
    gaps = np.empty(50)
    for idx, p, h, k, xs in _dz_groups(np.random.default_rng(4001)):
        gaps[idx] = np.max(np.abs(dz_order_residual(p, h, k, xs)), axis=-1)
    rows = [_row("taylor-dz", i, r, 1e-10)
            for i, r in enumerate(gaps.tolist())]

    p1 = ExpPolyDensity.gaussian([0.0], [[1.0]])
    h1 = PolyScalarField(Polynomial(1, {(1,): 1.0}))
    k1 = PolyVectorField([Polynomial(1, {(0,): 1.0})])
    u1 = PolyVectorField([Polynomial(1, {(1,): -0.5})])
    gaps = np.max(np.abs(dt_order_residual(
        p1, h1, k1, u1, np.linspace(-2.0, 2.0, 50)[:, None])), axis=-1)
    rows += [_row("taylor-dt", i, r, 1e-10)
             for i, r in enumerate(gaps.tolist())]
    return rows


# ---------------------------------------------------------------------------
# dispatch and serialization
# ---------------------------------------------------------------------------

_SUITES: Dict[str, Callable[[], List[CheckRow]]] = {
    "piola": suite_piola,
    "appendixB": suite_appendix_b,
    "lm2": suite_lm2,
    "el-invariance": suite_el_invariance,
    "poincare": suite_poincare,
    "lemmaD": suite_lemma_d,
    "taylor": suite_taylor,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str) -> List[CheckRow]:
    try:
        fn = _SUITES[name]
    except KeyError:
        raise KeyError(
            f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}"
        ) from None
    return fn()


def write_suite_csv(path: str, rows: List[CheckRow]) -> None:
    write_table(path, ["check", "point", "residual", "tolerance", "pass"],
                ([row.check, row.point, row.residual, row.tolerance,
                  "1" if row.passed else "0"] for row in rows))
