"""Bulk verification suites over the identity checks.

Each suite evaluates one family of checks at seeded probe configurations
and reports rows of (check, point, residual, tolerance, pass). A row
passes iff residual <= tolerance; convergence rows compare a halved-step
residual against max(residual / 3, floor), the floor absorbing probes
whose truncation error is already at roundoff.

The same drivers back the `fpf-lab verify` command and the acceptance
tests, so the tolerances frozen here are the single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from .fields import (ExpPolyDensity, Polynomial, PolyScalarField,
                     PolyVectorField, all_exponents)
from .grid import cumulative_trapezoid, trapezoid
from .identities import (
    QUADRATIC_IDENTITY_IDS,
    _dot,
    bounded_slope_grad_log,
    double_divergence_expansion_check,
    el_bracket_residual,
    el_generator_invariance,
    dt_order_residual,
    dz_order_residual,
    piola_residual,
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


def _convergence_row(check: str, point, gap: float, gap_half: float,
                     floor: float = 1e-12) -> CheckRow:
    """Row asserting gap_half <= max(gap / 3, floor)."""
    return _row(check, point, gap_half, max(abs(gap) / 3.0, floor))


# ---------------------------------------------------------------------------
# probe families: drawn one at a time, checked one dimension at a time
# ---------------------------------------------------------------------------

def _by_dimension(probes: list) -> list:
    """probes, each (d, *arrays), grouped by dimension in ascending order:
    (indices, d, *stacked) per dimension, each array stacked over the
    group's probes in draw order."""
    groups: Dict[int, List[int]] = {}
    for i, probe in enumerate(probes):
        groups.setdefault(probe[0], []).append(i)
    # unpack a list, not a generator: CPython grows a tuple of a generator
    # by resizing it, and keeps it on its size's free list when it dies
    # (up to 2,000 a size), so a tuple of each group's size piled up there
    # every pass, and memory with them
    return [(idx, d, *[np.array(a) for a in zip(*[probes[i][1:]
                                                  for i in idx])])
            for d, idx in sorted(groups.items())]


def _vector_coeffs(d: int, degree: int, scale: float,
                   rng: np.random.Generator) -> np.ndarray:
    """The coefficients of d components on every term of degree <= degree
    in turn, drawn as PolyVectorField.random draws them."""
    return scale * rng.standard_normal(d * len(all_exponents(d, degree)))


def _vector_stack(d: int, degree: int,
                  coeffs: np.ndarray) -> PolyVectorField:
    """The fields of _vector_coeffs rows (P, d * T), stacked."""
    exponents = all_exponents(d, degree)
    return PolyVectorField.stack(np.tile(exponents, (d, 1)),
                                 (len(exponents),) * d, coeffs)


# ---------------------------------------------------------------------------
# piola
# ---------------------------------------------------------------------------

def suite_piola() -> List[CheckRow]:
    """Divergence-free cofactor columns for random cubic displacements.

    The halved-step rows sit below a 1e-10 floor instead of the factor-3
    reduction whenever truncation is already exhausted (cubic fields have
    many probes with near-zero third-derivative content). Both steps'
    stencils of one dimension's probes go through one Jacobian call, and
    each row has the bits of its probe checked alone.
    """
    rng = np.random.default_rng(1003)
    probes = []
    for i in range(100):
        d = 2 if i % 2 == 0 else 3
        probes.append((d, _vector_coeffs(d, 3, 0.4, rng),
                       rng.uniform(-0.8, 0.8, size=d)))
    gaps = np.empty((100, 2))
    for idx, d, ks, xs in _by_dimension(probes):
        gaps[idx] = np.max(np.abs(piola_residual(
            _vector_stack(d, 3, ks), xs, (1e-4, 5e-5))), axis=-1)
    rows: List[CheckRow] = []
    for i, (r, r_half) in enumerate(gaps.tolist()):
        rows.append(_row("piola", i, r, 1e-6))
        rows.append(_convergence_row("piola-halved", i, r, r_half,
                                     floor=1e-10))
    return rows


# ---------------------------------------------------------------------------
# appendixB / lm2 probe family
# ---------------------------------------------------------------------------

def _quadratic_probe(rng: np.random.Generator):
    """(d, mean, cov, k, x): a Gaussian p's moments, the coefficients of a
    cubic K and a point, drawn as random_moments, PolyVectorField.random
    and uniform draw them."""
    d = int(rng.integers(1, 4))
    mean, cov = ExpPolyDensity.random_moments(d, rng)
    return d, mean, cov, _vector_coeffs(d, 3, 0.4, rng), rng.uniform(
        -0.6, 0.6, size=d)


def _quadratic_groups(rng: np.random.Generator, count: int):
    """`count` probes drawn in turn, then grouped by dimension: (indices,
    p, K, x) per dimension, p and K the group's densities and fields
    stacked and x (P, d) its points."""
    return [(idx, ExpPolyDensity.gaussians(means, covs),
             _vector_stack(d, 3, ks), xs)
            for idx, d, means, covs, ks, xs in _by_dimension(
                [_quadratic_probe(rng) for _ in range(count)])]


def suite_appendix_b() -> List[CheckRow]:
    """Eight cancellation identities, one row per (identity, probe); each
    identity evaluates its probes one dimension at a time, and a row has
    the bits of its probe evaluated alone."""
    rows: List[CheckRow] = []
    for ident in QUADRATIC_IDENTITY_IDS:
        gaps = np.empty(50)
        for idx, p, k, x in _quadratic_groups(
                np.random.default_rng(2000 + ident), 50):
            lhs, rhs = quadratic_term_identity(ident, p, k, x, 1e-4)
            gaps[idx] = np.max(np.abs(lhs - rhs), axis=-1)
        rows += [_row(f"identity-{ident}", i, gap, 1e-5)
                 for i, gap in enumerate(gaps.tolist())]
    return rows


def suite_lm2() -> List[CheckRow]:
    """Double-divergence product-rule expansion plus FD convergence.

    The gap rows run at fd_step=1e-4 where truncation is tiny; the
    convergence rows run at 1e-2 -> 5e-3 because second differences at
    1e-4 already sit on the roundoff floor eps/h^2 ~ 1e-8, where halving
    the step measures noise rather than order. The same floor bounds how
    far a gap row moves with the fields' last bits, which depend on how
    many points share a field call: up to 1.2e-8 between one call per
    point and one call per stencil. They do not depend on how many probes
    share it: the probes of one dimension are evaluated together, and
    each row has the bits of its probe evaluated alone.
    """
    gaps = np.empty((3, 50))
    for idx, p, k, x in _quadratic_groups(np.random.default_rng(2112), 50):
        for gap, step in zip(gaps, (1e-4, 1e-2, 5e-3)):
            lhs, rhs = double_divergence_expansion_check(p, k, x, step)
            gap[idx] = np.abs(lhs - rhs)
    rows: List[CheckRow] = []
    for i, (gap, gap_c, gap_h) in enumerate(gaps.T.tolist()):
        rows.append(_row("lm2", i, gap, 1e-5))
        rows.append(_convergence_row("lm2-halved", i, gap_c, gap_h))
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


def _el_probe(rng: np.random.Generator, d: int):
    """(d, mean, cov, h, v, x, y): a Gaussian prior's moments, the
    coefficients of a quadratic h (every term of degree <= 2) and of a
    small quadratic displacement v, a point and an observation in
    dimension d, drawn as random_moments, Polynomial.random,
    PolyVectorField.random, uniform and a normal draw them."""
    mean, cov = ExpPolyDensity.random_moments(d, rng)
    h = 0.5 * rng.standard_normal(len(all_exponents(d, 2)))
    v = _vector_coeffs(d, 2, 0.05, rng)
    x = rng.uniform(-0.4, 0.4, size=d)
    return d, mean, cov, h, v, x, 0.3 * rng.standard_normal()


def suite_el_invariance() -> List[CheckRow]:
    """Generator-independence of normalized stationarity residuals,
    plus the bracket check at the closed-form optimal displacement.

    The invariance probes alternate d = 1, 2 by index; each dimension's
    are checked in one call, and each row has the bits of its probe
    checked alone."""
    rng = np.random.default_rng(3001)
    dt = 0.01
    rel = np.empty((50, 3))
    for idx, d, means, covs, hs, vs, xs, ys in _by_dimension(
            [_el_probe(rng, 1 + i % 2) for i in range(50)]):
        pairs, rel[idx] = _pairwise_rel(el_generator_invariance(
            ExpPolyDensity.gaussians(means, covs),
            PolyScalarField.stack(all_exponents(d, 2), hs),
            _vector_stack(d, 2, vs), xs, ys, dt))
    rows = [_row(f"invariance-{pair}", i, r, 1e-6)
            for i, rs in enumerate(rel.tolist()) for pair, r in zip(pairs, rs)]

    # bracket at the optimal coupling: Gaussian prior, h = x,
    # v = K dz + u dt with K = var, u = -K(x + mean)/2
    for j, (mean, var, x0) in enumerate(
            [(0.0, 1.0, 0.3), (0.2, 0.8, -0.4), (-0.3, 1.3, 0.1)]):
        p = ExpPolyDensity.gaussian([mean], [[var]])
        h_field = PolyScalarField(Polynomial(1, {(1,): 1.0}))
        y = 1.0
        dz = y * dt
        v = PolyVectorField([Polynomial(
            1, {(0,): var * dz - 0.5 * var * mean * dt,
                (1,): -0.5 * var * dt})])
        r = float(np.max(np.abs(el_bracket_residual(
            p, h_field, v, np.array([x0]), y, dt))))
        rows.append(_row("el-bracket", j, r, 1e-3))
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

def suite_taylor() -> List[CheckRow]:
    """Leading-order expansion equations on closed-form solution families.

    dz order: Gaussian prior with affine h; K = cov @ H solves the gain
    equation, so the residual is identically zero. dt order: the pair
    (K = 1, u = -x/2) on the standard Gaussian with h = x. Each
    dimension's dz probes are checked in one call, the dt rows' points in
    one call on their one set of fields, and each row has the bits of its
    probe checked alone.
    """
    rng = np.random.default_rng(4001)
    probes = []
    for i in range(50):
        d = 1 + i % 3
        mean, cov = ExpPolyDensity.random_moments(d, rng)
        hvec = rng.standard_normal(d)
        h = np.append(hvec, rng.standard_normal())   # x_j's, then 1's
        probes.append((d, mean, cov, h, cov @ hvec,
                       rng.uniform(-0.7, 0.7, size=d)))
    gaps = np.empty(50)
    for idx, d, means, covs, hs, gains, xs in _by_dimension(probes):
        eye = np.eye(d, dtype=int)
        gaps[idx] = np.max(np.abs(dz_order_residual(
            ExpPolyDensity.gaussians(means, covs),
            PolyScalarField.stack(np.concatenate([eye, 0 * eye[:1]]), hs),
            PolyVectorField.stack(0 * eye, (1,) * d, gains), xs)),
            axis=-1)
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
