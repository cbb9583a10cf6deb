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
                     PolyVectorField)
from .grid import trapezoid
from .identities import (
    QUADRATIC_IDENTITY_IDS,
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
# piola
# ---------------------------------------------------------------------------

def suite_piola() -> List[CheckRow]:
    """Divergence-free cofactor columns for random cubic displacements.

    The halved-step rows sit below a 1e-10 floor instead of the factor-3
    reduction whenever truncation is already exhausted (cubic fields have
    many probes with near-zero third-derivative content).
    """
    rng = np.random.default_rng(1003)
    rows: List[CheckRow] = []
    for i in range(100):
        d = 2 if i % 2 == 0 else 3
        v = PolyVectorField.random(d, 3, rng, scale=0.4)
        x = rng.uniform(-0.8, 0.8, size=d)
        r = float(np.max(np.abs(piola_residual(v, x, 1e-4))))
        r_half = float(np.max(np.abs(piola_residual(v, x, 5e-5))))
        rows.append(_row("piola", i, r, 1e-6))
        rows.append(_convergence_row("piola-halved", i, r, r_half,
                                     floor=1e-10))
    return rows


# ---------------------------------------------------------------------------
# appendixB / lm2 probe family
# ---------------------------------------------------------------------------

def _quadratic_probe(rng: np.random.Generator):
    d = int(rng.integers(1, 4))
    p = ExpPolyDensity.random_gaussian(d, rng)
    k = PolyVectorField.random(d, 3, rng, scale=0.4)
    x = rng.uniform(-0.6, 0.6, size=d)
    return p, k, x


def suite_appendix_b() -> List[CheckRow]:
    """Eight cancellation identities, one row per (identity, probe)."""
    rows: List[CheckRow] = []
    for ident in QUADRATIC_IDENTITY_IDS:
        rng = np.random.default_rng(2000 + ident)
        for i in range(50):
            p, k, x = _quadratic_probe(rng)
            lhs, rhs = quadratic_term_identity(ident, p, k, x, 1e-4)
            gap = float(np.max(np.abs(lhs - rhs)))
            rows.append(_row(f"identity-{ident}", i, gap, 1e-5))
    return rows


def suite_lm2() -> List[CheckRow]:
    """Double-divergence product-rule expansion plus FD convergence.

    The gap rows run at fd_step=1e-4 where truncation is tiny; the
    convergence rows run at 1e-2 -> 5e-3 because second differences at
    1e-4 already sit on the roundoff floor eps/h^2 ~ 1e-8, where halving
    the step measures noise rather than order.
    """
    rng = np.random.default_rng(2112)
    rows: List[CheckRow] = []
    for i in range(50):
        p, k, x = _quadratic_probe(rng)
        lhs, rhs = double_divergence_expansion_check(p, k, x, 1e-4)
        rows.append(_row("lm2", i, abs(lhs - rhs), 1e-5))
        lhs_c, rhs_c = double_divergence_expansion_check(p, k, x, 1e-2)
        lhs_h, rhs_h = double_divergence_expansion_check(p, k, x, 5e-3)
        rows.append(_convergence_row("lm2-halved", i, abs(lhs_c - rhs_c),
                                     abs(lhs_h - rhs_h)))
    return rows


# ---------------------------------------------------------------------------
# el-invariance
# ---------------------------------------------------------------------------

def _pairwise_rel(res: Dict[str, np.ndarray]) -> List[tuple]:
    names = sorted(res)
    out = []
    for a_i, a in enumerate(names):
        for b in names[a_i + 1:]:
            scale = max(float(np.linalg.norm(res[a])),
                        float(np.linalg.norm(res[b])), 1e-30)
            out.append((f"{a}~{b}",
                        float(np.linalg.norm(res[a] - res[b])) / scale))
    return out


def suite_el_invariance() -> List[CheckRow]:
    """Generator-independence of normalized stationarity residuals,
    plus the bracket check at the closed-form optimal displacement."""
    rng = np.random.default_rng(3001)
    rows: List[CheckRow] = []
    dt = 0.01
    for i in range(50):
        d = 1 + i % 2
        p = ExpPolyDensity.random_gaussian(d, rng)
        h_field = PolyScalarField(Polynomial.random(d, 2, rng, scale=0.5))
        v = PolyVectorField.random(d, 2, rng, scale=0.05)
        x = rng.uniform(-0.4, 0.4, size=d)
        y = float(0.3 * rng.standard_normal())
        res = el_generator_invariance(p, h_field, v, x, y, dt)
        for pair, rel in _pairwise_rel(res):
            rows.append(_row(f"invariance-{pair}", i, rel, 1e-6))

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
    # local import: scipy.integrate adds ~0.3 s to each fpf-lab start (2 cores)
    from scipy.integrate import cumulative_trapezoid

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
    cumulative = cumulative_trapezoid((x * x - h_hat) * p, x, initial=0.0)
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
    (K = 1, u = -x/2) on the standard Gaussian with h = x.
    """
    rng = np.random.default_rng(4001)
    rows: List[CheckRow] = []
    for i in range(50):
        d = 1 + i % 3
        mean = 0.3 * rng.standard_normal(d)
        a = 0.3 * rng.standard_normal((d, d))
        cov = np.eye(d) + a @ a.T
        hvec = rng.standard_normal(d)
        offset = float(rng.standard_normal())
        p = ExpPolyDensity.gaussian(mean, cov)
        h_terms = {tuple(int(j == l) for l in range(d)): float(hvec[j])
                   for j in range(d)}
        h_terms[(0,) * d] = offset
        h_field = PolyScalarField(Polynomial(d, h_terms))
        gain = cov @ hvec
        k = PolyVectorField([Polynomial(d, {(0,) * d: float(gain[j])})
                             for j in range(d)])
        x = rng.uniform(-0.7, 0.7, size=d)
        r = float(np.max(np.abs(dz_order_residual(p, h_field, k, x))))
        rows.append(_row("taylor-dz", i, r, 1e-10))

    p1 = ExpPolyDensity.gaussian([0.0], [[1.0]])
    h1 = PolyScalarField(Polynomial(1, {(1,): 1.0}))
    k1 = PolyVectorField([Polynomial(1, {(0,): 1.0})])
    u1 = PolyVectorField([Polynomial(1, {(1,): -0.5})])
    for i, x0 in enumerate(np.linspace(-2.0, 2.0, 50)):
        r = float(np.max(np.abs(dt_order_residual(
            p1, h1, k1, u1, np.array([x0])))))
        rows.append(_row("taylor-dt", i, r, 1e-10))
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
