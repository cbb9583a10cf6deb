"""Reference filters: Kalman-Bucy, bootstrap particle filter, and a 1-D
grid solver for the exact nonlinear filter.

All three consume the same sampled-observation convention as the main
filter: per step the increment dz = y * dt with Var(dz) = dt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .grid import (GridDensity, GridNegativityError,
                   clip_roundoff_negatives)
from .model import ParticleEnsemble, SdeModel
from .sde import euler_maruyama_step

# stream id reserved for resampling draws (particle streams are 0..N-1)
_RESAMPLE_STREAM = np.uint64(0xFFFFFFFF)


class WeightCollapseError(RuntimeError):
    """All importance weights underflowed; the filter cannot continue."""


# ---------------------------------------------------------------------------
# Kalman-Bucy (linear models)
# ---------------------------------------------------------------------------

@dataclass
class KalmanState:
    mean: np.ndarray  # (d,)
    cov: np.ndarray   # (d, d)


def kalman_bucy_step(state: KalmanState, model: SdeModel, dz: float,
                     dt: float) -> KalmanState:
    """Euler step of the Kalman-Bucy equations for an affine model.

    dm = F m dt + P H (dz - (H^T m + c) dt)
    dP = (F P + P F^T + sigma sigma^T - P H H^T P) dt
    """
    if model.drift_matrix is None or model.obs_vector is None:
        raise ValueError("Kalman-Bucy requires affine drift and observation")
    F = np.asarray(model.drift_matrix, dtype=float)
    H = np.asarray(model.obs_vector, dtype=float).reshape(-1)
    sig = np.asarray(model.diffusion, dtype=float)
    m, P = state.mean, state.cov

    innovation = dz - (H @ m + model.obs_offset) * dt
    mean = m + F @ m * dt + P @ H * innovation
    PH = P @ H
    cov = P + (F @ P + P @ F.T + sig @ sig.T - np.outer(PH, PH)) * dt
    cov = 0.5 * (cov + cov.T)
    return KalmanState(mean=mean, cov=cov)


def stationary_variance_1d(f: float, sigma: float, h: float) -> float:
    """Fixed point of the 1-D Riccati equation 2 f P + sigma^2 - h^2 P^2 = 0."""
    return (f + np.sqrt(f * f + (h * sigma) ** 2)) / (h * h)


# ---------------------------------------------------------------------------
# Bootstrap particle filter
# ---------------------------------------------------------------------------

def systematic_resample(weights: np.ndarray, u: float) -> np.ndarray:
    """Systematic resampling indices from normalized weights and u in [0,1)."""
    n = len(weights)
    positions = (np.arange(n) + u) / n
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0
    return np.searchsorted(cumulative, positions)


def bootstrap_pf_step(model: SdeModel, ensemble: ParticleEnsemble,
                      log_w: np.ndarray, dz: float, dt: float,
                      ess_fraction: float = 0.5):
    """One predict/update/resample cycle of a bootstrap particle filter.

    Propagates with Euler-Maruyama, reweights with the Girsanov-style
    increment log w += h dz - h^2 dt / 2, and resamples systematically
    whenever the effective sample size drops below ess_fraction * N.

    Returns:
        (ensemble, log_w, resampled_flag)
    """
    euler_maruyama_step(model, ensemble, dt)
    h = model.obs_at(ensemble.states)
    log_w = log_w + h * dz - 0.5 * h * h * dt

    shift = np.max(log_w)
    if not np.isfinite(shift):
        raise WeightCollapseError("weight collapse: all log-weights non-finite")
    w = np.exp(log_w - shift)
    total = w.sum()
    if total <= 0.0 or not np.isfinite(total):
        raise WeightCollapseError("weight collapse: weights underflowed")
    w = w / total

    ess = 1.0 / np.sum(w * w)
    resampled = ess < ess_fraction * ensemble.n
    if resampled:
        u = float(rng.uniform01(ensemble.seed, _RESAMPLE_STREAM,
                                ensemble.draw_step, np.uint64(0)))
        idx = systematic_resample(w, u)
        ensemble.states = ensemble.states[idx]
        # copies keep their own noise streams so futures stay independent
        log_w = np.zeros(ensemble.n)
    return ensemble, log_w, resampled


def weighted_stats(states: np.ndarray, log_w: np.ndarray):
    """Weighted mean and covariance from states and log-weights.

    The covariance carries the reliability-weight correction 1 / (1 - sum
    w^2); when one particle holds all the weight that factor is undefined
    and the (zero) weighted scatter is returned as it is.
    """
    w = np.exp(log_w - np.max(log_w))
    w = w / w.sum()
    mean = w @ states
    centered = states - mean
    cov = (centered * w[:, None]).T @ centered
    correction = 1.0 - np.sum(w * w)
    return mean, cov / correction if correction > 0.0 else cov


# ---------------------------------------------------------------------------
# Exact filter on a 1-D grid
# ---------------------------------------------------------------------------

def _chang_cooper_factors(drift_vals_mid: np.ndarray, sigma: float,
                          dx: float, dt: float) -> tuple:
    """LAPACK ?gttrf LU factors of I + dt A, the backward-Euler step of
    dp/dt = -(a p)' + (sigma^2/2) p'' on the Chang-Cooper flux
    F = (D/dx) [B(-w) p_i - B(w) p_{i+1}], with D = sigma^2/2, w = a dx / D
    at each face, B(w) = w / (e^w - 1) and zero flux at both ends. As
    B(-w) = B(w) + w, F is upwind advection plus the diffusion
    (D/dx) B(|w|); sigma = 0 is pure upwind. I + dt A is a tridiagonal
    M-matrix with unit column sums, so p stays non-negative and sum(p) is
    kept for any dt; p_{i+1} / p_i = e^w is a fixed point. Column
    dominance means partial pivoting swaps no rows, and the factors solve
    bit for bit as scipy's solve_banded (?gtsv) does."""
    # local import: scipy.linalg.lapack costs 0.31-0.33 s and 25.6 MiB of
    # max RSS after fpf_lab.cli (5 fresh interpreters, 2-core x86-64
    # machine, SciPy 1.17.1); only compare pays it
    from scipy.linalg.lapack import dgttrf

    diff = 0.5 * sigma * sigma
    a = np.asarray(drift_vals_mid, dtype=float)
    coef = np.zeros_like(a)
    if diff > 0.0:
        # B(|w|) < 5e-18 |w| beyond |w| = 40, below rounding of the upwind
        # part; clipping there keeps expm1 finite
        w = np.minimum(np.abs(a) * (dx / diff), 40.0)
        coef = diff / dx * np.divide(w, np.expm1(w), out=np.ones_like(w),
                                     where=w > 0.0)
    bands = np.zeros((3, len(a) + 1))
    bands[0, 1:] = -(np.maximum(-a, 0.0) + coef) * (dt / dx)  # p_i+1 -> p_i
    bands[2, :-1] = -(np.maximum(a, 0.0) + coef) * (dt / dx)  # p_i -> p_i+1
    bands[1] = 1.0 - bands[0] - bands[2]
    # a non-finite drift ends as GridNegativityError (exit 4): here when it
    # leaves an exactly zero pivot, else as NaN mass in the Bayes step's
    # normalization
    *factors, info = dgttrf(bands[2, :-1], bands[1], bands[0, 1:])
    if info > 0:
        raise GridNegativityError(
            f"the grid's Fokker-Planck matrix is singular at row {info}: "
            "the drift or sigma is non-finite or too large for the grid")
    return tuple(factors)


def _chang_cooper_solve(factors: tuple, p: np.ndarray) -> np.ndarray:
    """p advanced by one step: the ?gttrs solve of (I + dt A) p' = p."""
    from scipy.linalg.lapack import dgttrs

    return dgttrs(*factors, p)[0]


def _bayes_multiply(density: GridDensity, h_vals: np.ndarray,
                    half_h2: np.ndarray, dz: float,
                    dt: float) -> GridDensity:
    """p *= exp(h dz - h^2 dt / 2) with half_h2 = 0.5 * h * h, then clip
    roundoff negatives and normalize."""
    g = h_vals * dz - half_h2 * dt
    density.p = density.p * np.exp(g - np.max(g))
    density.p = clip_roundoff_negatives(density.p)
    return density.normalize()


class KushnerGrid:
    """The exact 1-D filter on a fixed grid x, assembled once per run: the
    face drift, the Chang-Cooper matrix and its LU factors, h and
    0.5 h^2 on the grid. step() is one ?gttrs back-substitution (the
    Fokker-Planck step) and one Bayes multiply."""

    def __init__(self, x: np.ndarray, model: SdeModel, dt: float):
        if model.dim != 1:
            raise ValueError("grid solver only supports dim=1 models")
        x = np.asarray(x, dtype=float)
        mid = 0.5 * (x[:-1] + x[1:])
        a_mid = model.drift_at(mid.reshape(-1, 1))[:, 0]
        sigma = float(np.reshape(model.diffusion, ()))
        self.factors = _chang_cooper_factors(a_mid, sigma,
                                             float(x[1] - x[0]), dt)
        self.h_vals = model.obs_at(x.reshape(-1, 1))
        self.half_h2 = 0.5 * self.h_vals * self.h_vals
        self.dt = dt

    def step(self, density: GridDensity, dz: float) -> GridDensity:
        """One split step, Fokker-Planck then Bayes, of a density on x;
        updates the density in place and returns it."""
        density.p = _chang_cooper_solve(self.factors, density.p)
        return _bayes_multiply(density, self.h_vals, self.half_h2, dz,
                               self.dt)


def fokker_planck_substeps(density: GridDensity, drift_vals_mid: np.ndarray,
                           sigma: float, dt: float) -> GridDensity:
    """Advance dp/dt = -(a p)' + (sigma^2/2) p'' by one backward-Euler
    Chang-Cooper step (see _chang_cooper_factors), with the face drift a
    given: assembles and factors the matrix, then solves once. A run on a
    fixed grid assembles once, with KushnerGrid."""
    density.p = _chang_cooper_solve(
        _chang_cooper_factors(drift_vals_mid, sigma, density.dx, dt),
        density.p)
    return density


def bayes_update_on_grid(density: GridDensity, h_vals: np.ndarray,
                         dz: float, dt: float) -> GridDensity:
    """Multiplicative exact-Bayes correction p *= exp(h dz - h^2 dt / 2)."""
    return _bayes_multiply(density, h_vals, 0.5 * h_vals * h_vals, dz, dt)


def kushner_grid_step(density: GridDensity, model: SdeModel, dz: float,
                      dt: float) -> GridDensity:
    """One split step of the exact filter, Fokker-Planck then Bayes update:
    KushnerGrid assembled on the density's grid and stepped once. A run
    steps one KushnerGrid."""
    return KushnerGrid(density.x, model, dt).step(density, dz)
