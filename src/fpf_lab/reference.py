"""Reference filters: Kalman-Bucy, bootstrap particle filter, and a 1-D
grid solver for the exact nonlinear filter.

All three consume the same sampled-observation convention as the main
filter: per step the increment dz = y * dt with Var(dz) = dt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .grid import GridDensity, clip_roundoff_negatives
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

def fokker_planck_substeps(density: GridDensity, drift_vals_mid: np.ndarray,
                           sigma: float, dt: float) -> GridDensity:
    """Advance dp/dt = -(a p)' + (sigma^2/2) p'' with a conservative scheme.

    Fluxes at interior faces use centered averaging for advection and a
    two-point difference for diffusion; boundary fluxes are zero. The step
    is split into substeps respecting dt_sub <= 0.4 dx^2 / sigma^2.
    """
    dx = density.dx
    p = density.p.copy()

    limit = np.inf
    if sigma > 0.0:
        limit = 0.4 * dx * dx / (sigma * sigma)
    amax = np.max(np.abs(drift_vals_mid)) if len(drift_vals_mid) else 0.0
    if amax > 0.0:
        limit = min(limit, 0.5 * dx / amax)
    n_sub = max(1, int(np.ceil(dt / limit))) if np.isfinite(limit) else 1
    dt_sub = dt / n_sub

    half_diff = 0.5 * sigma * sigma / dx
    for _ in range(n_sub):
        flux = drift_vals_mid * 0.5 * (p[:-1] + p[1:]) \
            - half_diff * (p[1:] - p[:-1])
        p[0] -= dt_sub * flux[0] / dx
        p[1:-1] -= dt_sub * (flux[1:] - flux[:-1]) / dx
        p[-1] += dt_sub * flux[-1] / dx
    density.p = p
    return density


def bayes_update_on_grid(density: GridDensity, h_vals: np.ndarray,
                         dz: float, dt: float) -> GridDensity:
    """Multiplicative exact-Bayes correction p *= exp(h dz - h^2 dt / 2)."""
    g = h_vals * dz - 0.5 * h_vals * h_vals * dt
    density.p = density.p * np.exp(g - np.max(g))
    density.p = clip_roundoff_negatives(density.p)
    return density.normalize()


def kushner_grid_step(density: GridDensity, model: SdeModel, dz: float,
                      dt: float) -> GridDensity:
    """One split step of the exact filter: Fokker-Planck then Bayes update."""
    if model.dim != 1:
        raise ValueError("grid solver only supports dim=1 models")
    x = density.x
    mid = 0.5 * (x[:-1] + x[1:])
    a_mid = model.drift_at(mid.reshape(-1, 1))[:, 0]
    sigma = float(np.asarray(model.diffusion).reshape(())) \
        if np.asarray(model.diffusion).size == 1 else float(model.diffusion[0, 0])
    fokker_planck_substeps(density, a_mid, sigma, dt)
    h_vals = model.obs_at(x.reshape(-1, 1))
    return bayes_update_on_grid(density, h_vals, dz, dt)
