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
    """Advance dp/dt = -(a p)' + (sigma^2/2) p'' by one backward-Euler step
    on the Chang-Cooper flux F = (D/dx) [B(-w) p_i - B(w) p_{i+1}], with
    D = sigma^2/2, w = a dx / D at each face, B(w) = w / (e^w - 1) and zero
    flux at both ends. As B(-w) = B(w) + w, F is upwind advection plus the
    diffusion (D/dx) B(|w|); sigma = 0 is pure upwind. I + dt A is a
    tridiagonal M-matrix with unit column sums, so p stays non-negative and
    sum(p) is kept for any dt; p_{i+1} / p_i = e^w is a fixed point.
    """
    # local import: scipy.linalg adds ~0.3 s to each fpf-lab start (2 cores)
    from scipy.linalg import solve_banded

    dx, diff = density.dx, 0.5 * sigma * sigma
    a = np.asarray(drift_vals_mid, dtype=float)
    coef = np.zeros_like(a)
    if diff > 0.0:
        # B(|w|) < 5e-18 |w| beyond |w| = 40, below rounding of the upwind
        # part; clipping there keeps expm1 finite
        w = np.minimum(np.abs(a) * (dx / diff), 40.0)
        coef = diff / dx * np.divide(w, np.expm1(w), out=np.ones_like(w),
                                     where=w > 0.0)
    bands = np.zeros((3, len(density.p)))
    bands[0, 1:] = -(np.maximum(-a, 0.0) + coef) * (dt / dx)  # p_i+1 -> p_i
    bands[2, :-1] = -(np.maximum(a, 0.0) + coef) * (dt / dx)  # p_i -> p_i+1
    bands[1] = 1.0 - bands[0] - bands[2]
    # unchecked: a non-finite drift ends as NaN mass in the Bayes step's
    # normalization (exit 4), not as a ValueError here
    density.p = solve_banded((1, 1), bands, density.p, check_finite=False)
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
    sigma = float(np.reshape(model.diffusion, ()))
    fokker_planck_substeps(density, a_mid, sigma, dt)
    h_vals = model.obs_at(x.reshape(-1, 1))
    return bayes_update_on_grid(density, h_vals, dz, dt)
