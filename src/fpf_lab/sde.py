"""Euler-Maruyama propagation, truth paths, and sampled observations.

The sampled observation at t_n is y_n = h(x(t_n)) + w_n with
w_n ~ N(0, 1/dt); the filter-facing increment is dz_n = y_n * dt. The
truth.csv and obs.csv layouts are documented in `fpf_lab.table`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .model import (FilterAbortError, ModelValidationError,
                    ParticleEnsemble, SdeModel)
from .table import read_table, write_table


@dataclass
class TruthPath:
    """A single state trajectory on the uniform grid t_k = k * dt."""

    times: np.ndarray   # (M+1,)
    states: np.ndarray  # (M+1, d)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


@dataclass
class ObservationSet:
    """Sampled observations y_n and increments dz_n at times dt..T."""

    times: np.ndarray  # (M,)
    y: np.ndarray      # (M,)
    dz: np.ndarray     # (M,)

    def __len__(self) -> int:
        return len(self.times)


def euler_maruyama_step(model: SdeModel, ensemble: ParticleEnsemble,
                        dt: float) -> ParticleEnsemble:
    """Propagate every particle by one Euler-Maruyama step (in place).

    X <- X + a(X) dt + sigma_b dB,  dB ~ N(0, dt I) independently per particle.
    A batch of ensembles (S, N, d) steps as one (S*N, d) array.
    """
    x = ensemble.states
    dw = ensemble.draw_normals(ensemble.dim) * np.sqrt(dt)
    noise = dw.reshape(-1, x.shape[-1]) @ np.asarray(model.diffusion,
                                                     dtype=float).T
    ensemble.states = x + model.drift_at(x) * dt + noise.reshape(x.shape)
    ensemble.time += dt
    return ensemble


def simulate_truth(model: SdeModel, x0, dt: float, t_final: float,
                   seed: int) -> TruthPath:
    """Simulate one Euler-Maruyama path of the state equation."""
    if dt <= 0 or t_final <= 0:
        raise ValueError("dt and t_final must be positive")
    n_steps = int(round(t_final / dt))
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (model.dim,):
        raise ValueError(f"x0 must have shape ({model.dim},), got {x0.shape}")

    path = ParticleEnsemble(states=x0.reshape(1, -1).copy(), time=0.0,
                            seed=seed, streams=np.zeros(1, dtype=np.uint64))
    states = np.empty((n_steps + 1, model.dim))
    states[0] = x0
    for k in range(n_steps):
        euler_maruyama_step(model, path, dt)
        states[k + 1] = path.states[0]
    times = np.arange(n_steps + 1) * dt
    _require_finite("truth path", times, states)
    return TruthPath(times=times, states=states)


def synthesize_observations(model: SdeModel, truth: TruthPath,
                            seed: int) -> ObservationSet:
    """Draw y_n = h(x(t_n)) + w_n, w_n ~ N(0, 1/dt), at t_n = dt..T."""
    dt = truth.dt
    h = model.obs_at(truth.states[1:])
    w = rng.standard_normal(seed, [0], 0, len(h))[0]
    y = h + w / np.sqrt(dt)
    _require_finite("observation record", truth.times[1:], y)
    return ObservationSet(times=truth.times[1:].copy(), y=y, dz=y * dt)


def _require_finite(what: str, times: np.ndarray, values: np.ndarray):
    """Raise FilterAbortError at the first time whose values are not all
    finite, so a diverging simulation is not written out."""
    bad = ~np.isfinite(values.reshape(len(times), -1)).all(axis=1)
    if bad.any():
        raise FilterAbortError(f"{what} diverged to non-finite values at "
                               f"t={times[np.argmax(bad)]:.6g}")


def write_truth_csv(path: str, truth: TruthPath) -> None:
    d = truth.states.shape[1]
    write_table(path, ["t"] + [f"x_{i + 1}" for i in range(d)],
                np.column_stack([truth.times, truth.states]))


def read_truth_csv(path: str) -> TruthPath:
    _, data = read_table(path)
    return TruthPath(times=data[:, 0], states=data[:, 1:])


def write_observations_csv(path: str, obs: ObservationSet) -> None:
    write_table(path, ["t", "y", "dz"],
                np.column_stack([obs.times, obs.y, obs.dz]))


def read_observations_csv(path: str) -> ObservationSet:
    _, data = read_table(path)
    if data.shape[1] != 3:
        raise ModelValidationError(
            f"{path}: {data.shape[1]} columns, expected t,y,dz")
    return ObservationSet(times=data[:, 0], y=data[:, 1], dz=data[:, 2])
