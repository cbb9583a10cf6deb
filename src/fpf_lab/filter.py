"""Feedback particle filter time stepping.

Per observation step the ensemble is (1) propagated through the state
dynamics, (2) summarized, (3) corrected by the gain feedback

    X <- X + K(X) dz + u(X) dt

with the gain recomputed from the propagated ensemble and applied as an
explicit (frozen) field. No resampling is ever performed; particles keep
their identity and noise stream for the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .gain import check_admissible, compute_gain
from .model import (FilterAbortError, ModelValidationError,
                    ParticleEnsemble, SdeModel, ensemble_stats,
                    sample_initial_ensemble)
from .sde import ObservationSet, euler_maruyama_step
from .table import read_table, write_table


@dataclass
class FilterConfig:
    """Knobs of the update rule (model and run length live elsewhere)."""

    gain_method: str = "constant"          # exact_gaussian | constant | galerkin
    galerkin_degree: int = 3
    galerkin_ridge: Optional[float] = None  # None -> scaled default
    admissibility_eps: float = 1e-8
    abort_on_inadmissible: bool = False


@dataclass
class FilterTrace:
    """Posterior summaries per assimilation step (row 0 = prior at t=0)."""

    times: np.ndarray      # (M+1,)
    dz: np.ndarray         # (M+1,), 0 on the prior row
    means: np.ndarray      # (M+1, d)
    covs: np.ndarray       # (M+1, d, d)
    h_hat: np.ndarray      # (M+1,)
    n_flagged: np.ndarray  # (M+1,) int

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def fpf_step(model: SdeModel, ensemble: ParticleEnsemble, dz: float,
             dt: float, config: FilterConfig) -> int:
    """Advance the ensemble by one propagate + gain-feedback step.

    Returns the number of particles whose local update map was flagged
    non-invertible (det(I + grad v^T) <= eps). With abort_on_inadmissible
    the step raises instead of applying a flagged update; it always raises
    when the updated ensemble is not finite.
    """
    euler_maruyama_step(model, ensemble, dt)
    stats = ensemble_stats(ensemble, model.obs_at)
    gain = compute_gain(model, ensemble.states, stats, config.gain_method,
                        degree=config.galerkin_degree,
                        ridge=config.galerkin_ridge)
    flags, _ = check_admissible(gain, dz, dt, config.admissibility_eps)
    n_flagged = int(np.count_nonzero(flags))
    if n_flagged and config.abort_on_inadmissible:
        raise FilterAbortError(
            f"{n_flagged} particle(s) failed the invertibility check at "
            f"t={ensemble.time:.6g}")
    ensemble.states = ensemble.states + gain.k * dz + gain.u * dt
    if not np.isfinite(ensemble.states).all():
        raise FilterAbortError(
            f"ensemble diverged to non-finite states at t={ensemble.time:.6g}")
    return n_flagged


def run_filter(model: SdeModel, obs: ObservationSet, n_particles: int,
               seed: int, config: FilterConfig, init_mean, init_cov,
               dt: Optional[float] = None
               ) -> Tuple[FilterTrace, ParticleEnsemble]:
    """Run the filter over an observation record spaced dt apart.

    The prior is placed at times[0] - dt, so a record may start at any
    time; dt defaults to times[0] (a record that starts at t = dt).
    Returns the trace of posterior summaries (including the prior row) and
    the final ensemble.
    """
    times = np.asarray(obs.times, dtype=float)
    if len(times) == 0:
        raise ModelValidationError("observation record is empty")
    dt = float(times[0]) if dt is None else float(dt)
    # each time against the grid times[0] + k dt rather than each spacing
    # against dt: a table keeps 12 significant digits, so on a long record
    # a spacing read back can be off by more than 1e-9 of dt
    off = ~np.isclose(times, times[0] + dt * np.arange(len(times)),
                      rtol=1e-9, atol=0.0)
    if off.any():
        k = int(np.argmax(off))
        raise ModelValidationError(
            f"observation times must be uniformly spaced dt = {dt:.12g} "
            f"apart; the record steps {times[k] - times[k - 1]:.12g} to "
            f"t = {times[k]:.12g}")

    ens = sample_initial_ensemble(model.dim, n_particles, init_mean,
                                  init_cov, seed)
    ens.time = float(times[0]) - dt
    m = len(times)
    d = model.dim
    trace = FilterTrace(
        times=np.concatenate([[ens.time], times]),
        dz=np.concatenate([[0.0], obs.dz]),
        means=np.empty((m + 1, d)),
        covs=np.empty((m + 1, d, d)),
        h_hat=np.empty(m + 1),
        n_flagged=np.zeros(m + 1, dtype=int),
    )
    stats = ensemble_stats(ens, model.obs_at)
    trace.means[0], trace.covs[0], trace.h_hat[0] = \
        stats.mean, stats.cov, stats.h_hat

    for n in range(m):
        n_flagged = fpf_step(model, ens, float(obs.dz[n]), dt, config)
        stats = ensemble_stats(ens, model.obs_at)
        trace.means[n + 1] = stats.mean
        trace.covs[n + 1] = stats.cov
        trace.h_hat[n + 1] = stats.h_hat
        trace.n_flagged[n + 1] = n_flagged
    return trace, ens


def write_trace_csv(path: str, trace: FilterTrace) -> None:
    d = trace.dim
    header = (["t", "dz"]
              + [f"mean_{i + 1}" for i in range(d)]
              + [f"cov_{i + 1}{j + 1}" for i in range(d) for j in range(d)]
              + ["h_hat", "n_flagged"])
    table = np.column_stack([trace.times, trace.dz, trace.means,
                             trace.covs.reshape(len(trace.times), -1),
                             trace.h_hat, trace.n_flagged])
    write_table(path, header, table.tolist())


def read_trace_csv(path: str) -> FilterTrace:
    header, data = read_table(path)
    d = sum(1 for name in header if name.startswith("mean_"))
    return FilterTrace(
        times=data[:, 0],
        dz=data[:, 1],
        means=data[:, 2:2 + d],
        covs=data[:, 2 + d:2 + d + d * d].reshape(-1, d, d),
        h_hat=data[:, 2 + d + d * d],
        n_flagged=data[:, 3 + d + d * d].astype(int),
    )
