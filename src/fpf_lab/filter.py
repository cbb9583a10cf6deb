"""Feedback particle filter time stepping.

Per observation step the ensemble is (1) propagated through the state
dynamics, (2) summarized, (3) corrected by the gain feedback

    X <- X + K(X) dz + u(X) dt

with the gain recomputed from the propagated ensemble and applied as an
explicit (frozen) field. No resampling is ever performed; particles keep
their identity and noise stream for the whole run.

run_filters runs S filter seeds in batches of ensembles (S, N, d) of at
most BATCH_PARTICLES particles: each layer of the step takes the leading
seed axis, and each seed's trace and final states are bit-identical to its
run alone.  run_filter is the same loop for one seed, without the axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import rng
from .gain import SingularGainError, check_admissible, compute_gain
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
             dt: float, config: FilterConfig):
    """Advance the ensemble, or each ensemble of a batch, by one propagate
    + gain-feedback step.

    Returns the number of particles whose local update map was flagged
    non-invertible (det(I + grad v^T) <= eps), one count per seed for a
    batch. With abort_on_inadmissible the step raises instead of applying
    a flagged update; it always raises when the Galerkin system is
    singular or the updated ensemble is not finite. Each message names the
    first seed at fault.
    """
    euler_maruyama_step(model, ensemble, dt)
    stats = ensemble_stats(ensemble, model.obs_at)
    try:
        gain = compute_gain(model, ensemble.states, stats, config.gain_method,
                            degree=config.galerkin_degree,
                            ridge=config.galerkin_ridge)
    except SingularGainError as exc:
        seed = int(np.asarray(ensemble.seed)[exc.index])
        raise FilterAbortError(f"{exc} at t={ensemble.time:.6g} "
                               f"(seed {seed})") from None
    flags, _ = check_admissible(gain, dz, dt, config.admissibility_eps)
    # a particle-constant field's one flag per seed stands for N particles
    n_flagged = flags.sum(axis=-1) * (ensemble.n // flags.shape[-1])
    if config.abort_on_inadmissible and n_flagged.any():
        s, seed = _first_seed(ensemble, n_flagged > 0)
        raise FilterAbortError(
            f"{n_flagged[s]} particle(s) failed the invertibility check at "
            f"t={ensemble.time:.6g} (seed {seed})")
    ensemble.states = ensemble.states + gain.k * dz + gain.u * dt
    if not np.isfinite(ensemble.states).all():
        _, seed = _first_seed(
            ensemble, ~np.isfinite(ensemble.states).all(axis=(-2, -1)))
        raise FilterAbortError(
            f"ensemble diverged to non-finite states at t={ensemble.time:.6g} "
            f"(seed {seed})")
    return n_flagged


def _first_seed(ensemble: ParticleEnsemble, bad: np.ndarray):
    """The index and the seed of the first ensemble that the per-seed mask
    bad marks; the index is () for the 0-d mask of a single ensemble."""
    s = () if bad.ndim == 0 else int(np.argmax(bad))
    return s, int(np.asarray(ensemble.seed)[s])


# run_filters runs its seeds in batches of at most this many particles (one
# seed per batch when a seed alone has more), so its peak memory is the
# larger of one such batch and one seed's run, plus the final states
BATCH_PARTICLES = 1 << 15


def run_filters(model: SdeModel, obs: ObservationSet, n_particles: int,
                seeds: Sequence[int], config: FilterConfig, init_mean,
                init_cov, dt: Optional[float] = None
                ) -> Tuple[List[FilterTrace], ParticleEnsemble]:
    """Run the filter for each of S seeds over an observation record
    spaced dt apart, in batches of ensembles with a leading seed axis, of
    at most BATCH_PARTICLES particles each.

    Returns one trace per seed, each bit-identical to run_filter with that
    seed, and a fresh ensemble of every seed's final states: states (S, N,
    d), seed the (S,) uint64 words of the seeds.
    """
    seeds = rng.seed_words(list(seeds))
    if len(seeds) == 0:
        raise ValueError("run_filters needs at least one seed")
    group = max(1, BATCH_PARTICLES // max(1, n_particles))
    traces, states = [], []
    for first in range(0, len(seeds), group):
        trace, ens = _run(model, obs, n_particles, seeds[first:first + group],
                          config, init_mean, init_cov, dt)
        traces += [FilterTrace(times=trace.times, dz=trace.dz,
                               means=trace.means[:, s], covs=trace.covs[:, s],
                               h_hat=trace.h_hat[:, s],
                               n_flagged=trace.n_flagged[:, s])
                   for s in range(len(ens.seed))]
        states.append(ens.states)
        time, streams, draw_step = ens.time, ens.streams, ens.draw_step
        del ens    # with its noise block, before the next batch runs
    return traces, ParticleEnsemble(np.concatenate(states), time, seeds,
                                    streams, draw_step)


def run_filter(model: SdeModel, obs: ObservationSet, n_particles: int,
               seed: int, config: FilterConfig, init_mean, init_cov,
               dt: Optional[float] = None
               ) -> Tuple[FilterTrace, ParticleEnsemble]:
    """Run the filter over an observation record spaced dt apart.

    The prior is placed at times[0] - dt, so a record may start at any
    time; dt defaults to times[0] (a record that starts at t = dt).
    Returns the trace of posterior summaries (including the prior row) and
    the final ensemble. This is run_filters for one seed, without its
    seed axis.
    """
    return _run(model, obs, n_particles, seed, config, init_mean, init_cov,
                dt)


def _run(model, obs, n_particles, seed, config, init_mean, init_cov, dt):
    """The filter loop for a seed or an (S,) array of seeds: the trace
    arrays are (M+1, [S,] ...), the ensemble ([S,] N, d)."""
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
    rows = (m + 1,) + np.shape(seed)
    d = model.dim
    trace = FilterTrace(
        times=np.concatenate([[ens.time], times]),
        dz=np.concatenate([[0.0], obs.dz]),
        means=np.empty(rows + (d,)),
        covs=np.empty(rows + (d, d)),
        h_hat=np.empty(rows),
        n_flagged=np.zeros(rows, dtype=int),
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
    # from d = 10 on, cov_1_11 and cov_11_1 where cov_111 would name both
    sep = "_" if d >= 10 else ""
    header = (["t", "dz"]
              + [f"mean_{i + 1}" for i in range(d)]
              + [f"cov_{i + 1}{sep}{j + 1}" for i in range(d)
                 for j in range(d)]
              + ["h_hat", "n_flagged"])
    write_table(path, header, np.column_stack([
        trace.times, trace.dz, trace.means,
        trace.covs.reshape(len(trace.times), -1), trace.h_hat,
        trace.n_flagged]))


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
