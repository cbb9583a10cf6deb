"""State-space model and particle-ensemble containers.

The continuous-time model is

    dX_t = a(X_t) dt + sigma_b dB_t        (state, R^d)
    dZ_t = h(X_t) dt + dW_t                (scalar observation path)

with observations delivered in sampled form y_n = h(X_{t_n}) + w_n,
w_n ~ N(0, 1/dt), and increment dz_n = y_n * dt (so Var(dz) = dt and the
continuum limit is recovered as dt -> 0).

All model callables are vectorized over an ensemble: drift maps (N, d) ->
(N, d) and the observation function maps (N, d) -> (N,).  The SdeModel
methods drift_at, obs_at and obs_grad_at also take a batch of ensembles
(S, N, d), one per filter seed, and call the model once on its S*N rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import rng


class ModelValidationError(ValueError):
    """A model or ensemble precondition does not hold."""


class FilterAbortError(RuntimeError):
    """The particle flow lost invertibility and the run was configured
    to stop rather than continue past flagged particles, or an ensemble
    or simulated path diverged to non-finite states."""


@dataclass
class SdeModel:
    """Diffusion state model with a scalar observation function.

    Attributes:
        dim: state dimension d >= 1
        drift: a(x), maps (N, d) -> (N, d)
        diffusion: constant matrix sigma_b, shape (d, d)
        obs: h(x), maps (N, d) -> (N,)
        obs_grad: gradient of h, maps (N, d) -> (N, d); required (the
            program builds every model with registry.polynomial_model)
        drift_matrix: F for affine drift a(x) = F x, when the model is linear
            (enables the closed-form reference filter); None otherwise
        obs_vector: H for affine observation h(x) = H^T x + obs_offset, when
            applicable (enables the closed-form gain); None otherwise
        obs_offset: scalar offset of an affine observation function
        name: registry label, informational only
    """

    dim: int
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: np.ndarray
    obs: Callable[[np.ndarray], np.ndarray]
    obs_grad: Callable[[np.ndarray], np.ndarray]
    drift_matrix: Optional[np.ndarray] = None
    obs_vector: Optional[np.ndarray] = None
    obs_offset: float = 0.0
    name: str = ""

    def drift_at(self, states: np.ndarray) -> np.ndarray:
        flat = _rows(states)
        out = np.asarray(self.drift(flat), dtype=float)
        if out.shape != flat.shape:
            raise ModelValidationError(
                f"drift returned shape {out.shape}, expected {flat.shape}")
        return out if flat is states else out.reshape(states.shape)

    def obs_at(self, states: np.ndarray) -> np.ndarray:
        flat = _rows(states)
        out = np.asarray(self.obs(flat), dtype=float).reshape(-1)
        if out.shape[0] != flat.shape[0]:
            raise ModelValidationError(
                f"obs returned {out.shape[0]} values for {flat.shape[0]} states")
        return out if flat is states else out.reshape(states.shape[:-1])

    def obs_grad_at(self, states: np.ndarray) -> np.ndarray:
        """Gradient of h at each state, shape (..., N, d)."""
        flat = _rows(states)
        out = np.asarray(self.obs_grad(flat), dtype=float)
        if out.ndim == 1:
            out = out.reshape(-1, 1)
        if out.shape != flat.shape:
            raise ModelValidationError(
                f"obs_grad returned shape {out.shape}, expected {flat.shape}")
        return out if flat is states else out.reshape(states.shape)


def repeat_view(a: np.ndarray, n: int, axis: int) -> np.ndarray:
    """A read-only view of a, whose axis has length 1, repeated n times
    along it: np.broadcast_to along one axis, without its per-call cost,
    which a filter step pays for the affine gradient and the particle-
    constant gain fields."""
    a = np.ascontiguousarray(a)
    shape, strides = list(a.shape), list(a.strides)
    shape[axis], strides[axis] = n, 0
    view = np.ndarray(shape, a.dtype, a, 0, strides)
    view.flags.writeable = False
    return view


def _rows(states: np.ndarray) -> np.ndarray:
    """States (..., d) as one (M, d) array of rows; (M, d) states as
    they are."""
    if states.ndim == 2:
        return states
    return states.reshape(-1, states.shape[-1])


# A noise block holds at most this many steps and this many normals over
# all its S*N streams (but never less than one step): 64 steps at S*N =
# 1000, d = 1, 10 for six seeds of 1000 particles, one beyond 2^16 draws
# per step.  A refill's largest uint64 temporary, two words per normal,
# then stays at 1 MiB unless one step alone needs more.  Of the caps 2^13
# to 2^16 on a 2-core x86-64 machine, 2^16 gave single-seed runs their
# lowest wall time, and a six-seed compare within 2% of its lowest (2^15).
_BLOCK_STEPS = 64
_BLOCK_NORMALS = 1 << 16


@dataclass
class ParticleEnsemble:
    """Equally-weighted particle cloud plus its noise-stream bookkeeping,
    for one seed or a batch of S seeds run side by side.

    A batch holds states (S, N, d) and a 1-D array of S seeds; ensemble s
    draws the noise of seed[s] on the same N streams, so it equals the
    ensemble of seed[s] alone bit for bit.  Noise is hashed ahead a block
    of steps at a time: draw_normals serves draw_step from a cached
    (K, N, n_slots) block of rng.standard_normal, (K, S, N, n_slots) for a
    batch, and refills it when draw_step leaves the block's range, or when
    seed, the streams object or n_slots changes.  A block holds at most
    _BLOCK_NORMALS normals over all S*N streams, so K shrinks as the batch
    grows.  Relabeling assigns a new streams array rather than editing it
    in place.  Every draw equals the per-step call at the same address, so
    blocking changes no value.

    Attributes:
        states: (N, d) particle positions, or (S, N, d) for a batch
        time: current simulation time
        seed: base seed of the noise streams, or a 1-D array of S seeds
        streams: (N,) per-particle stream ids (relabel together with states)
        draw_step: index of the next noise step to consume
    """

    states: np.ndarray
    time: float
    seed: int
    streams: np.ndarray
    draw_step: int = 0
    # the cached block, read-only, and the (first step, seed, streams) it
    # was hashed for
    _block: Optional[np.ndarray] = field(default=None, init=False,
                                         repr=False, compare=False)
    _block_key: tuple = field(default=(0, None, None), init=False,
                              repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.states.shape[-2]

    @property
    def dim(self) -> int:
        return self.states.shape[-1]

    def draw_normals(self, n_slots: int) -> np.ndarray:
        """Consume one noise step: (N, n_slots) standard normals, (S, N,
        n_slots) for a batch, a read-only view into the cached block."""
        start, seed, streams = self._block_key
        block = self._block
        if (block is None or block.shape[-1] != n_slots
                or not (seed is self.seed or np.array_equal(seed, self.seed))
                or streams is not self.streams
                or not start <= self.draw_step < start + len(block)):
            start = self.draw_step
            draws = np.size(self.seed) * len(self.streams) * n_slots
            steps = max(1, min(_BLOCK_STEPS, _BLOCK_NORMALS // draws))
            block = rng.standard_normal(self.seed, self.streams,
                                        np.arange(start, start + steps),
                                        n_slots)
            block.flags.writeable = False
            self._block = block
            self._block_key = (start, self.seed, self.streams)
        self.draw_step += 1
        return block[self.draw_step - 1 - start]


@dataclass
class PosteriorStats:
    """Empirical summary of an ensemble under an observation function; a
    batch of S ensembles gives each field a leading S axis."""

    mean: np.ndarray          # (d,)
    cov: np.ndarray           # (d, d), unbiased (N-1) normalization
    h_hat: float              # mean of h over particles
    h_vals: np.ndarray        # (N,)

    def of_seed(self, s: int) -> "PosteriorStats":
        """The summary of ensemble s of a batch."""
        return PosteriorStats(self.mean[s], self.cov[s], self.h_hat[s],
                              self.h_vals[s])


def validate_model(model: SdeModel) -> None:
    """Raise ModelValidationError unless the model is usable.

    Checks shapes and finiteness of drift/obs/diffusion at a fixed probe set
    (origin plus a few seeded points in [-1, 1]^d).
    """
    d = model.dim
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ModelValidationError(f"dim must be a positive integer, got {d!r}")
    sig = np.asarray(model.diffusion, dtype=float)
    if sig.shape != (d, d):
        raise ModelValidationError(
            f"diffusion must have shape ({d}, {d}), got {sig.shape}")
    if not np.all(np.isfinite(sig)):
        raise ModelValidationError("diffusion contains non-finite entries")

    probes = np.vstack([np.zeros((1, d)),
                        rng.standard_normal(2024, np.arange(4), 0, d) * 0.5])
    a = model.drift_at(probes)
    if not np.all(np.isfinite(a)):
        raise ModelValidationError("drift is non-finite at probe points")
    h = model.obs_at(probes)
    if not np.all(np.isfinite(h)):
        raise ModelValidationError("obs is non-finite at probe points")
    g = model.obs_grad_at(probes)
    if not np.all(np.isfinite(g)):
        raise ModelValidationError("obs gradient is non-finite at probe points")

    if model.drift_matrix is not None:
        F = np.asarray(model.drift_matrix, dtype=float)
        if F.shape != (d, d):
            raise ModelValidationError(
                f"drift_matrix must have shape ({d}, {d}), got {F.shape}")
    if model.obs_vector is not None:
        H = np.asarray(model.obs_vector, dtype=float).reshape(-1)
        if H.shape != (d,):
            raise ModelValidationError(
                f"obs_vector must have shape ({d},), got {H.shape}")


def covariance_sqrt(cov: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Accepts rank-deficient covariances (a zero matrix yields a zero factor,
    so degenerate initial ensembles collapse onto the mean exactly).
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 0:
        cov = cov.reshape(1, 1)
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise ModelValidationError("covariance must be symmetric")
    w, v = np.linalg.eigh(0.5 * (cov + cov.T))
    if np.min(w) < -1e-10 * max(1.0, np.max(np.abs(w))):
        raise ModelValidationError("covariance must be positive semidefinite")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def sample_initial_ensemble(dim: int, n: int, mean, cov,
                            seed) -> ParticleEnsemble:
    """Gaussian ensemble at time 0 with per-particle noise streams 0..N-1;
    a 1-D array of S seeds gives a batch of S ensembles (S, N, d)."""
    if n < 2:
        raise ModelValidationError(f"need at least 2 particles, got {n}")
    mean = np.broadcast_to(np.asarray(mean, dtype=float).reshape(-1), (dim,))
    root = covariance_sqrt(cov)
    if root.shape != (dim, dim):
        raise ModelValidationError(
            f"init covariance must have shape ({dim}, {dim}), got {root.shape}")
    ens = ParticleEnsemble(states=np.empty(np.shape(seed) + (n, dim)),
                           time=0.0, seed=seed,
                           streams=np.arange(n, dtype=np.uint64))
    z = ens.draw_normals(dim)
    ens.states = mean + (_rows(z) @ root.T).reshape(z.shape)
    return ens


def ensemble_stats(ensemble: ParticleEnsemble,
                   obs_fn: Callable[[np.ndarray], np.ndarray]) -> PosteriorStats:
    """Mean, unbiased covariance, and observation average of an ensemble,
    or of each ensemble of a batch.  A batch's sums run over each seed's
    particles in order, so every seed's summary is bit-identical to its
    ensemble's alone."""
    x = ensemble.states
    n = x.shape[-2]
    # sum / n is np.mean's own add.reduce and division, without its
    # per-call overhead
    mean = x.sum(axis=-2) / n
    centered = x - mean[..., None, :]
    cov = centered.swapaxes(-1, -2) @ centered / (n - 1)
    h_vals = np.asarray(obs_fn(x), dtype=float).reshape(x.shape[:-1])
    return PosteriorStats(mean=mean, cov=cov, h_hat=h_vals.sum(axis=-1) / n,
                          h_vals=h_vals)
