"""State-space model and particle-ensemble containers.

The continuous-time model is

    dX_t = a(X_t) dt + sigma_b dB_t        (state, R^d)
    dZ_t = h(X_t) dt + dW_t                (scalar observation path)

with observations delivered in sampled form y_n = h(X_{t_n}) + w_n,
w_n ~ N(0, 1/dt), and increment dz_n = y_n * dt (so Var(dz) = dt and the
continuum limit is recovered as dt -> 0).

An SdeModel holds the polynomials a and h.  Its methods drift_at, obs_at
and obs_grad_at map an ensemble (N, d) to (N, d), (N,) and (N, d), and a
batch of ensembles (S, N, d), one per filter seed, to a leading S axis:
an affine map in one call on its S*N rows, a polynomial by its field,
which gives each seed the bits of its ensemble alone.
The gradient of an affine h is one row H^T, shape (1, d) for any ensemble
or batch, which reaches the particles by broadcasting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import rng
from .fields import Polynomial, PolyScalarField, PolyVectorField


class ModelValidationError(ValueError):
    """A model or ensemble precondition does not hold."""


class FilterAbortError(RuntimeError):
    """The particle flow lost invertibility and the run was configured
    to stop rather than continue past flagged particles, an ensemble or
    simulated path diverged to non-finite states, a Kalman-Bucy step
    left a covariance with a negative eigenvalue, or a compare summary
    value came out non-finite."""


@dataclass(frozen=True)
class SdeModel:
    """Diffusion state model given by its polynomials: `drift` holds one
    Polynomial a_i(x) per state coordinate and `obs` the Polynomial h(x),
    all in the same d variables; `diffusion` is the constant, finite (d, d)
    matrix sigma_b, kept as a copy, and `name` a registry label,
    informational only.  A built model is checked, frozen, and read-only.

    Derived at construction, so that they agree with the polynomials: dim
    d = len(drift); drift_matrix, F of a linear drift a(x) = F x (for the
    Kalman-Bucy reference), else None; obs_vector and obs_offset, H and c
    of an affine h(x) = H^T x + c (for the closed-form gain), else None
    and 0.0; diffusion_t, sigma_b^T (for the Euler-Maruyama noise).
    """

    drift: Sequence[Polynomial]
    obs: Polynomial
    diffusion: np.ndarray
    name: str

    def __post_init__(self):
        d = len(self.drift)
        dims = [p.dim for p in (*self.drift, self.obs)]
        if d < 1 or dims != [d] * (d + 1):
            raise ModelValidationError(
                f"a model needs d >= 1 drift polynomials and every polynomial "
                f"in d variables; got d = {d} and dimensions {dims}")
        sigma = np.array(self.diffusion, dtype=float)
        if sigma.shape != (d, d):
            raise ModelValidationError(
                f"diffusion must have shape ({d}, {d}), got {sigma.shape}")
        if not np.all(np.isfinite(sigma)):
            raise ModelValidationError("diffusion contains non-finite entries")
        rows = [_affine_parts(p) for p in self.drift]
        linear = all(r is not None and r[1] == 0.0 for r in rows)
        drift_matrix = np.vstack([r[0] for r in rows]) if linear else None
        obs_vector, obs_offset = _affine_parts(self.obs) or (None, 0.0)
        drift_t = np.ascontiguousarray(drift_matrix.T) if linear else None
        for table in (sigma, drift_matrix, drift_t, obs_vector):
            if table is not None:
                table.flags.writeable = False
        # frozen: the derived fields bypass __setattr__.  diffusion_t is the
        # transposed view, not a contiguous copy: np.dot with the copy rounds
        # a single row (a truth path) differently from matmul
        vars(self).update(
            drift=tuple(self.drift), dim=d, drift_matrix=drift_matrix,
            _drift_t=drift_t, obs_vector=obs_vector, obs_offset=obs_offset,
            diffusion=sigma, diffusion_t=sigma.T,
            _drift_field=PolyVectorField(self.drift),
            _obs_field=PolyScalarField(self.obs))

    def drift_at(self, states: np.ndarray) -> np.ndarray:
        if self.drift_matrix is None:
            return self._drift_field.value(states)
        flat = _rows(states)
        out = np.dot(flat, self._drift_t)
        return out if flat is states else out.reshape(states.shape)

    def obs_at(self, states: np.ndarray) -> np.ndarray:
        if self.obs_vector is None:
            return self._obs_field.value(states)
        flat = _rows(states)
        out = np.dot(flat, self.obs_vector) + self.obs_offset
        return out if flat is states else out.reshape(states.shape[:-1])

    def obs_grad_at(self, states: np.ndarray) -> np.ndarray:
        """Gradient of h at each state, shape (..., N, d); for an affine h
        the one row H^T, shape (1, d), whatever the states."""
        if self.obs_vector is not None:
            return self.obs_vector[None, :]
        return self._obs_field.grad(states)


def _affine_parts(poly: Polynomial) -> Optional[Tuple[np.ndarray, float]]:
    """(coefficient vector, offset) of an affine polynomial, else None;
    a term whose coefficient is 0 (or -0.0) does not count."""
    degree = poly.exponents.sum(axis=1)
    if np.any(degree[poly.coeffs != 0.0] > 1):
        return None
    return (poly.coeffs[degree == 1] @ poly.exponents[degree == 1],
            float(poly.coeffs[degree == 0].sum()))


def _rows(states: np.ndarray) -> np.ndarray:
    """States (..., d) as one (M, d) array of rows; (M, d) states as
    they are."""
    if states.ndim == 2:
        return states
    return states.reshape(-1, states.shape[-1])


# A noise block holds at most this many steps and this many normals over
# all its S*N streams, in whole Box-Muller pairs of steps (so never less
# than two steps): 64 steps at S*N = 1000, d = 1, 10 for six seeds of 1000
# particles, two beyond 2^15 draws per step.  A refill's temporaries peak
# near three words per normal, about 1.5 MiB, unless two steps alone need
# more.  On a 2-core x86-64 machine the caps 2^13 to 2^17 were within the
# run-to-run spread of each other, for 20 single-seed criterion-1 runs and
# for one six-seed batch alike.
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
    seed, the streams object or n_slots changes.  A block starts at an even
    step and holds an even K, whole pairs of steps that share their
    uniforms, and at most _BLOCK_NORMALS normals over all S*N streams
    unless K = 2, so K shrinks as the batch grows.  Relabeling assigns a
    new streams array rather than editing it in place.  Every draw equals
    the per-step call at the same address, so blocking changes no value.

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
            # whole pairs of steps, so that each pair is hashed once
            start = self.draw_step & ~1
            draws = np.size(self.seed) * len(self.streams) * n_slots
            steps = max(2, min(_BLOCK_STEPS, _BLOCK_NORMALS // draws) & ~1)
            block = rng.standard_normal(self.seed, self.streams,
                                        np.arange(start, start + steps),
                                        n_slots)
            block.flags.writeable = False
            self._block = block
            self._block_key = (start, self.seed, self.streams)
        self.draw_step += 1
        return block[self.draw_step - 1 - start]


class PosteriorStats:
    """Empirical summary of an ensemble under an observation function; a
    batch of S ensembles gives each field, h_hat too, a leading S axis.

    Built from explicit values, or by ensemble_stats from the states
    themselves with mean and cov None: each of the two is then computed
    from the states on its first read and kept, so a reader pays only for
    the moments it reads.  The Galerkin gain reads h_vals and h_hat alone,
    the constant gain the mean too, and the exact gain and the filter's
    trace every field.  The states must not change in place while a
    moment is unread.

    Attributes:
        mean: ([S,] d)
        cov: ([S,] d, d), unbiased (N-1) normalization
        h_hat: mean of h over particles, ([S,]) for a batch
        h_vals: ([S,] N)
    """

    def __init__(self, mean: Optional[np.ndarray], cov: Optional[np.ndarray],
                 h_hat, h_vals: np.ndarray,
                 states: Optional[np.ndarray] = None):
        self._mean, self._cov, self._states = mean, cov, states
        self.h_hat, self.h_vals = h_hat, h_vals

    # plain properties: functools.cached_property takes a lock on each
    # first read, which the exact-gain step, reading both, would pay
    @property
    def mean(self) -> np.ndarray:
        if self._mean is None:
            # add.reduce / n is np.mean's own reduction and division, and
            # ndarray.sum's reduction, without their per-call overhead
            self._mean = (np.add.reduce(self._states, axis=-2)
                          / self._states.shape[-2])
        return self._mean

    @property
    def cov(self) -> np.ndarray:
        if self._cov is None:
            x = self._states
            centered = x - self.mean[..., None, :]
            self._cov = (centered.swapaxes(-1, -2) @ centered
                         / (x.shape[-2] - 1))
        return self._cov


def validate_model(model: SdeModel) -> None:
    """Raise ModelValidationError unless the model is usable.

    A built model already has a finite (d, d) diffusion; this checks the
    finiteness of the drift, h and its gradient at a fixed probe set
    (origin plus a few seeded points in [-1, 1]^d): a huge coefficient can
    still overflow.
    """
    d = model.dim
    probes = np.vstack([np.zeros((1, d)),
                        rng.standard_normal(2024, np.arange(4), 0, d) * 0.5])
    for what, at in (("drift", model.drift_at), ("obs", model.obs_at),
                     ("obs gradient", model.obs_grad_at)):
        if not np.all(np.isfinite(at(probes))):
            raise ModelValidationError(f"{what} is non-finite at probe points")


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
    """Observation values and average of an ensemble, or of each ensemble
    of a batch, with its mean and unbiased covariance computed on first
    read (see PosteriorStats).  A batch's sums run over each seed's
    particles in order, so every seed's summary is bit-identical to its
    ensemble's alone."""
    x = ensemble.states
    h_vals = np.asarray(obs_fn(x), dtype=float).reshape(x.shape[:-1])
    return PosteriorStats(None, None,
                          np.add.reduce(h_vals, axis=-1) / x.shape[-2],
                          h_vals, states=x)
