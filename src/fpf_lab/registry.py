"""Polynomial models: the one model builder and the built-in registry.

Every model is a polynomial drift and observation plus a constant
diffusion sigma, built by `polynomial_model`. The builder derives the
affine metadata (drift_matrix, obs_vector, obs_offset) that the closed-form
gain and the Kalman-Bucy reference need. Built-in default priors are N(0, I).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .fields import Polynomial, PolyScalarField, PolyVectorField
from .model import SdeModel, repeat_view

__all__ = ["available_models", "make_model", "default_prior",
           "polynomial_model"]

# name -> (drift components, observation, sigma times the identity), each
# polynomial a dict {exponents: coefficient}
_REGISTRY = {
    "linear1d": (({(1,): -1.0},), {(1,): 1.0}, 1.0),
    "linear2d": (({(1, 0): -1.0, (0, 1): 0.5},
                  {(1, 0): -0.5, (0, 1): -1.0}), {(1, 0): 1.0}, 1.0),
    "cubic-sensor": (({},), {(3,): 1.0}, 1.0),
    "constant-signal": (({},), {(1,): 1.0}, 0.0),
}


def _affine_parts(poly: Polynomial) -> Optional[Tuple[np.ndarray, float]]:
    """(coefficient vector, offset) when the polynomial is affine, else None."""
    degree = poly.exponents.sum(axis=1)
    if np.any(degree > 1):
        return None
    return (poly.coeffs[degree == 1] @ poly.exponents[degree == 1],
            float(poly.coeffs[degree == 0].sum()))


def polynomial_model(drift_polys: Sequence[Polynomial], obs_poly: Polynomial,
                     sigma: np.ndarray, name: str) -> SdeModel:
    """dX = a(X) dt + sigma dB, dZ = h(X) dt + dW with a_i = drift_polys[i]
    and h = obs_poly. A linear drift a(x) = F x runs as x F^T and an affine
    h(x) = H^T x + c as x H + c; any other part runs from its polynomials."""
    rows = [_affine_parts(p) for p in drift_polys]
    drift_matrix = None
    if all(r is not None and r[1] == 0.0 for r in rows):
        drift_matrix = np.vstack([r[0] for r in rows])
        f_t = np.ascontiguousarray(drift_matrix.T)

        def drift(x):
            return np.dot(x, f_t)
    else:
        drift = PolyVectorField(drift_polys).value

    obs_vector, obs_offset = _affine_parts(obs_poly) or (None, 0.0)
    if obs_vector is None:
        field = PolyScalarField(obs_poly)
        obs, obs_grad = field.value, field.grad
    else:
        def obs(x):
            return np.dot(x, obs_vector) + obs_offset

        def obs_grad(x):
            return repeat_view(obs_vector[None, :], len(x), 0)

    return SdeModel(dim=len(drift_polys), drift=drift, diffusion=sigma,
                    obs=obs, obs_grad=obs_grad, drift_matrix=drift_matrix,
                    obs_vector=obs_vector, obs_offset=obs_offset, name=name)


def available_models() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def _entry(name: str):
    if name not in _REGISTRY:
        raise KeyError(f"unknown model {name!r}; available: "
                       f"{', '.join(available_models())}")
    return _REGISTRY[name]


def make_model(name: str) -> SdeModel:
    drift, obs, sigma = _entry(name)
    dim = len(drift)
    return polynomial_model([Polynomial(dim, p) for p in drift],
                            Polynomial(dim, obs), sigma * np.eye(dim), name)


def default_prior(name: str) -> Tuple[np.ndarray, np.ndarray]:
    """Default (mean, cov) of the initial Gaussian for a registry model:
    N(0, I) in the model's dimension."""
    dim = len(_entry(name)[0])
    return np.zeros(dim), np.eye(dim)
