"""The built-in model registry.

Each entry is a polynomial drift and observation plus a constant diffusion
sigma I, from which `make_model` builds an SdeModel (which derives its own
affine metadata). Built-in default priors are N(0, I).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .fields import Polynomial
from .model import SdeModel

__all__ = ["available_models", "make_model", "default_prior"]

# name -> (drift components, observation, sigma times the identity), each
# polynomial a dict {exponents: coefficient}
_REGISTRY = {
    "linear1d": (({(1,): -1.0},), {(1,): 1.0}, 1.0),
    "linear2d": (({(1, 0): -1.0, (0, 1): 0.5},
                  {(1, 0): -0.5, (0, 1): -1.0}), {(1, 0): 1.0}, 1.0),
    "cubic-sensor": (({},), {(3,): 1.0}, 1.0),
    "constant-signal": (({},), {(1,): 1.0}, 0.0),
}


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
    return SdeModel([Polynomial(dim, p) for p in drift], Polynomial(dim, obs),
                    sigma * np.eye(dim), name)


def default_prior(name: str) -> Tuple[np.ndarray, np.ndarray]:
    """Default (mean, cov) of the initial Gaussian for a registry model:
    N(0, I) in the model's dimension."""
    dim = len(_entry(name)[0])
    return np.zeros(dim), np.eye(dim)
