"""Built-in model registry.

Each entry builds a fresh SdeModel; every model's default prior is N(0, I).
Linear models carry their affine metadata (drift_matrix, obs_vector,
obs_offset) so the closed-form gain and the Kalman-Bucy reference are
available.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .model import SdeModel

__all__ = ["available_models", "make_model", "default_prior"]


def _linear1d() -> SdeModel:
    return SdeModel(
        dim=1,
        drift=lambda x: -x,
        diffusion=np.eye(1),
        obs=lambda x: x[:, 0],
        obs_grad=lambda x: np.ones_like(x),
        drift_matrix=np.array([[-1.0]]),
        obs_vector=np.array([1.0]),
        name="linear1d",
    )


def _linear2d() -> SdeModel:
    F = np.array([[-1.0, 0.5],
                  [-0.5, -1.0]])
    return SdeModel(
        dim=2,
        drift=lambda x: x @ F.T,
        diffusion=np.eye(2),
        obs=lambda x: x[:, 0],
        obs_grad=lambda x: np.column_stack(
            [np.ones(len(x)), np.zeros(len(x))]),
        drift_matrix=F,
        obs_vector=np.array([1.0, 0.0]),
        name="linear2d",
    )


def _cubic_sensor() -> SdeModel:
    return SdeModel(
        dim=1,
        drift=lambda x: np.zeros_like(x),
        diffusion=np.eye(1),
        obs=lambda x: x[:, 0] ** 3,
        obs_grad=lambda x: 3.0 * x ** 2,
        name="cubic-sensor",
    )


def _constant_signal() -> SdeModel:
    return SdeModel(
        dim=1,
        drift=lambda x: np.zeros_like(x),
        diffusion=np.zeros((1, 1)),
        obs=lambda x: x[:, 0],
        obs_grad=lambda x: np.ones_like(x),
        drift_matrix=np.array([[0.0]]),
        obs_vector=np.array([1.0]),
        name="constant-signal",
    )


_REGISTRY = {
    "linear1d": _linear1d,
    "linear2d": _linear2d,
    "cubic-sensor": _cubic_sensor,
    "constant-signal": _constant_signal,
}


def available_models() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def make_model(name: str) -> SdeModel:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {', '.join(available_models())}"
        ) from None


def default_prior(name: str) -> Tuple[np.ndarray, np.ndarray]:
    """Default (mean, cov) of the initial Gaussian for a registry model:
    N(0, I) in the model's dimension."""
    dim = make_model(name).dim
    return np.zeros(dim), np.eye(dim)
