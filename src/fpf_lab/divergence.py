"""f-divergences between densities on a shared 1-D grid.

D_f(p1 || p2) = integral p2(x) f(p1(x)/p2(x)) dx  (trapezoid rule), with the
usual conventions on vanishing denominators:

    p2 ~ 0, p1 ~ 0   -> contributes nothing
    p2 ~ 0, p1 > 0   -> contributes p1 * lim_{s->inf} f(s)/s

"~ 0" means below the mass floor 1e-300.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from .grid import GridDensity, trapezoid

TV_DELTA = 1e-6


@dataclass(frozen=True)
class FGenerator:
    """Convex generator f with f(1) = 0 and its linear growth rate."""

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    inf_slope: float  # lim_{s -> inf} f(s) / s


def _kl_f(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0.0
    out[pos] = s[pos] * np.log(s[pos])
    return out


def _hellinger_f(s: np.ndarray) -> np.ndarray:
    return (np.sqrt(s) - 1.0) ** 2


def _tv_f(s: np.ndarray) -> np.ndarray:
    # smooth total-variation surrogate; hypot keeps f(1) = 0 exact
    return 0.5 * (np.hypot(np.asarray(s, dtype=float) - 1.0, TV_DELTA)
                  - TV_DELTA)


GENERATORS: Dict[str, FGenerator] = {
    "kl": FGenerator("kl", _kl_f, np.inf),
    "hellinger": FGenerator("hellinger", _hellinger_f, 1.0),
    "tv": FGenerator("tv", _tv_f, 0.5),
}

for _gen in GENERATORS.values():
    if float(_gen.f(np.array([1.0]))[0]) != 0.0:
        raise AssertionError(f"generator {_gen.name} has f(1) != 0")
del _gen


def get_generator(name: str) -> FGenerator:
    try:
        return GENERATORS[name]
    except KeyError:
        raise KeyError(f"unknown divergence {name!r}; "
                       f"available: {', '.join(sorted(GENERATORS))}") from None


def f_divergence(p1: np.ndarray, p2: np.ndarray, x: np.ndarray,
                 generator: FGenerator) -> float:
    """D_f(p1 || p2) on a common grid."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    integrand = np.zeros_like(p2)

    support = p2 >= 1e-300
    ratio = np.zeros_like(p2)
    ratio[support] = p1[support] / p2[support]
    integrand[support] = p2[support] * generator.f(ratio[support])

    escaped = ~support & (p1 >= 1e-300)
    if np.any(escaped):
        if np.isinf(generator.inf_slope):
            return float("inf")
        integrand[escaped] = p1[escaped] * generator.inf_slope

    return float(trapezoid(integrand, x))


def f_divergence_grid(d1: GridDensity, d2: GridDensity,
                      generator: FGenerator) -> float:
    if d1.x.shape != d2.x.shape or not np.allclose(d1.x, d2.x):
        raise ValueError("densities must share one grid")
    return f_divergence(d1.p, d2.p, d1.x, generator)


def kde_density(samples: np.ndarray, x: np.ndarray,
                bandwidth: float | None = None) -> GridDensity:
    """Gaussian kernel density estimate on a grid (Silverman bandwidth).

    Args:
        samples: (N,) or (N, 1) draws
        x: evaluation grid
        bandwidth: kernel width; default 1.06 * std * N^(-1/5)
    """
    samples = np.asarray(samples, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float)
    n = len(samples)
    if bandwidth is None:
        bandwidth = 1.06 * np.std(samples, ddof=1) * n ** (-0.2)
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")

    p = np.zeros_like(x)
    norm = 1.0 / (np.sqrt(2.0 * np.pi) * bandwidth * n)
    # blocks of at most 2^16 kernel values bound the temporaries
    rows = max(1, 2 ** 16 // len(x))
    for start in range(0, n, rows):
        block = samples[start:start + rows]
        z = (x[None, :] - block[:, None]) / bandwidth
        p += norm * np.exp(-0.5 * z * z).sum(axis=0)
    return GridDensity(x, p).normalize()
