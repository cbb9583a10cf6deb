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
# a KDE kernel is cut at this many bandwidths from its sample
KDE_REACH = 8.0


@dataclass(frozen=True)
class FGenerator:
    """Convex generator f with f(1) = 0, its first and second derivatives
    and its linear growth rate. fp is analytic in s, so it also takes
    complex s, as a complex-step derivative does."""

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    fp: Callable[[np.ndarray], np.ndarray]
    fpp: Callable[[np.ndarray], np.ndarray]
    inf_slope: float  # lim_{s -> inf} f(s) / s


def _kl_f(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0.0
    out[pos] = s[pos] * np.log(s[pos])
    return out


def _kl_fp(s: np.ndarray) -> np.ndarray:
    return np.log(s) + 1.0


def _kl_fpp(s: np.ndarray) -> np.ndarray:
    return 1.0 / np.asarray(s)


def _hellinger_f(s: np.ndarray) -> np.ndarray:
    return (np.sqrt(s) - 1.0) ** 2


def _hellinger_fp(s: np.ndarray) -> np.ndarray:
    return 1.0 - 1.0 / np.sqrt(s)


def _hellinger_fpp(s: np.ndarray) -> np.ndarray:
    return 0.5 * np.asarray(s) ** -1.5


def _tv_f(s: np.ndarray) -> np.ndarray:
    # smooth total-variation surrogate; hypot keeps f(1) = 0 exact
    return 0.5 * (np.hypot(np.asarray(s, dtype=float) - 1.0, TV_DELTA)
                  - TV_DELTA)


def _tv_fp(s: np.ndarray) -> np.ndarray:
    """t / (2 sqrt(t^2 + delta^2)) at t = s - 1, as sign(t) / (2 sqrt(1 +
    (delta/t)^2)): at complex t with |t| >> delta the first form cancels in
    its imaginary part, the second does not. sign reads t.real, since
    np.sign of a complex t is t/|t|; where t.real is 0 exactly, f' is
    t / (2 delta) to O(t^3), and 0 at s = 1."""
    t = np.asarray(s) - 1.0
    flat = t.real == 0.0
    r = TV_DELTA / np.where(flat, 1.0, t)
    return np.where(flat, t / (2.0 * TV_DELTA),
                    0.5 * np.sign(t.real) / np.sqrt(1.0 + r * r))


def _tv_fpp(s: np.ndarray) -> np.ndarray:
    t = np.asarray(s) - 1.0
    return 0.5 * TV_DELTA ** 2 / (t * t + TV_DELTA ** 2) ** 1.5


GENERATORS: Dict[str, FGenerator] = {
    "kl": FGenerator("kl", _kl_f, _kl_fp, _kl_fpp, np.inf),
    "hellinger": FGenerator("hellinger", _hellinger_f, _hellinger_fp,
                            _hellinger_fpp, 1.0),
    "tv": FGenerator("tv", _tv_f, _tv_fp, _tv_fpp, 0.5),
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

    Each sample's kernel is evaluated only at the grid points within
    KDE_REACH bandwidths of it, where it is above exp(-32) = 1.3e-14 of its
    peak, and is exactly 0 beyond: far from every sample the estimate is
    0, not an underflowing tail, as a grid density that underflows there
    is.

    Args:
        samples: (N,) or (N, 1) draws
        x: evaluation grid, ascending
        bandwidth: kernel width; default 1.06 * std * N^(-1/5)
    """
    samples = np.asarray(samples, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float)
    n = len(samples)
    if bandwidth is None:
        bandwidth = 1.06 * np.std(samples, ddof=1) * n ** (-0.2)
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")

    # each sample's window [lo, hi) of grid points, read through one
    # fixed-width window of the widest's length
    lo = np.searchsorted(x, samples - KDE_REACH * bandwidth)
    hi = np.searchsorted(x, samples + KDE_REACH * bandwidth, side="right")
    width = np.arange(max(1, int((hi - lo).max(initial=0))))
    p = np.zeros_like(x)
    # blocks of at most 2^16 kernel values bound the temporaries
    rows = max(1, 2 ** 16 // len(width))
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        idx = lo[block, None] + width
        inside = idx < hi[block, None]
        idx[~inside] = 0
        z = (x[idx] - samples[block, None]) / bandwidth
        p += np.bincount(idx.ravel(), (np.exp(-0.5 * z * z) * inside).ravel(),
                         len(x))
    p *= 1.0 / (np.sqrt(2.0 * np.pi) * bandwidth * n)
    return GridDensity(x, p).normalize()
