"""Densities on a uniform 1-D grid."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

trapezoid = getattr(np, "trapezoid", None) or np.trapz


class GridNegativityError(ValueError):
    """A grid density developed negative or non-finite mass beyond
    roundoff, or the grid step that would carry it is singular."""


@dataclass
class GridDensity:
    """Probability density sampled on a fixed uniform grid x (trapezoid
    mass). Every integral is np.trapezoid's own formula over the cell
    widths of x, computed once; moments() takes the mean and the variance
    from one mass and one mean, bit for bit what mean() and var() give."""

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.p.shape:
            raise ValueError("x and p must be 1-D arrays of equal length")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @cached_property
    def _widths(self) -> np.ndarray:
        return np.diff(self.x)

    def _integral(self, y: np.ndarray) -> float:
        """trapezoid(y, x)."""
        return float((self._widths * (y[1:] + y[:-1]) / 2.0).sum())

    @property
    def mass(self) -> float:
        return self._integral(self.p)

    def normalize(self) -> "GridDensity":
        m = self.mass
        if not np.isfinite(m) or m <= 0:
            raise GridNegativityError(f"cannot normalize density with mass {m}")
        self.p = self.p / m
        return self

    def moments(self) -> Tuple[float, float]:
        """(mean, variance)."""
        mass = self.mass
        mean = self._integral(self.x * self.p) / mass
        return mean, self._integral((self.x - mean) ** 2 * self.p) / mass

    def mean(self) -> float:
        return self._integral(self.x * self.p) / self.mass

    def var(self) -> float:
        return self.moments()[1]

    @classmethod
    def gaussian(cls, x: np.ndarray, mean: float, var: float,
                 normalize: bool = True) -> "GridDensity":
        x = np.asarray(x, dtype=float)
        p = np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var)
        return cls(x, p).normalize() if normalize else cls(x, p)


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid integral of y over x from x[0] to each node, 0 at x[0]:
    scipy.integrate.cumulative_trapezoid(y, x, initial=0.0)'s formula, so
    its bytes too."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    out[1:] = np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)
    return out


def clip_roundoff_negatives(p: np.ndarray) -> np.ndarray:
    """Zero out negative entries down to -1e-12; larger excursions are
    errors."""
    worst = p.min() if len(p) else 0.0
    if worst < -1e-12:
        raise GridNegativityError(
            f"density went negative ({worst:.3e} < -1e-12)")
    return np.where(p < 0.0, 0.0, p)
