"""Densities on a uniform 1-D grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

trapezoid = getattr(np, "trapezoid", None) or np.trapz


class GridNegativityError(ValueError):
    """A grid density developed negative mass beyond roundoff."""


@dataclass
class GridDensity:
    """Probability density sampled on a uniform grid (trapezoid mass)."""

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

    @property
    def mass(self) -> float:
        return float(trapezoid(self.p, self.x))

    def normalize(self) -> "GridDensity":
        m = self.mass
        if not np.isfinite(m) or m <= 0:
            raise GridNegativityError(f"cannot normalize density with mass {m}")
        self.p = self.p / m
        return self

    def mean(self) -> float:
        return float(trapezoid(self.x * self.p, self.x) / self.mass)

    def var(self) -> float:
        m = self.mean()
        return float(trapezoid((self.x - m) ** 2 * self.p, self.x) / self.mass)

    @classmethod
    def gaussian(cls, x: np.ndarray, mean: float, var: float,
                 normalize: bool = True) -> "GridDensity":
        x = np.asarray(x, dtype=float)
        p = np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var)
        return cls(x, p).normalize() if normalize else cls(x, p)


def clip_roundoff_negatives(p: np.ndarray) -> np.ndarray:
    """Zero out negative entries down to -1e-12; larger excursions are
    errors."""
    worst = p.min() if len(p) else 0.0
    if worst < -1e-12:
        raise GridNegativityError(
            f"density went negative ({worst:.3e} < -1e-12)")
    return np.where(p < 0.0, 0.0, p)
