"""Counter-based Gaussian noise streams.

Every particle owns its own logical stream, keyed by (seed, stream id).  A
draw is addressed by (seed, stream, step, slot) and hashed through a
splitmix64 avalanche, so the value of any draw is a pure function of its
address: reproducible bit-for-bit across platforms and independent of
scheduling or vectorization order.  Permuting particle labels together with
their stream ids permutes the generated noise identically, which is what
makes ensemble relabeling an exact symmetry of the filter.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# 2^-53 and 2^-54: map the top 53 bits of a uint64 into the open interval (0,1)
_U53 = 1.0 / 9007199254740992.0
_HALF_U53 = _U53 / 2.0


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: bijective avalanche on uint64."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _hash_words(*words) -> np.ndarray:
    """Fold counter words into one avalanche state (vectorized over arrays)."""
    acc = np.uint64(0x243F6A8885A308D3)  # pi fractional bits, arbitrary non-zero
    with np.errstate(over="ignore"):
        for w in words:
            acc = _mix(acc ^ (np.asarray(w, dtype=np.uint64) + _GOLDEN))
    return acc


def uniform01(seed: int, stream, step: int, slot) -> np.ndarray:
    """Uniform draws in (0, 1) addressed by (seed, stream, step, slot)."""
    bits = _hash_words(np.uint64(seed & 0xFFFFFFFFFFFFFFFF), stream, step, slot)
    return (bits >> np.uint64(11)) * _U53 + _HALF_U53


def standard_normal(seed: int, stream, step: int, n_slots: int) -> np.ndarray:
    """Standard-normal draws, shape (len(stream), n_slots).

    Each slot consumes two uniforms (Box-Muller); slot j of a stream uses
    addresses (2j, 2j+1), so widening n_slots never disturbs earlier slots.
    """
    stream = np.asarray(stream, dtype=np.uint64).reshape(-1, 1)
    slots = np.arange(n_slots, dtype=np.uint64).reshape(1, -1)
    u1 = uniform01(seed, stream, step, 2 * slots)
    u2 = uniform01(seed, stream, step, 2 * slots + np.uint64(1))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
