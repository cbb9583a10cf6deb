"""Counter-based Gaussian noise streams.

Every particle owns its own logical stream, keyed by (seed, stream id).  A
draw is addressed by (seed, stream, step, slot) and hashed through a
splitmix64 avalanche, so the value of any draw is a pure function of its
address: reproducible bit-for-bit across platforms and independent of
scheduling or vectorization order.  Permuting particle labels together with
their stream ids permutes the generated noise identically, which is what
makes ensemble relabeling a symmetry of the filter (exact in the noise; the
ensemble statistics sum in particle order, so states agree to roundoff).

A draw folds its four address words into a splitmix64 state one word at a
time, state = mix(state ^ (word + golden)).  Draws that share a (seed,
stream, step) prefix share the state after three words, so standard_normal
folds that prefix once per call, mixes the 2 n_slots uniform slots of every
stream in one (N, 2 n_slots) pass, and pairs slots (2j, 2j+1) for
Box-Muller.  This is the counter-based design of Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3" (SC'11), with the splitmix64 finalizer
as the bijection.
"""

from __future__ import annotations

import numpy as np

_START = np.uint64(0x243F6A8885A308D3)  # pi's fraction bits; any non-zero
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))

# 2^-53 and 2^-54: map the top 53 bits of a uint64 into the open interval (0,1)
_U53 = 1.0 / 9007199254740992.0
_HALF_U53 = _U53 / 2.0


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: bijective avalanche on uint64, in place on
    arrays (callers pass a temporary)."""
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


def _fold(acc, *words) -> np.ndarray:
    """Fold counter words into the avalanche state acc (vectorized)."""
    with np.errstate(over="ignore"):
        for w in words:
            acc = _mix(acc ^ (np.asarray(w, dtype=np.uint64) + _GOLDEN))
    return acc


def _unit(bits: np.ndarray) -> np.ndarray:
    """Top 53 bits of each word as a float in the open interval (0, 1)."""
    return (bits >> _S11) * _U53 + _HALF_U53


def uniform01(seed: int, stream, step: int, slot) -> np.ndarray:
    """Uniform draws in (0, 1) addressed by (seed, stream, step, slot)."""
    return _unit(_fold(_START, np.uint64(seed & _MASK64), stream, step, slot))


def standard_normal(seed: int, stream, step: int, n_slots: int) -> np.ndarray:
    """Standard-normal draws, shape (len(stream), n_slots).

    Each slot consumes two uniforms (Box-Muller); slot j of a stream uses
    addresses (2j, 2j+1), so widening n_slots never disturbs earlier slots.
    Its uniforms are those of uniform01 at the same addresses.
    """
    stream = np.asarray(stream, dtype=np.uint64).reshape(-1, 1)
    prefix = _fold(_START, np.uint64(seed & _MASK64), stream, step)
    u = _unit(_fold(prefix, np.arange(2 * n_slots, dtype=np.uint64)))
    u1, u2 = u[:, 0::2], u[:, 1::2]
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
