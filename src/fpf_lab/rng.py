"""Counter-based Gaussian noise streams.

Every particle owns its own logical stream, keyed by (seed, stream id).  A
draw is addressed by (seed, stream, step, slot) and hashed through a
splitmix64 avalanche, so the value of any draw is a pure function of its
address, independent of scheduling or vectorization order: the uniforms
are the same bits on every platform, the normals are as reproducible as
NumPy's log, sqrt and cos.  Permuting particle labels together with their
stream ids permutes the generated noise identically, which is what makes
ensemble relabeling a symmetry of the filter (exact in the noise; the
ensemble statistics sum in particle order, so states agree to roundoff).

A draw folds its four address words into a splitmix64 state one word at a
time, state = mix(state ^ (word + golden)); uniform01 and standard_normal
share the fold and the map of bits to (0, 1).  Draws that share a (seed,
stream) or (seed, stream, step) prefix share the state after two or three
words, so standard_normal folds the (seed, stream) prefix once per call,
then each step, then the 2 n_slots uniform slots of every (step, stream),
and pairs slots (2j, 2j+1) for Box-Muller.  Because a draw depends on its
address alone, the noise of future steps can be hashed ahead, and the
noise of several seeds hashed together: a 1-D array of K steps and a 1-D
array of S seeds give a (K, S, N, n_slots) block whose row [k, s] is
bit-identical to the call at step[k] and seed[s] alone.  This is the
counter-based design of Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3" (SC'11), with the splitmix64 finalizer as the bijection.
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
    """Fold counter words into the avalanche state acc.  0-d words make
    NumPy scalars, which warn on the uint64 wrap-around; arrays do not."""
    with np.errstate(over="ignore"):
        for w in words:
            acc = _mix(acc ^ (np.asarray(w, dtype=np.uint64) + _GOLDEN))
    return acc


def _unit(bits: np.ndarray) -> np.ndarray:
    """Top 53 bits of each word as a float in the open interval (0, 1);
    shifts bits in place on arrays (callers pass a temporary)."""
    bits >>= _S11
    return bits * _U53 + _HALF_U53


def seed_words(seed) -> np.ndarray:
    """A seed, or a sequence of seeds, as the uint64 word(s) the hash folds:
    each integer modulo 2^64.  A uint64 array is returned as it is."""
    if isinstance(seed, np.ndarray) and seed.dtype == np.uint64:
        return seed
    if isinstance(seed, (list, tuple, np.ndarray)):
        return np.array([int(s) & _MASK64 for s in seed], dtype=np.uint64)
    return np.array(int(seed) & _MASK64, dtype=np.uint64)


def uniform01(seed: int, stream, step: int, slot) -> np.ndarray:
    """Uniform draws in (0, 1) addressed by (seed, stream, step, slot)."""
    return _unit(_fold(_START, seed_words(seed), stream, step, slot))


def standard_normal(seed, stream, step, n_slots: int) -> np.ndarray:
    """Standard-normal draws at one step or a block of steps, for one seed
    or a batch of seeds.

    With an integer step and an integer seed the shape is (len(stream),
    n_slots).  A 1-D array of K steps adds a leading K axis, and a 1-D
    array of S seeds an S axis after it: (K, S, len(stream), n_slots), whose
    row [k, s] equals the call at step[k] and seed[s] bit for bit.  Each
    slot consumes two uniforms (Box-Muller); slot j of a stream uses
    addresses (2j, 2j+1), so widening n_slots never disturbs earlier slots.
    Its uniforms are those of uniform01 at the same addresses.
    """
    stream = np.asarray(stream, dtype=np.uint64).reshape(-1)
    prefix = _fold(_START, seed_words(seed)[..., None], stream)  # ([S,] N)
    # ([K,] [S,] N) steps, then the slots on a leading axis, so that every
    # broadcast runs along the contiguous stream axis
    step = np.asarray(step, dtype=np.uint64)
    step = step.reshape(step.shape + (1,) * prefix.ndim)
    slots = np.arange(2 * n_slots, dtype=np.uint64)
    u = _unit(_fold(prefix, step, slots.reshape((-1,) + (1,) * step.ndim)))
    # Box-Muller in place: as one expression, a block took 3-12% longer
    r, c = u[0::2], u[1::2]
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    c *= 2.0 * np.pi
    np.cos(c, out=c)
    return np.ascontiguousarray(np.moveaxis(r * c, 0, -1))
