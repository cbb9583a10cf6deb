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
stream) or (seed, stream, step) prefix share the state after two or three
words, so standard_normal folds the (seed, stream) prefix once per call,
then each step, mixes the 2 n_slots uniform slots of every (step, stream)
in one pass, and pairs slots (2j, 2j+1) for Box-Muller.  Because a draw
depends on its address alone, the noise of future steps can be hashed
ahead, and the noise of several seeds hashed together: a 1-D array of K
steps and a 1-D array of S seeds give a (K, S, N, n_slots) block whose row
[k, s] is bit-identical to the call at step[k] and seed[s] alone.  This is
the counter-based design of Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3" (SC'11), with the splitmix64 finalizer as the bijection.
"""

from __future__ import annotations

import math

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


def _mix(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: bijective avalanche on the uint64 array z, in
    place, each shift written into the scratch array tmp of z's shape."""
    np.right_shift(z, _S30, out=tmp)
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, _S27, out=tmp)
    z ^= tmp
    z *= _MIX2
    np.right_shift(z, _S31, out=tmp)
    z ^= tmp
    return z


def _fold(acc, word, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Fold one counter word into the avalanche state acc, into out: acc
    and word broadcast to out's shape, and tmp is scratch of that shape."""
    np.bitwise_xor(acc, np.asarray(word, dtype=np.uint64) + _GOLDEN, out=out)
    return _mix(out, tmp)


def _unit(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Top 53 bits of each word as a float in the open interval (0, 1),
    into the float64 array out; shifts bits in place.  The shifted words
    are below 2^53, so their int64 view converts exactly."""
    bits >>= _S11
    u = np.multiply(bits.view(np.int64), _U53, out=out)
    u += _HALF_U53
    return u


def _part(buffer: np.ndarray, shape) -> np.ndarray:
    """The leading entries of a contiguous buffer as an array of shape."""
    return buffer.reshape(-1)[:math.prod(shape)].reshape(shape)


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
    words = (seed_words(seed), stream, step, slot)
    z = np.empty(np.broadcast_shapes(*map(np.shape, words)), dtype=np.uint64)
    tmp = np.empty_like(z)
    acc = _START
    for w in words:
        acc = _fold(acc, w, z, tmp)
    return _unit(z, tmp.view(np.float64))


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

    The slot fold, the uniforms and Box-Muller run in place over one words
    array and one scratch array of (2 n_slots, [K,] [S,] N) entries; the
    draws are a view into the scratch unless n_slots > 1 needs a copy.
    """
    stream = np.asarray(stream, dtype=np.uint64).reshape(-1)
    step = np.asarray(step, dtype=np.uint64)
    seed = seed_words(seed)[..., None]
    prefix_shape = step.shape + seed.shape[:-1] + stream.shape  # ([K,] [S,] N)
    # slots lead, so every broadcast runs along the contiguous stream axis
    words = np.empty((2 * n_slots,) + prefix_shape, dtype=np.uint64)
    tmp = np.empty_like(words)
    # the (seed, stream) prefix once, then each step, in leading parts of
    # the two arrays: each fold reads its input from one and writes into
    # the other, and the slot fold reads the last prefix from tmp before
    # its mix overwrites it
    shape = seed.shape[:-1] + stream.shape                       # ([S,] N)
    prefix = _fold(_START, seed, np.empty_like(seed), np.empty_like(seed))
    prefix = _fold(prefix, stream, _part(words, shape), _part(tmp, shape))
    prefix = _fold(prefix, step.reshape(step.shape + (1,) * len(shape)),
                   _part(tmp, prefix_shape), _part(words[1:], prefix_shape))
    slots = np.arange(2 * n_slots, dtype=np.uint64)
    _fold(prefix, slots.reshape((-1,) + (1,) * len(prefix_shape)), words, tmp)
    u = _unit(words, tmp.view(np.float64))
    # Box-Muller in place
    r, c = u[0::2], u[1::2]
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    c *= 2.0 * np.pi
    np.cos(c, out=c)
    r *= c
    return np.ascontiguousarray(np.moveaxis(r, 0, -1))
