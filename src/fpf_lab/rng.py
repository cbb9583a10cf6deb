"""Counter-based Gaussian noise streams.

Every particle owns its own logical stream, keyed by (seed, stream id).  A
draw is addressed by (seed, stream, step, slot) and hashed through a
splitmix64 avalanche, so the value of any draw is a pure function of its
address, independent of scheduling or vectorization order: the uniforms
are the same bits on every platform, the normals are as reproducible as
NumPy's log, sqrt and tan.  Permuting particle labels together with their
stream ids permutes the generated noise identically, which is what makes
ensemble relabeling a symmetry of the filter (exact in the noise; the
ensemble statistics sum in particle order, so states agree to roundoff).

A draw folds its four address words into a splitmix64 state one word at a
time, state = mix(state ^ (word + golden)); uniform01 and standard_normal
share the fold and the map of bits to (0, 1].  Draws that share a (seed,
stream) or (seed, stream, step) prefix share the state after two or three
words, so standard_normal folds the (seed, stream) prefix once per call,
then each even step, then the 2 n_slots uniform slots of every (step,
stream).  Because a draw depends on its address alone, the noise of future
steps can be hashed ahead, and the noise of several seeds hashed together:
a 1-D array of K steps and a 1-D array of S seeds give a (K, S, N, n_slots)
block whose row [k, s] is bit-identical to the call at step[k] and seed[s]
alone.  This is the counter-based design of Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3" (SC'11), with the splitmix64 finalizer
as the bijection.

Steps 2m and 2m + 1 share one Box-Muller pair (Box and Muller, Ann. Math.
Stat. 1958): slot j of a stream uses the uniforms u1, u2 at addresses
(seed, stream, 2m, 2j) and (seed, stream, 2m, 2j+1), r = sqrt(-2 ln u1) and
theta = 2 pi (u2 - 1/2), and step 2m draws r cos theta, step 2m + 1 draws
r sin theta.  For independent uniforms, (r cos theta, r sin theta) is a
pair of independent N(0, 1) variates: the density of the point (r, theta)
is r exp(-r^2/2) / (2 pi), that of a standard normal pair in polar form.
So every draw is N(0, 1), draws at different addresses or in the two
halves of a pair are independent, and each is still a pure function of its
own address.  The trigonometry goes through one half-angle tangent,
t = tan(theta / 2) = tan(pi (u2 - 1/2)):

    cos theta = (1 - t^2) / (1 + t^2),    sin theta = 2 t / (1 + t^2).

NumPy's float64 tan is vectorized on x86-64 where its cos and sin are
scalar libm calls, and one tan replaces both.  On 10^6 arguments in
(-pi/2, pi/2) it was within 0.57 ulp of a long-double tan (glibc's scalar
tan: 0.53 ulp), and it gave the same bits for contiguous, strided, small
and 0-d arrays.  At the extreme uniforms every draw stays finite: 2^-54
gives r = 8.7 and t = -3.5e15, and 1, which the all-ones word rounds to,
gives r = 0 and t = 1.6e16.
"""

from __future__ import annotations

import numpy as np

_START = np.uint64(0x243F6A8885A308D3)  # pi's fraction bits; any non-zero
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))

# 2^-53 and 2^-54: map the top 53 bits of a uint64 into (0, 1]; above 1/2
# the sum rounds to even, and only the all-ones word reaches 1
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
    """Top 53 bits of each word as a float in (0, 1];
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
    """Uniform draws in (0, 1] addressed by (seed, stream, step, slot)."""
    return _unit(_fold(_START, seed_words(seed), stream, step, slot))


def standard_normal(seed, stream, step, n_slots: int) -> np.ndarray:
    """Standard-normal draws at one step or a block of steps, for one seed
    or a batch of seeds.

    With an integer step and an integer seed the shape is (len(stream),
    n_slots).  A 1-D array of K consecutive steps adds a leading K axis,
    and a 1-D array of S seeds an S axis after it: (K, S, len(stream),
    n_slots), whose row [k, s] equals the call at step[k] and seed[s] bit
    for bit.  Each slot consumes two uniforms, shared by an even step and
    the odd step after it; slot j of a stream uses addresses (2j, 2j+1), so
    widening n_slots never disturbs earlier slots.  Its uniforms are those
    of uniform01 at the same addresses.  A block that starts at an even step
    and holds an even number of steps hashes each pair once.
    """
    stream = np.asarray(stream, dtype=np.uint64).reshape(-1)
    prefix = _fold(_START, seed_words(seed)[..., None], stream)  # ([S,] N)
    step = np.asarray(step, dtype=np.uint64)
    if step.ndim and (np.diff(step) != 1).any():
        raise ValueError("a block of steps must be consecutive")
    first = int(step.reshape(-1)[0])
    # the even steps of the pairs, then the slots on a leading axis, so
    # that every broadcast runs along the contiguous stream axis
    pairs = np.arange(first & ~1, first + step.size, 2, dtype=np.uint64)
    pairs = pairs.reshape((-1,) + (1,) * prefix.ndim)
    slots = np.arange(2 * n_slots, dtype=np.uint64)
    u = _unit(_fold(prefix, pairs, slots.reshape((-1,) + (1,) * pairs.ndim)))
    # Box-Muller in place, the even steps' draws next to the odd ones'
    r, t = u[0::2], u[1::2]
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t -= 0.5
    t *= np.pi
    np.tan(t, out=t)
    z = np.empty((n_slots, len(pairs), 2) + prefix.shape)
    even, odd = z[:, :, 0], z[:, :, 1]
    np.multiply(t, t, out=even)
    np.add(even, 1.0, out=odd)
    r /= odd                                        # r / (1 + t^2)
    np.subtract(1.0, even, out=even)
    even *= r
    np.multiply(r, t, out=odd)
    odd *= 2.0
    z = z.reshape((n_slots, -1) + prefix.shape)
    z = (z[:, first & 1] if step.ndim == 0
         else z[:, first & 1:(first & 1) + step.size])
    return np.ascontiguousarray(np.moveaxis(z, 0, -1))
