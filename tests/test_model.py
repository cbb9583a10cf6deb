"""Tests for the model containers, noise streams, and ensemble statistics."""

import hashlib
import math
from dataclasses import FrozenInstanceError
from unittest import mock

import numpy as np
import pytest

from fpf_lab import model as model_module
from fpf_lab import (
    ModelValidationError,
    ParticleEnsemble,
    SdeModel,
    covariance_sqrt,
    ensemble_stats,
    make_model,
    sample_initial_ensemble,
    validate_model,
)
from fpf_lab import rng as noise
from fpf_lab.config import load_config, parse_polynomial
from fpf_lab.fields import Polynomial, PolyScalarField, PolyVectorField
from fpf_lab.registry import _REGISTRY
from test_golden import CONFIG, MODELS


def _oracle_uniform01(seed, stream, step, slot):
    """The per-uniform hash: every uniform folds all four address words
    (seed, stream, step, slot) through the splitmix64 finalizer."""
    acc = np.uint64(0x243F6A8885A308D3)
    with np.errstate(over="ignore"):
        for w in (np.uint64(seed & 0xFFFFFFFFFFFFFFFF), stream, step, slot):
            z = acc ^ (np.asarray(w, dtype=np.uint64)
                       + np.uint64(0x9E3779B97F4A7C15))
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            acc = z ^ (z >> np.uint64(31))
    return (acc >> np.uint64(11)) * 2.0 ** -53 + 2.0 ** -54


def _oracle_standard_normal(seed, stream, step, n_slots):
    """The paired Box-Muller draw, over uniforms hashed one at a time: slot
    j at step k takes the uniforms (2j, 2j+1) of step 2*(k // 2), and the
    even step of the pair draws r cos theta, the odd one r sin theta, with
    theta = 2 pi (u2 - 1/2) through t = tan(theta / 2)."""
    stream = np.asarray(stream, dtype=np.uint64).reshape(-1, 1)
    slots = np.arange(n_slots, dtype=np.uint64).reshape(1, -1)
    step = np.asarray(step, dtype=np.uint64)
    even = step - step % np.uint64(2)
    u1 = _oracle_uniform01(seed, stream, even, 2 * slots)
    u2 = _oracle_uniform01(seed, stream, even, 2 * slots + np.uint64(1))
    r = np.sqrt(-2.0 * np.log(u1))
    t = np.tan(np.pi * (u2 - 0.5))
    s = r / (1.0 + t * t)
    return np.where(step % np.uint64(2) == 0, (1.0 - t * t) * s,
                    2.0 * (s * t))


class TestNoiseStreams:
    """Counter-based draws are pure functions of their (seed, stream,
    step, slot) address."""

    def test_bit_reproducible(self):
        streams = np.arange(8, dtype=np.uint64)
        a = noise.standard_normal(42, streams, step=3, n_slots=4)
        b = noise.standard_normal(42, streams, step=3, n_slots=4)
        np.testing.assert_array_equal(a, b)

    def test_widening_slots_preserves_prefix(self):
        """Asking for more slots never changes the values of earlier slots."""
        streams = np.arange(5, dtype=np.uint64)
        narrow = noise.standard_normal(7, streams, step=0, n_slots=2)
        wide = noise.standard_normal(7, streams, step=0, n_slots=6)
        np.testing.assert_array_equal(wide[:, :2], narrow)

    def test_permuting_streams_permutes_draws(self):
        """Relabeling particles together with their stream ids is an exact
        symmetry of the noise source."""
        streams = np.arange(16, dtype=np.uint64)
        perm = np.random.default_rng(0).permutation(16)
        direct = noise.standard_normal(11, streams[perm], step=2, n_slots=3)
        permuted = noise.standard_normal(11, streams, step=2, n_slots=3)[perm]
        np.testing.assert_array_equal(direct, permuted)

    def test_addresses_decorrelate(self):
        """Different seeds / steps give unrelated draws with sane moments."""
        streams = np.arange(20000, dtype=np.uint64)
        a = noise.standard_normal(1, streams, step=0, n_slots=1)[:, 0]
        b = noise.standard_normal(2, streams, step=0, n_slots=1)[:, 0]
        assert abs(np.mean(a)) < 0.03
        assert abs(np.std(a) - 1.0) < 0.03
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.03

    def test_uniform01_open_interval(self):
        streams = np.arange(100000, dtype=np.uint64)
        u = noise.uniform01(9, streams, 0, np.uint64(0))
        assert np.all(u > 0.0)
        assert np.all(u < 1.0)

    def test_all_ones_word_is_exactly_one(self):
        """The top 53 bits of 2^64 - 1 are (2^53 - 1) 2^-53, and adding
        2^-54 rounds to even, to 1.0: uniform01 draws from (0, 1]. The
        all-zeros word gives the smallest draw, 2^-54."""
        words = np.array([2 ** 64 - 1, 0], dtype=np.uint64)
        u = noise._unit(words.copy())
        assert u[0] == 1.0
        assert u[1] == 2.0 ** -54

    @pytest.mark.parametrize("seed", [0, 5, 2 ** 63 + 7])
    @pytest.mark.parametrize("streams", [
        np.random.default_rng(1).permutation(40).astype(np.uint64),
        np.arange(3, 300, 7, dtype=np.uint64)[::-1],
        np.arange(60, dtype=np.uint64)[::3],
    ], ids=["permuted", "gapped", "strided"])
    @pytest.mark.parametrize("step", [0, 11])
    def test_matches_per_uniform_hash(self, seed, streams, step):
        """standard_normal hashes the (seed, stream, step) prefix once per
        call; its draws, and uniform01's, are bit-equal to the per-uniform
        hash of all four address words."""
        for n_slots in range(1, 7):
            np.testing.assert_array_equal(
                noise.standard_normal(seed, streams, step, n_slots),
                _oracle_standard_normal(seed, streams, step, n_slots))
        column = streams.reshape(-1, 1)
        slots = np.arange(4, dtype=np.uint64)
        np.testing.assert_array_equal(
            noise.uniform01(seed, column, step, slots),
            _oracle_uniform01(seed, column, step, slots))

    def test_seed_step_block_matches_per_uniform_hash(self):
        """A (K, S, N, 3) block of several steps and seeds on strided
        streams is bit-equal to the per-uniform hash with Box-Muller."""
        seeds = np.array([2 ** 64 - 1, 0, 13], dtype=np.uint64)
        streams = np.arange(3, 300, 7, dtype=np.uint64)[::-2]
        steps = np.arange(4, 9)
        block = noise.standard_normal(seeds, streams, steps, 3)
        assert block.shape == (len(steps), len(seeds), len(streams), 3)
        np.testing.assert_array_equal(
            block, _oracle_standard_normal(seeds.reshape(-1, 1, 1), streams,
                                           steps.reshape(-1, 1, 1, 1), 3))
        with pytest.raises(ValueError, match="consecutive"):
            noise.standard_normal(seeds, streams, steps[::2], 3)

    def test_pair_halves_are_cosine_and_sine(self):
        """Steps 2m and 2m+1 draw r cos theta and r sin theta of the
        uniforms hashed at step 2m, to roundoff of the half-angle form."""
        streams = np.arange(500, dtype=np.uint64).reshape(-1, 1)
        slots = np.arange(2, dtype=np.uint64)
        z = noise.standard_normal(21, streams, np.arange(6, 8), 2)
        r = np.sqrt(-2.0 * np.log(noise.uniform01(21, streams, 6, 2 * slots)))
        theta = 2.0 * np.pi * (
            noise.uniform01(21, streams, 6, 2 * slots + np.uint64(1)) - 0.5)
        np.testing.assert_allclose(z[0], r * np.cos(theta), rtol=0,
                                   atol=1e-13)
        np.testing.assert_allclose(z[1], r * np.sin(theta), rtol=0,
                                   atol=1e-13)

    def test_extreme_uniforms_give_finite_draws(self):
        """The smallest and largest uniforms the hash can give, 2^-54 (all
        bits zero) and 1 (all bits one, rounded up), in either place of a
        pair, give finite draws on a circle of radius r at both steps."""
        lo, hi = noise._unit(np.array([0, 2 ** 64 - 1], dtype=np.uint64))
        assert (lo, hi) == (2.0 ** -54, 1.0)
        pairs = np.array([(lo, lo), (lo, hi), (hi, lo), (hi, hi),
                          (lo, 0.5), (0.5, hi), (0.5, lo)])  # (u1, u2)
        with mock.patch.object(noise, "_unit", lambda bits: np.broadcast_to(
                pairs.T[:, None, :], bits.shape).copy()):
            z = noise.standard_normal(3, np.arange(len(pairs)),
                                      np.arange(2), 1)[..., 0]
        assert np.isfinite(z).all()
        np.testing.assert_allclose(np.hypot(z[0], z[1]),
                                   np.sqrt(-2.0 * np.log(pairs[:, 0])),
                                   rtol=1e-15)
        np.testing.assert_allclose(
            z[0], np.sqrt(-2.0 * np.log(pairs[:, 0]))
            * np.cos(2.0 * np.pi * (pairs[:, 1] - 0.5)), rtol=0, atol=1e-15)

    def test_moments_lags_and_ks(self):
        """262,144 draws (64 steps of 2,048 streams, 2 slots) have the
        moments of N(0, 1), uncorrelated pair halves and squares of pair
        halves, and each half of the pairs passes Kolmogorov-Smirnov
        against the normal cdf.  Each statistic is scaled to unit spread;
        over seeds 0-39 the largest scaled moment or lag was 2.4 and the
        largest sqrt(n) D 1.43, so the bounds are 5 and 1.95 (the 0.1%
        point of Kolmogorov's law)."""
        z = noise.standard_normal(2026, np.arange(2048), np.arange(64), 2)
        n = z.size
        assert abs(z.mean()) * np.sqrt(n) < 5.0
        assert abs(z.var() - 1.0) * np.sqrt(n / 2.0) < 5.0
        assert abs(np.mean(z ** 4) - 3.0) * np.sqrt(n / 96.0) < 5.0
        even, odd = z[0::2], z[1::2]
        assert abs(np.mean(even * odd)) * np.sqrt(n / 2) < 5.0
        assert (abs(np.mean((even ** 2 - 1.0) * (odd ** 2 - 1.0)))
                * np.sqrt(n / 2) / 2.0 < 5.0)
        cdf = np.frompyfunc(lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2))),
                            1, 1)
        for half in (even, odd):
            x = np.sort(half, axis=None)
            f = cdf(x).astype(float)
            k = np.arange(x.size + 1) / x.size
            d = max(np.max(k[1:] - f), np.max(f - k[:-1]))
            assert d * np.sqrt(x.size) < 1.95

    @pytest.mark.parametrize("n", [1, 7, 1000])
    @pytest.mark.parametrize("n_slots", [1, 2, 3])
    def test_step_blocks_match_per_step_hash(self, n, n_slots):
        """An array of steps gives one (K, N, n_slots) block whose rows are
        the per-step draws, and draw_normals serves the same values from
        its cached blocks across block boundaries."""
        seed = 2 ** 63 + 5
        streams = np.random.default_rng(n).permutation(n).astype(np.uint64)
        steps = np.arange(9, 20)
        block = noise.standard_normal(seed, streams, steps, n_slots)
        assert block.shape == (len(steps), n, n_slots)
        for z, step in zip(block, steps):
            np.testing.assert_array_equal(
                z, noise.standard_normal(seed, streams, int(step), n_slots))
            np.testing.assert_array_equal(
                z, _oracle_standard_normal(seed, streams, step, n_slots))

        per_block = max(2, min(model_module._BLOCK_STEPS,
                               model_module._BLOCK_NORMALS // (n * n_slots))
                        & ~1)
        ens = ParticleEnsemble(states=np.zeros((n, n_slots)), time=0.0,
                               seed=seed, streams=streams, draw_step=3)
        with mock.patch.object(noise, "standard_normal",
                               wraps=noise.standard_normal) as hashed:
            for step in range(3, 3 + 2 * per_block + 1):
                np.testing.assert_array_equal(
                    ens.draw_normals(n_slots),
                    _oracle_standard_normal(seed, streams, step, n_slots))
        assert hashed.call_count == 3

    @pytest.mark.parametrize("n, n_slots", [(1, 1), (7, 2), (1000, 1)])
    def test_seed_batches_match_per_seed_hash(self, n, n_slots):
        """An array of S seeds adds an S axis after the step axis: a
        (K, S, N, n_slots) block whose row [k, s] is the call at step[k]
        and seed[s] alone; a batched ensemble serves the same rows, and
        its block holds at most _BLOCK_NORMALS normals over all S*N
        streams."""
        seeds = np.array([2 ** 64 - 1, 0, 13], dtype=np.uint64)
        streams = np.random.default_rng(n).permutation(n).astype(np.uint64)
        steps = np.arange(4, 9)
        block = noise.standard_normal(seeds, streams, steps, n_slots)
        assert block.shape == (len(steps), len(seeds), n, n_slots)
        for k, step in enumerate(steps):
            for s, seed in enumerate(seeds):
                np.testing.assert_array_equal(
                    block[k, s],
                    noise.standard_normal(int(seed), streams, int(step),
                                          n_slots))
        np.testing.assert_array_equal(
            noise.standard_normal(seeds, streams, 6, n_slots), block[2])
        np.testing.assert_array_equal(
            noise.standard_normal([-1, 0, 13], streams, 6, n_slots),
            block[2])

        ens = ParticleEnsemble(states=np.zeros((len(seeds), n, n_slots)),
                               time=0.0, seed=seeds, streams=streams,
                               draw_step=4)
        for k in range(len(steps)):
            np.testing.assert_array_equal(ens.draw_normals(n_slots),
                                          block[k])
            assert ens._block.size <= max(model_module._BLOCK_NORMALS,
                                          len(seeds) * n * n_slots)

    def test_block_refills_on_new_address(self):
        """A new streams array, seed or slot count mid-run refills the
        block; the served draws are those of the new address."""
        streams = np.arange(6, dtype=np.uint64)
        ens = ParticleEnsemble(states=np.zeros((6, 1)), time=0.0, seed=4,
                               streams=streams)
        ens.draw_normals(1)
        ens.streams = streams[[3, 1, 5, 0, 2, 4]]
        np.testing.assert_array_equal(
            ens.draw_normals(1), noise.standard_normal(4, ens.streams, 1, 1))
        ens.seed = 8
        np.testing.assert_array_equal(
            ens.draw_normals(1), noise.standard_normal(8, ens.streams, 2, 1))
        np.testing.assert_array_equal(
            ens.draw_normals(2), noise.standard_normal(8, ens.streams, 3, 2))
        ens.draw_step = 0
        z = ens.draw_normals(2)
        np.testing.assert_array_equal(
            z, noise.standard_normal(8, ens.streams, 0, 2))
        with pytest.raises(ValueError):
            z[0, 0] = 0.0  # a view into the block must not edit it

    @pytest.mark.parametrize("seed", [4, [4, 9, 2 ** 64 - 1]])
    @pytest.mark.parametrize("change", ["streams", "n_slots"])
    def test_refill_at_odd_step_serves_per_step_draws(self, seed, change):
        """A refill that lands on an odd draw_step starts its block at the
        even step before it and holds whole pairs; every draw it serves,
        across later block boundaries too, is the per-step call's."""
        n, n_slots = 12000, 2     # at most 2^16 normals: 2-step blocks
        streams = np.arange(n, dtype=np.uint64)
        ens = ParticleEnsemble(states=np.zeros(np.shape(seed) + (n, 1)),
                               time=0.0, seed=seed, streams=streams)
        for _ in range(3):
            ens.draw_normals(n_slots)
        if change == "streams":
            ens.streams = np.random.default_rng(3).permutation(streams)
        else:
            n_slots = 3
        with mock.patch.object(noise, "standard_normal",
                               wraps=noise.standard_normal) as hashed:
            for step in range(3, 10):
                np.testing.assert_array_equal(
                    ens.draw_normals(n_slots),
                    noise.standard_normal(seed, ens.streams, step, n_slots))
                start = ens._block_key[0]
                assert start % 2 == 0 and len(ens._block) % 2 == 0
                assert start <= step < start + len(ens._block)
        # the block refills at steps 3, 4, 6 and 8, besides the 7 checks
        assert hashed.call_count == 7 + 4

    def test_draw_normals_advances_step(self):
        ens = ParticleEnsemble(states=np.zeros((4, 1)), time=0.0, seed=5,
                               streams=np.arange(4, dtype=np.uint64))
        first = ens.draw_normals(1)
        second = ens.draw_normals(1)
        assert ens.draw_step == 2
        assert not np.array_equal(first, second)


_STRIDED = np.arange(3, 300, 7, dtype=np.uint64)[::-2]
_PERMUTED = np.random.default_rng(5).permutation(61).astype(np.uint64)

# Each call at an address shape the golden corpus does not reach, and the
# sha256 of its float64 bytes.  The uniform01 digests were taken from the
# hash before its in-place scratch arrays were removed, the standard_normal
# ones when steps began to share Box-Muller pairs; any change to the hash,
# in standard_normal and uniform01 alike, moves them.
NOISE_BYTES = {
    "int-seed-steps": (
        lambda: noise.standard_normal(42, np.arange(64), np.arange(5, 13), 2),
        (8, 64, 2),
        "20c6380ebfc6b3f14fcb99d9a493e2c3ccf0ce7448d7d7b10aa6d08407d728ea"),
    "seed-batch-3-slots": (
        lambda: noise.standard_normal([7, 2 ** 63 + 1, 0], np.arange(50),
                                      np.arange(2, 5), 3),
        (3, 3, 50, 3),
        "ed509c273adc3b6a3bb7a639c2cc4931a832c092235320420095ed029b7df0cd"),
    "permuted-streams": (
        lambda: noise.standard_normal(11, _PERMUTED, np.arange(3), 2),
        (3, 61, 2),
        "993f83c40b4c6c430ff38a33bfe3b314b6265e8c1585ae53a6b7eda9151b1aaa"),
    "strided-streams": (
        lambda: noise.standard_normal([3, 4], _STRIDED, 6, 2),
        (2, len(_STRIDED), 2),
        "874962ceab8338b3f928eba31270bbc586554be53684cff6ab5874b49a4006cf"),
    "max-seed": (
        lambda: noise.standard_normal(2 ** 64 - 1, np.arange(40),
                                      np.arange(4), 1),
        (4, 40, 1),
        "154f8c590b5193366944bbf8b9a073e038ed728457e3ebf67b999e5d3264028a"),
    "scalar-step": (
        lambda: noise.standard_normal(5, np.arange(33), 17, 4),
        (33, 4),
        "c40aae9c3d2ab1502b5c19fa9ba7dbeb75f4802a93c4ae1ac09173b194c1c354"),
    "uniform-resample-address": (
        lambda: noise.uniform01(13, np.uint64(0xFFFFFFFF), 250,
                                np.uint64(0)),
        (),
        "1896240d010972f005a95e19d09101962586f380ddfee26a0b732477de56e3b0"),
    "uniform-broadcast": (
        lambda: noise.uniform01([9], np.arange(30).reshape(-1, 1, 1),
                                np.arange(4).reshape(-1, 1),
                                np.arange(5, dtype=np.uint64)),
        (30, 4, 5),
        "b97288519fc6c9457cff938d54ea2a2507e58a9491e87c1b8e1b91a2644e31f8"),
}


@pytest.mark.parametrize("case", sorted(NOISE_BYTES))
def test_noise_bytes_pinned(case):
    """The noise hash gives the same bits at every address shape: the
    digests below hold for standard_normal and uniform01 at once, which
    the golden CLI digests alone would not show to drift together."""
    call, shape, digest = NOISE_BYTES[case]
    draws = np.asarray(call())
    assert draws.shape == shape
    assert draws.dtype == np.float64
    assert hashlib.sha256(draws.tobytes()).hexdigest() == digest


class TestSampleInitialEnsemble:
    def test_reproducible(self):
        a = sample_initial_ensemble(2, 50, [0.0, 1.0], np.eye(2), seed=3)
        b = sample_initial_ensemble(2, 50, [0.0, 1.0], np.eye(2), seed=3)
        np.testing.assert_array_equal(a.states, b.states)
        assert a.draw_step == 1  # the init draw consumed step 0

    def test_moments(self):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        ens = sample_initial_ensemble(2, 200000, [1.0, -2.0], cov, seed=8)
        np.testing.assert_allclose(ens.states.mean(axis=0), [1.0, -2.0],
                                   atol=0.02)
        np.testing.assert_allclose(np.cov(ens.states.T), cov, atol=0.03)

    def test_degenerate_covariance_collapses_exactly(self):
        """A zero covariance puts every particle exactly on the mean."""
        ens = sample_initial_ensemble(2, 10, [0.5, -0.5], np.zeros((2, 2)),
                                      seed=1)
        np.testing.assert_array_equal(
            ens.states, np.tile([0.5, -0.5], (10, 1)))

    def test_too_few_particles(self):
        with pytest.raises(ModelValidationError):
            sample_initial_ensemble(1, 1, [0.0], [[1.0]], seed=0)


class TestEnsembleStats:
    def test_permutation_invariant(self):
        """Summaries depend on the empirical measure, not particle labels."""
        gen = np.random.default_rng(42)
        states = gen.normal(size=(300, 3))
        perm = gen.permutation(300)
        ens_a = ParticleEnsemble(states=states, time=0.0, seed=0,
                                 streams=np.arange(300, dtype=np.uint64))
        ens_b = ParticleEnsemble(states=states[perm], time=0.0, seed=0,
                                 streams=np.arange(300, dtype=np.uint64))
        obs = lambda s: s[:, 0] ** 2 + s[:, 1]
        sa = ensemble_stats(ens_a, obs)
        sb = ensemble_stats(ens_b, obs)
        np.testing.assert_allclose(sa.mean, sb.mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sa.cov, sb.cov, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sa.h_hat, sb.h_hat, rtol=0, atol=1e-12)

    def test_matches_numpy_unbiased(self):
        gen = np.random.default_rng(7)
        states = gen.normal(size=(40, 2))
        ens = ParticleEnsemble(states=states, time=0.0, seed=0,
                               streams=np.arange(40, dtype=np.uint64))
        stats = ensemble_stats(ens, lambda s: s[:, 0])
        np.testing.assert_allclose(stats.cov, np.cov(states.T), atol=1e-14)
        # sum / n is np.mean's own reduction and division, bit for bit
        np.testing.assert_array_equal(stats.mean, states.mean(axis=0))
        assert stats.h_hat == states[:, 0].mean()

    def test_covariance_exactly_symmetric(self):
        gen = np.random.default_rng(3)
        states = gen.normal(size=(25, 4))
        ens = ParticleEnsemble(states=states, time=0.0, seed=0,
                               streams=np.arange(25, dtype=np.uint64))
        cov = ensemble_stats(ens, lambda s: s[:, 0]).cov
        np.testing.assert_array_equal(cov, cov.T)


class TestValidateModel:
    def test_registry_models_pass(self):
        for name in ("linear1d", "linear2d", "cubic-sensor",
                     "constant-signal"):
            validate_model(make_model(name))

    def test_wrong_diffusion_shape(self):
        """sigma is checked when the model is built, and a built model is
        frozen, so no sigma that Euler-Maruyama would not use can be set."""
        x1 = Polynomial(1, {(1,): -1.0})
        for sigma, message in ((np.eye(2), r"\(1, 1\), got \(2, 2\)"),
                               (np.full((1, 1), np.nan), "non-finite")):
            with pytest.raises(ModelValidationError,
                               match="diffusion.*" + message):
                SdeModel([x1], x1, sigma, "bad")
        model = make_model("linear1d")
        with pytest.raises(FrozenInstanceError):
            model.diffusion = 2 * np.eye(1)
        with pytest.raises(ValueError, match="read-only"):
            model.diffusion[0, 0] = np.nan
        np.testing.assert_array_equal(model.diffusion_t, np.eye(1))

    def test_built_model_arrays_are_read_only(self):
        """An in-place edit of a built model's polynomials or derived
        arrays raises, so they cannot disagree with each other: h = x on
        linear1d keeps reading h = x, and linear2d's F keeps the drift."""
        model = make_model("linear1d")
        with pytest.raises(ValueError, match="read-only"):
            model.obs.coeffs[0] = 3.0
        with pytest.raises(ValueError, match="read-only"):
            model.obs.exponents[0, 0] = 2
        np.testing.assert_array_equal(model.obs_at(np.ones((1, 1))), [1.0])
        model = make_model("linear2d")
        for table in (model.drift_matrix, model._drift_t, model.obs_vector):
            with pytest.raises(ValueError, match="read-only"):
                table[0, ...] = 5.0
        np.testing.assert_array_equal(model.drift_at(np.eye(2)),
                                      model.drift_matrix.T)

    def test_nonfinite_drift(self):
        model = SdeModel([Polynomial(1, {(1,): np.nan})],
                         Polynomial(1, {(1,): 1.0}), np.eye(1), "nan")
        with pytest.raises(ModelValidationError, match="drift"):
            validate_model(model)

    def test_drift_shape_mismatch_caught(self):
        """Every polynomial must be in d = len(drift) >= 1 variables; a
        model that mixes dimensions, in the drift or in h, or has no drift
        is refused when it is built."""
        x1, y1 = Polynomial(2, {(1, 0): -1.0}), Polynomial(1, {(1,): 1.0})
        for drift, obs in (([x1, y1], x1), ([x1, x1], y1), ([], y1)):
            with pytest.raises(ModelValidationError, match="dimensions"):
                SdeModel(drift, obs, np.eye(max(1, len(drift))), "mixed")


def _model_and_polynomials(name, tmp_path):
    """A registry model, or the golden corpus's inline-affine model read
    from its config, with the polynomials it was built from."""
    if name in _REGISTRY:
        drift, obs, _ = _REGISTRY[name]
        dim = len(drift)
        return (make_model(name), [Polynomial(dim, p) for p in drift],
                Polynomial(dim, obs))
    fields = dict(line.split(" = ") for line in MODELS[name].splitlines())
    dim = int(fields["dimension"])
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG.format(model=MODELS[name], gain="exact_gaussian"))
    return (load_config(str(cfg)).model,
            [parse_polynomial(fields[f"drift_{i + 1}"], dim)
             for i in range(dim)],
            parse_polynomial(fields["obs"], dim))


class TestPolynomialModel:
    @pytest.mark.parametrize("name", sorted(_REGISTRY) + ["inline-affine"])
    def test_evaluators_match_polynomials_and_metadata(self, name, tmp_path):
        """Whichever evaluator the model picked, drift, h and grad h
        equal the polynomial fields they came from, and the affine
        metadata, where present, reproduces them."""
        model, drift, obs = _model_and_polynomials(name, tmp_path)
        states = 2.0 * noise.standard_normal(7, np.arange(64), 0, model.dim)
        obs_field = PolyScalarField(obs)
        tol = dict(rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(model.drift_at(states),
                                   PolyVectorField(drift).value(states), **tol)
        np.testing.assert_allclose(model.obs_at(states),
                                   obs_field.value(states), **tol)
        grad = model.obs_grad_at(states)
        # an affine h's gradient is one row H^T for every state
        assert grad.shape == ((1, model.dim) if model.obs_vector is not None
                              else states.shape)
        np.testing.assert_allclose(np.broadcast_to(grad, states.shape),
                                   obs_field.grad(states), **tol)
        if model.drift_matrix is not None:
            np.testing.assert_allclose(model.drift_at(states),
                                       states @ model.drift_matrix.T, **tol)
        if model.obs_vector is not None:
            np.testing.assert_allclose(
                model.obs_at(states),
                states @ model.obs_vector + model.obs_offset, **tol)

    def test_zero_terms_keep_the_affine_metadata(self):
        """A nonlinear term with a zero coefficient, 0.0 or -0.0, which
        Polynomial keeps, leaves the model affine: it keeps its drift
        matrix, observation vector and offset."""
        drift = [Polynomial(2, {(1, 0): -1.0, (0, 1): 0.5, (0, 3): 0.0}),
                 Polynomial(2, {(1, 0): -0.5, (0, 1): -1.0})]
        obs = Polynomial(2, {(1, 0): 1.0, (0, 0): 0.5, (2, 0): -0.0})
        assert len(obs.coeffs) == 3
        model = SdeModel(drift, obs, np.eye(2), "zero-terms")
        np.testing.assert_array_equal(model.drift_matrix,
                                      [[-1.0, 0.5], [-0.5, -1.0]])
        np.testing.assert_array_equal(model.obs_vector, [1.0, 0.0])
        assert model.obs_offset == 0.5

    @pytest.mark.parametrize("n", [5, 37])
    def test_batch_rows_are_each_ensembles_bits(self, n):
        """A cubic drift and h on a batch (3, N, 1) give, in slice s, the
        bytes of the call on ensemble s alone: drift, h and grad h.  One
        product over the 3N rows of the batch rounds some gradient rows
        differently at these N."""
        model = SdeModel(drift=[Polynomial(1, {(1,): -1.0, (3,): -0.2})],
                         obs=Polynomial(1, {(1,): 1.0, (2,): 0.4,
                                            (3,): 0.1}),
                         diffusion=[[0.5]], name="cubic")
        states = np.random.default_rng(2).standard_normal((3, n, 1))
        for at in (model.drift_at, model.obs_at, model.obs_grad_at):
            batch = at(states)
            assert batch.shape[:2] == (3, n)
            for s in range(3):
                assert batch[s].tobytes() == at(states[s]).tobytes()


class TestCovarianceSqrt:
    def test_squares_back(self):
        gen = np.random.default_rng(12)
        a = gen.normal(size=(3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        root = covariance_sqrt(cov)
        np.testing.assert_allclose(root @ root, cov, atol=1e-12)
        np.testing.assert_allclose(root, root.T, atol=1e-14)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(covariance_sqrt(np.zeros((2, 2))),
                                      np.zeros((2, 2)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ModelValidationError, match="symmetric"):
            covariance_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ModelValidationError, match="semidefinite"):
            covariance_sqrt(np.array([[1.0, 0.0], [0.0, -0.1]]))
