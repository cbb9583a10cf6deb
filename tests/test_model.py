"""Tests for the model containers, noise streams, and ensemble statistics."""

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
    """Box-Muller over uniforms (2j, 2j+1), each hashed on its own."""
    stream = np.asarray(stream, dtype=np.uint64).reshape(-1, 1)
    slots = np.arange(n_slots, dtype=np.uint64).reshape(1, -1)
    u1 = _oracle_uniform01(seed, stream, step, 2 * slots)
    u2 = _oracle_uniform01(seed, stream, step, 2 * slots + np.uint64(1))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


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

        per_block = max(1, min(model_module._BLOCK_STEPS,
                               model_module._BLOCK_NORMALS // (n * n_slots)))
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

    def test_draw_normals_advances_step(self):
        ens = ParticleEnsemble(states=np.zeros((4, 1)), time=0.0, seed=5,
                               streams=np.arange(4, dtype=np.uint64))
        first = ens.draw_normals(1)
        second = ens.draw_normals(1)
        assert ens.draw_step == 2
        assert not np.array_equal(first, second)


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
        model = make_model("linear1d")
        model.diffusion = np.eye(2)
        with pytest.raises(ModelValidationError, match="diffusion"):
            validate_model(model)

    def test_nonfinite_drift(self):
        model = SdeModel(dim=1, drift=lambda x: np.full_like(x, np.nan),
                         diffusion=np.eye(1), obs=lambda x: x[:, 0],
                         obs_grad=np.ones_like)
        with pytest.raises(ModelValidationError, match="drift"):
            validate_model(model)

    def test_wrong_obs_vector_shape(self):
        model = make_model("linear1d")
        model.obs_vector = np.array([1.0, 0.0])
        with pytest.raises(ModelValidationError, match="obs_vector"):
            validate_model(model)

    def test_drift_shape_mismatch_caught(self):
        model = SdeModel(dim=2, drift=lambda x: x[:, :1],
                         diffusion=np.eye(2), obs=lambda x: x[:, 0],
                         obs_grad=lambda x: x * [1.0, 0.0])
        with pytest.raises(ModelValidationError, match="shape"):
            validate_model(model)


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
        """Whichever evaluator the builder picked, drift, h and grad h
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
        np.testing.assert_allclose(model.obs_grad_at(states),
                                   obs_field.grad(states), **tol)
        if model.drift_matrix is not None:
            np.testing.assert_allclose(model.drift_at(states),
                                       states @ model.drift_matrix.T, **tol)
        if model.obs_vector is not None:
            np.testing.assert_allclose(
                model.obs_at(states),
                states @ model.obs_vector + model.obs_offset, **tol)


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
