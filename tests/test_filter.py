"""Tests for the feedback-filter time stepping and trace bookkeeping."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpf_lab import filter as filter_module
from fpf_lab import model as model_module
from fpf_lab import (
    FilterAbortError,
    FilterConfig,
    GainField,
    ParticleEnsemble,
    SdeModel,
    euler_maruyama_step,
    fpf_step,
    make_model,
    read_trace_csv,
    run_filter,
    run_filters,
    sample_initial_ensemble,
    simulate_truth,
    synthesize_observations,
    write_trace_csv,
)
from fpf_lab.fields import Polynomial
from fpf_lab.sde import ObservationSet


def _observations(model, dt=0.01, t_end=0.5, seed_truth=101, seed_obs=202,
                  x0=None):
    x0 = np.zeros(model.dim) if x0 is None else x0
    truth = simulate_truth(model, x0, dt, t_end, seed_truth)
    return synthesize_observations(model, truth, seed_obs)


class TestFpfStep:
    def test_constant_observation_reduces_to_propagation(self):
        """When h is constant, h - h_hat = 0 for every particle, so the
        constant gain, and with it the whole feedback term, vanishes
        exactly: the step equals bare Euler-Maruyama propagation."""
        model = SdeModel([Polynomial(1, {(1,): -1.0})],
                         Polynomial(1, {(0,): 2.0}), np.eye(1), "constant-h")
        ens_a = sample_initial_ensemble(1, 32, [0.0], [[1.0]], seed=11)
        ens_b = sample_initial_ensemble(1, 32, [0.0], [[1.0]], seed=11)
        fpf_step(model, ens_a, dz=0.3, dt=0.01,
                 config=FilterConfig(gain_method="constant"))
        euler_maruyama_step(model, ens_b, 0.01)
        np.testing.assert_array_equal(ens_a.states, ens_b.states)

    def test_relabeling_is_a_symmetry(self):
        """Permuting particles together with their noise streams permutes
        the post-step states identically (up to summation roundoff in the
        ensemble statistics)."""
        model = make_model("linear1d")
        cfg = FilterConfig(gain_method="constant")
        gen = np.random.default_rng(0)
        n = 64
        states = gen.normal(size=(n, 1))
        perm = gen.permutation(n)
        ens_a = ParticleEnsemble(states=states.copy(), time=0.0, seed=9,
                                 streams=np.arange(n, dtype=np.uint64),
                                 draw_step=1)
        ens_b = ParticleEnsemble(states=states[perm].copy(), time=0.0,
                                 seed=9,
                                 streams=np.arange(n, dtype=np.uint64)[perm],
                                 draw_step=1)
        fpf_step(model, ens_a, 0.05, 0.01, cfg)
        fpf_step(model, ens_b, 0.05, 0.01, cfg)
        np.testing.assert_allclose(ens_a.states[perm], ens_b.states,
                                   rtol=0, atol=1e-12)

    def test_abort_on_inadmissible(self):
        """With the admissibility threshold cranked above every attainable
        determinant, an aborting configuration must raise on step one."""
        model = make_model("linear1d")
        ens = sample_initial_ensemble(1, 50, [0.0], [[1.0]], seed=3)
        cfg = FilterConfig(gain_method="constant", admissibility_eps=10.0,
                           abort_on_inadmissible=True)
        with pytest.raises(FilterAbortError, match="invertibility"):
            fpf_step(model, ens, dz=0.1, dt=0.01, config=cfg)

    def test_non_finite_jacobian_aborts_before_update(self, monkeypatch):
        """A gain whose Jacobian is NaN at one particle fails the
        invertibility check, so an aborting configuration raises before
        the update moves any particle."""
        model = make_model("linear1d")
        ens = sample_initial_ensemble(1, 8, [0.0], [[1.0]], seed=3)
        propagated = sample_initial_ensemble(1, 8, [0.0], [[1.0]], seed=3)
        euler_maruyama_step(model, propagated, 0.01)
        k_jac = np.zeros((8, 1, 1))
        k_jac[5] = np.nan
        monkeypatch.setattr(filter_module, "compute_gain",
                            lambda *args, **kwargs: GainField(
                                k=np.ones((8, 1)), k_jac=k_jac,
                                u=np.zeros((8, 1)), u_jac=np.zeros((8, 1, 1))))
        cfg = FilterConfig(abort_on_inadmissible=True)
        with pytest.raises(FilterAbortError, match="1 particle"):
            fpf_step(model, ens, dz=0.1, dt=0.01, config=cfg)
        np.testing.assert_array_equal(ens.states, propagated.states)

    def test_broadcast_field_flags_count_per_seed(self, monkeypatch):
        """A batch's particle-constant field, one Jacobian per seed (k of
        shape (3, 1, 1)), flags every particle of the seed whose update
        map collapses (k_jac = -1/dz) and none of the others; an aborting
        configuration names that seed."""
        model = make_model("linear1d")
        seeds = np.array([21, 22, 23], dtype=np.uint64)
        n, dz = 40, 0.1
        k_jac = np.zeros((3, 1, 1, 1))
        k_jac[1] = -1.0 / dz
        monkeypatch.setattr(filter_module, "compute_gain",
                            lambda *args, **kwargs: GainField(
                                k=np.zeros((3, 1, 1)), k_jac=k_jac,
                                u=np.zeros((3, 1, 1)),
                                u_jac=np.zeros((3, 1, 1, 1))))
        ens = sample_initial_ensemble(1, n, [0.0], [[1.0]], seeds)
        n_flagged = fpf_step(model, ens, dz, 0.01, FilterConfig())
        np.testing.assert_array_equal(n_flagged, [0, n, 0])
        ens = sample_initial_ensemble(1, n, [0.0], [[1.0]], seeds)
        with pytest.raises(FilterAbortError,
                           match=rf"^{n} particle\(s\) .*\(seed 22\)$"):
            fpf_step(model, ens, dz, 0.01,
                     FilterConfig(abort_on_inadmissible=True))

    def test_flag_count_without_abort(self):
        model = make_model("linear1d")
        ens = sample_initial_ensemble(1, 50, [0.0], [[1.0]], seed=3)
        cfg = FilterConfig(gain_method="constant", admissibility_eps=10.0)
        n_flagged = fpf_step(model, ens, dz=0.1, dt=0.01, config=cfg)
        assert n_flagged == 50  # every det <= 10


class TestRunFilter:
    def test_trace_shape_and_prior_row(self):
        model = make_model("linear1d")
        obs = _observations(model)
        trace, final = run_filter(model, obs, 100, 7,
                                  FilterConfig(gain_method="exact_gaussian"),
                                  np.zeros(1), np.eye(1))
        assert trace.times.shape == (len(obs) + 1,)
        assert trace.times[0] == 0.0
        assert trace.dz[0] == 0.0
        np.testing.assert_array_equal(trace.dz[1:], obs.dz)
        # prior row summarizes the initial sample before any update
        ens0 = sample_initial_ensemble(1, 100, np.zeros(1), np.eye(1), 7)
        np.testing.assert_allclose(trace.means[0], ens0.states.mean(axis=0),
                                   atol=1e-14)
        assert final.n == 100
        assert final.time == pytest.approx(obs.times[-1])

    def test_bit_reproducible(self):
        model = make_model("linear2d")
        obs = _observations(model, t_end=0.3)
        cfg = FilterConfig(gain_method="exact_gaussian")
        t1, _ = run_filter(model, obs, 64, 5, cfg, np.zeros(2), np.eye(2))
        t2, _ = run_filter(model, obs, 64, 5, cfg, np.zeros(2), np.eye(2))
        np.testing.assert_array_equal(t1.means, t2.means)
        np.testing.assert_array_equal(t1.covs, t2.covs)

    def test_rejects_nonuniform_times(self):
        model = make_model("linear1d")
        obs = ObservationSet(times=np.array([0.01, 0.02, 0.05]),
                             y=np.zeros(3), dz=np.zeros(3))
        with pytest.raises(ValueError, match="uniformly spaced"):
            run_filter(model, obs, 10, 0, FilterConfig(), np.zeros(1),
                       np.eye(1))

    def test_rejects_empty_record(self):
        model = make_model("linear1d")
        obs = ObservationSet(times=np.array([]), y=np.array([]),
                             dz=np.array([]))
        with pytest.raises(ValueError, match="empty"):
            run_filter(model, obs, 10, 0, FilterConfig(), np.zeros(1),
                       np.eye(1))

    def test_galerkin_runs_on_nonlinear_model(self):
        """The cubic observation exercises a genuinely state-dependent
        gain; the run must complete and track the sign of the state."""
        model = make_model("cubic-sensor")
        obs = _observations(model, t_end=0.5, x0=[1.0])
        cfg = FilterConfig(gain_method="galerkin", galerkin_degree=3)
        trace, _ = run_filter(model, obs, 300, 2, cfg, np.zeros(1),
                              np.eye(1))
        assert np.all(np.isfinite(trace.means))
        assert np.all(np.isfinite(trace.covs))

    def test_no_flags_on_benign_run(self):
        model = make_model("linear1d")
        obs = _observations(model)
        trace, _ = run_filter(model, obs, 200, 1,
                              FilterConfig(gain_method="exact_gaussian"),
                              np.zeros(1), np.eye(1))
        assert trace.n_flagged.sum() == 0


# every registry model and the affine inline model of the golden corpus
_BATCH_MODELS = {name: make_model(name) for name in
                 ("linear1d", "linear2d", "cubic-sensor", "constant-signal")}
_BATCH_MODELS["inline-affine"] = SdeModel(
    [Polynomial(1, {(1,): -0.5})], Polynomial(1, {(1,): 2.0, (0,): 0.3}),
    0.8 * np.eye(1), "inline")
# d = 3 with a non-affine h = x1 + x2 x3: the batched Galerkin gain beyond
# d = 2, with a gradient that varies over the particles
_BATCH_MODELS["inline-3d"] = SdeModel(
    [Polynomial(3, {tuple(np.eye(3, dtype=int)[i]): -1.0}) for i in range(3)],
    Polynomial(3, {(1, 0, 0): 1.0, (0, 1, 1): 1.0}), 0.5 * np.eye(3),
    "inline")
_BATCH_OBS = {name: _observations(model, dt=0.05, t_end=0.4)
              for name, model in _BATCH_MODELS.items()}


def _alone_or_error(run, *args):
    """run(*args), or the (type, message) of the error it raises."""
    try:
        return run(*args)
    except FilterAbortError as exc:
        return type(exc), str(exc)


class TestRunFilters:
    @given(st.sampled_from(sorted(_BATCH_MODELS)),
           st.sampled_from(["exact_gaussian", "constant", "galerkin"]),
           st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=4,
                    unique=True),
           st.integers(2, 50))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_batch_equals_each_seed_alone(self, name, gain, seeds, n):
        """A batch of seeds gives, for every seed, the trace (means, covs,
        h_hat, n_flagged) and the final states of that seed run alone,
        bit for bit; a batch that aborts raises the error of the first
        seed at fault alone."""
        model = _BATCH_MODELS[name]
        if gain == "exact_gaussian" and model.obs_vector is None:
            gain = "constant"               # the closed form needs affine h
        args = (model, _BATCH_OBS[name], n)
        rest = (FilterConfig(gain_method=gain), np.zeros(model.dim),
                np.eye(model.dim))
        with np.errstate(all="ignore"):
            batch = _alone_or_error(run_filters, *args, seeds, *rest)
            alone = [_alone_or_error(run_filter, *args, seed, *rest)
                     for seed in seeds]
        if isinstance(batch[0], type):
            assert batch in alone
            return
        traces, final = batch
        assert final.states.shape == (len(seeds), n, model.dim)
        for s, (trace, states) in enumerate(zip(traces, final.states)):
            trace_1, final_1 = alone[s]
            for a, b in ((trace.means, trace_1.means),
                         (trace.covs, trace_1.covs),
                         (trace.h_hat, trace_1.h_hat),
                         (trace.n_flagged, trace_1.n_flagged),
                         (states, final_1.states)):
                assert a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            np.testing.assert_array_equal(trace.times, trace_1.times)

    def test_names_the_first_seed_at_fault(self):
        """The invertibility abort of a batch counts the particles of the
        first seed at fault and names that seed."""
        model = make_model("linear1d")
        obs = _observations(model, t_end=0.05)
        cfg = FilterConfig(gain_method="constant", admissibility_eps=10.0,
                           abort_on_inadmissible=True)
        with pytest.raises(FilterAbortError,
                           match=r"^50 particle\(s\) .* \(seed 8\)$"):
            run_filters(model, obs, 50, [8, 9], cfg, np.zeros(1), np.eye(1))

    def test_batches_across_a_group_boundary(self):
        """3 seeds of 12,000 particles run as batches of 2 and 1 seeds
        (BATCH_PARTICLES = 2^15): every seed's trace and final states are
        those of the seed alone, bit for bit, in one fresh ensemble."""
        model = make_model("linear2d")
        obs = _observations(model, t_end=0.03)
        seeds = [4, 5, 6]
        assert filter_module.BATCH_PARTICLES // 12000 == 2
        rest = (FilterConfig(gain_method="exact_gaussian"), np.zeros(2),
                np.eye(2))
        traces, final = run_filters(model, obs, 12000, seeds, *rest)
        assert final.states.shape == (3, 12000, 2)
        np.testing.assert_array_equal(final.seed, seeds)
        assert final._block is None
        for seed, trace, states in zip(seeds, traces, final.states):
            trace_1, final_1 = run_filter(model, obs, 12000, seed, *rest)
            for a, b in ((trace.means, trace_1.means),
                         (trace.covs, trace_1.covs),
                         (trace.h_hat, trace_1.h_hat),
                         (trace.n_flagged, trace_1.n_flagged),
                         (states, final_1.states)):
                assert a.tobytes() == b.tobytes()
            assert final.draw_step == final_1.draw_step

    def test_rejects_an_empty_seed_list(self):
        model = make_model("linear1d")
        with pytest.raises(ValueError, match="at least one seed"):
            run_filters(model, _observations(model, t_end=0.05), 10, [],
                        FilterConfig(), np.zeros(1), np.eye(1))


class TestNoiseBlocks:
    @pytest.mark.parametrize("name, n", [("linear1d", 1000), ("linear2d", 7)])
    def test_trace_independent_of_block_length(self, name, n):
        """Hashing the noise one step at a time or a block of steps at a
        time gives byte-identical traces and final ensembles."""
        model = make_model(name)
        obs = _observations(model, t_end=1.0)
        cfg = FilterConfig(gain_method="exact_gaussian")
        args = (model, obs, n, 17, cfg, np.zeros(model.dim),
                np.eye(model.dim))
        trace, final = run_filter(*args)
        with mock.patch.object(model_module, "_BLOCK_STEPS", 1):
            trace_1, final_1 = run_filter(*args)
        for a, b in ((trace.means, trace_1.means), (trace.covs, trace_1.covs),
                     (trace.h_hat, trace_1.h_hat),
                     (final.states, final_1.states)):
            assert a.tobytes() == b.tobytes()


class TestRelabelingProperty:
    @given(st.integers(2, 64).flatmap(lambda n: st.permutations(range(n))),
           st.integers(0, 2 ** 32), st.integers(1, 20))
    @settings(max_examples=20, deadline=None)
    def test_permuting_particles_and_streams_permutes_run(self, perm, seed,
                                                          steps):
        """Relabeling the initial ensemble together with its stream ids
        permutes every noise block exactly, and run_filter's final ensemble
        up to the summation order of the ensemble statistics."""
        model = make_model("linear1d")
        obs = _observations(model, t_end=0.01 * steps)
        perm = np.array(perm)
        draws, final = _run_relabeled(model, obs, seed, np.arange(len(perm)))
        draws_p, final_p = _run_relabeled(model, obs, seed, perm)
        assert len(draws) == len(draws_p) == steps + 1
        np.testing.assert_array_equal(draws_p[0], draws[0])  # initial sample
        for z, z_p in zip(draws[1:], draws_p[1:]):
            np.testing.assert_array_equal(z_p, z[perm])
        np.testing.assert_array_equal(final_p.streams, perm)
        np.testing.assert_allclose(final_p.states, final.states[perm],
                                   rtol=0, atol=1e-12)


def _run_relabeled(model, obs, seed, perm):
    """run_filter (exact gain) from the initial ensemble relabeled by perm;
    returns every noise block drawn (one per step, the initial sample
    first) and the final ensemble."""
    draws = []

    def draw_normals(ens, n_slots):
        draws.append(draw(ens, n_slots))
        return draws[-1]

    def relabeled(*args):
        ens = sample(*args)
        ens.states, ens.streams = ens.states[perm], ens.streams[perm]
        return ens

    draw, sample = ParticleEnsemble.draw_normals, \
        filter_module.sample_initial_ensemble
    with mock.patch.object(ParticleEnsemble, "draw_normals", draw_normals), \
            mock.patch.object(filter_module, "sample_initial_ensemble",
                              relabeled):
        _, final = run_filter(model, obs, len(perm), seed,
                              FilterConfig(gain_method="exact_gaussian"),
                              np.zeros(1), np.eye(1))
    return draws, final


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        model = make_model("linear2d")
        obs = _observations(model, t_end=0.2)
        trace, _ = run_filter(model, obs, 32, 3,
                              FilterConfig(gain_method="exact_gaussian"),
                              np.zeros(2), np.eye(2))
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), trace)
        back = read_trace_csv(str(path))
        assert back.dim == 2
        np.testing.assert_allclose(back.means, trace.means, rtol=1e-11)
        np.testing.assert_allclose(back.covs, trace.covs, rtol=1e-11,
                                   atol=1e-15)
        np.testing.assert_array_equal(back.n_flagged, trace.n_flagged)

    def test_header_layout(self, tmp_path):
        model = make_model("linear1d")
        obs = _observations(model, t_end=0.05)
        trace, _ = run_filter(model, obs, 16, 3,
                              FilterConfig(gain_method="constant"),
                              np.zeros(1), np.eye(1))
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), trace)
        header = path.read_text().splitlines()[0]
        assert header == "t,dz,mean_1,cov_11,h_hat,n_flagged"

    def test_headers_stay_distinct_from_d_10(self, tmp_path):
        """At d = 11, cov_111 would name both (1, 11) and (11, 1): the
        indices are separated, every header is distinct, and the trace
        reads back by position."""
        d = 11
        eye = np.eye(d, dtype=int)
        model = SdeModel([Polynomial(d, {tuple(e): -1.0}) for e in eye],
                         Polynomial(d, {tuple(eye[0]): 1.0}),
                         0.5 * np.eye(d), "inline")
        obs = _observations(model, t_end=0.05)
        trace, _ = run_filter(model, obs, 40, 3,
                              FilterConfig(gain_method="exact_gaussian"),
                              np.zeros(d), np.eye(d))
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), trace)
        header = path.read_text().splitlines()[0].split(",")
        assert len(header) == len(set(header)) == 2 + d + d * d + 2
        assert header[2 + d:5 + d] == ["cov_1_1", "cov_1_2", "cov_1_3"]
        assert {"cov_1_11", "cov_11_1", "cov_11_11"} <= set(header)
        back = read_trace_csv(str(path))
        assert back.dim == d
        np.testing.assert_allclose(back.means, trace.means, rtol=1e-11,
                                   atol=1e-15)
        np.testing.assert_allclose(back.covs, trace.covs, rtol=1e-11,
                                   atol=1e-15)
        np.testing.assert_allclose(back.h_hat, trace.h_hat, rtol=1e-11)
        np.testing.assert_array_equal(back.n_flagged, trace.n_flagged)
