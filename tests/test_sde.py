"""Tests for Euler-Maruyama propagation, truth paths, and observations."""

import numpy as np
import pytest

from fpf_lab import (
    SdeModel,
    euler_maruyama_step,
    make_model,
    read_observations_csv,
    read_truth_csv,
    sample_initial_ensemble,
    simulate_truth,
    synthesize_observations,
    write_observations_csv,
    write_truth_csv,
)
from fpf_lab.fields import Polynomial


class TestEulerMaruyama:
    def test_zero_drift_diffusion_statistics(self):
        """With a = 0 and sigma = I the state is a random walk: after k
        steps the ensemble mean stays within 5 standard errors of 0 and
        the variance approaches k * dt."""
        model = SdeModel([Polynomial(1, {})], Polynomial(1, {(1,): 1.0}),
                         np.eye(1), "walk")
        n, k, dt = 10000, 25, 0.01
        ens = sample_initial_ensemble(1, n, [0.0], [[0.0]], seed=5)
        for _ in range(k):
            euler_maruyama_step(model, ens, dt)
        assert abs(ens.states.mean()) <= 5.0 * np.sqrt(k * dt / n)
        np.testing.assert_allclose(ens.states.var(), k * dt, rtol=0.05)

    def test_deterministic_linear_decay(self):
        """sigma = 0 reduces the step to explicit Euler for dx/dt = -x."""
        model = SdeModel([Polynomial(1, {(1,): -1.0})],
                         Polynomial(1, {(1,): 1.0}), np.zeros((1, 1)), "decay")
        ens = sample_initial_ensemble(1, 4, [1.0], [[0.0]], seed=0)
        dt = 0.001
        for _ in range(1000):
            euler_maruyama_step(model, ens, dt)
        np.testing.assert_allclose(ens.states, np.exp(-1.0), rtol=1e-3)
        assert ens.time == pytest.approx(1.0)

    def test_diffusion_matrix_applied_on_left(self):
        """dB enters as sigma_b dB: a rank-one sigma confines the noise to
        its column space."""
        sigma = np.array([[1.0, 0.0], [2.0, 0.0]])
        model = SdeModel([Polynomial(2, {}), Polynomial(2, {})],
                         Polynomial(2, {(1, 0): 1.0}), sigma, "rank-one")
        ens = sample_initial_ensemble(2, 500, [0.0, 0.0], np.zeros((2, 2)),
                                      seed=2)
        euler_maruyama_step(model, ens, 0.01)
        np.testing.assert_allclose(ens.states[:, 1], 2.0 * ens.states[:, 0],
                                   atol=1e-14)


class TestSimulateTruth:
    def test_row_count_and_grid(self):
        truth = simulate_truth(make_model("linear1d"), [0.0], 0.01, 5.0,
                               seed=101)
        assert truth.states.shape == (501, 1)
        np.testing.assert_allclose(truth.times, np.arange(501) * 0.01,
                                   atol=1e-12)
        assert truth.dt == pytest.approx(0.01)

    def test_bit_reproducible(self):
        a = simulate_truth(make_model("linear2d"), [0.0, 0.0], 0.02, 1.0,
                           seed=9)
        b = simulate_truth(make_model("linear2d"), [0.0, 0.0], 0.02, 1.0,
                           seed=9)
        np.testing.assert_array_equal(a.states, b.states)

    def test_bad_inputs(self):
        model = make_model("linear1d")
        with pytest.raises(ValueError):
            simulate_truth(model, [0.0], -0.01, 1.0, seed=0)
        with pytest.raises(ValueError):
            simulate_truth(model, [0.0, 0.0], 0.01, 1.0, seed=0)


class TestSynthesizeObservations:
    def test_increment_is_y_times_dt_bitwise(self):
        """dz = y * dt must hold exactly, not just to tolerance."""
        model = make_model("linear1d")
        truth = simulate_truth(model, [0.5], 0.01, 2.0, seed=17)
        obs = synthesize_observations(model, truth, seed=18)
        np.testing.assert_array_equal(obs.dz, obs.y * 0.01)

    def test_noise_scale(self):
        """y - h(x) has variance 1/dt (many observations, one path)."""
        model = make_model("constant-signal")
        dt = 0.02
        truth = simulate_truth(model, [0.3], dt, 400.0, seed=21)
        obs = synthesize_observations(model, truth, seed=22)
        w = obs.y - model.obs_at(truth.states[1:])
        np.testing.assert_allclose(np.var(w), 1.0 / dt, rtol=0.05)
        assert abs(np.mean(w)) <= 5.0 / np.sqrt(dt * len(w))

    def test_times_start_at_dt(self):
        model = make_model("linear1d")
        truth = simulate_truth(model, [0.0], 0.1, 1.0, seed=1)
        obs = synthesize_observations(model, truth, seed=2)
        assert len(obs) == 10
        assert obs.times[0] == pytest.approx(0.1)
        assert obs.times[-1] == pytest.approx(1.0)


class TestCsvRoundTrip:
    def test_truth_round_trip(self, tmp_path):
        truth = simulate_truth(make_model("linear2d"), [0.1, -0.2], 0.05,
                               1.0, seed=33)
        path = tmp_path / "truth.csv"
        write_truth_csv(str(path), truth)
        back = read_truth_csv(str(path))
        np.testing.assert_allclose(back.times, truth.times, rtol=1e-11)
        np.testing.assert_allclose(back.states, truth.states, rtol=1e-11)

    def test_observations_round_trip(self, tmp_path):
        model = make_model("linear1d")
        truth = simulate_truth(model, [0.0], 0.05, 1.0, seed=5)
        obs = synthesize_observations(model, truth, seed=6)
        path = tmp_path / "obs.csv"
        write_observations_csv(str(path), obs)
        back = read_observations_csv(str(path))
        np.testing.assert_allclose(back.y, obs.y, rtol=1e-11)
        np.testing.assert_allclose(back.dz, obs.dz, rtol=1e-11)

    def test_writes_are_byte_deterministic(self, tmp_path):
        model = make_model("linear1d")
        truth = simulate_truth(model, [0.0], 0.05, 1.0, seed=5)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_truth_csv(str(p1), truth)
        write_truth_csv(str(p2), truth)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_names(self, tmp_path):
        model = make_model("linear1d")
        truth = simulate_truth(model, [0.0], 0.5, 1.0, seed=5)
        obs = synthesize_observations(model, truth, seed=6)
        tp, op = tmp_path / "t.csv", tmp_path / "o.csv"
        write_truth_csv(str(tp), truth)
        write_observations_csv(str(op), obs)
        assert tp.read_text().splitlines()[0] == "t,x_1"
        assert op.read_text().splitlines()[0] == "t,y,dz"
