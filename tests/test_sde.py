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
from fpf_lab.rng import standard_normal
from fpf_lab.table import write_table


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


    def test_noise_is_matmul_bit_for_bit(self):
        """With a non-diagonal 3 x 3 sigma_b, a batched step is
        x + a(x) dt + dw @ sigma_b^T byte for byte, and so is each step of
        a truth path, whose noise is a single row."""
        sigma = np.array([[0.7, 0.2, -0.1], [0.3, 1.1, 0.4],
                          [-0.5, 0.6, 0.9]])
        drift = [Polynomial(3, {(1, 0, 0): -1.0, (0, 1, 1): 0.3}),
                 Polynomial(3, {(0, 1, 0): -0.5, (2, 0, 0): 0.1}),
                 Polynomial(3, {(0, 0, 1): -2.0, (1, 1, 0): 0.2})]
        model = SdeModel(drift, Polynomial(3, {(1, 0, 0): 1.0}), sigma,
                         "inline")
        dt = 0.01
        seeds = np.array([4, 9], dtype=np.uint64)
        ens = sample_initial_ensemble(3, 500, np.zeros(3), np.eye(3), seeds)
        twin = sample_initial_ensemble(3, 500, np.zeros(3), np.eye(3), seeds)
        x = ens.states
        euler_maruyama_step(model, ens, dt)
        dw = twin.draw_normals(3) * np.sqrt(dt)
        expected = (x + model.drift_at(x) * dt
                    + (dw.reshape(-1, 3) @ sigma.T).reshape(x.shape))
        assert ens.states.tobytes() == expected.tobytes()

        truth = simulate_truth(model, [0.1, -0.2, 0.3], dt, 0.3, seed=5)
        dw = standard_normal(5, np.zeros(1, dtype=np.uint64),
                             np.arange(30), 3) * np.sqrt(dt)
        x = truth.states[:1]
        for k in range(30):
            x = x + model.drift_at(x) * dt + dw[k] @ sigma.T
            assert truth.states[k + 1].tobytes() == x[0].tobytes()


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

    def test_array_rows_write_the_bytes_of_lists(self, tmp_path):
        """write_table formats a 2-D array one row at a time, to the bytes
        of the same table passed as nested lists of Python floats."""
        rng = np.random.default_rng(4)
        table = np.column_stack([
            np.arange(50.0), rng.standard_normal(50) * 10.0 ** rng.integers(
                -20, 20, 50), np.full(50, -0.0), rng.integers(0, 9, 50)])
        from_array, from_lists = tmp_path / "a.csv", tmp_path / "l.csv"
        write_table(str(from_array), ["a", "b", "c", "d"], table)
        write_table(str(from_lists), ["a", "b", "c", "d"], table.tolist())
        assert from_array.read_bytes() == from_lists.read_bytes()
