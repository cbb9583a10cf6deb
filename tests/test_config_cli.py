"""Tests for configuration parsing and the fpf-lab command line."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpf_lab
from fpf_lab.cli import main
from fpf_lab.config import ConfigError, load_config, parse_polynomial
from fpf_lab.filter import read_trace_csv
from fpf_lab.verify import run_suite

BASE_CONFIG = """\
[model]
name = linear1d

[time]
dt = 0.05
t_end = 0.5

[filter]
n_particles = 50
gain = exact_gaussian

[seeds]
truth = 11
observation = 12
filter = 13
"""


# the [model] to [filter] sections of BASE_CONFIG
_MODEL_TO_FILTER = BASE_CONFIG[BASE_CONFIG.index("name"):
                               BASE_CONFIG.index("\n[seeds]")]


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParsePolynomial:
    def test_mixed_terms(self):
        poly = parse_polynomial("-1.2*x1 + 0.5*x1*x2^2 - 3", dim=2)
        assert poly.terms == {(1, 0): -1.2, (1, 2): 0.5, (0, 0): -3.0}

    def test_scientific_notation_is_not_a_term_break(self):
        poly = parse_polynomial("1e-3*x1 + 2E+1", dim=1)
        assert poly.terms == {(1,): 1e-3, (0,): 20.0}

    def test_double_star_power(self):
        poly = parse_polynomial("x1**2", dim=1)
        assert poly.terms == {(2,): 1.0}

    def test_repeated_factors_accumulate(self):
        poly = parse_polynomial("2*x1*x1*x1", dim=1)
        assert poly.terms == {(3,): 2.0}

    def test_constant_product(self):
        poly = parse_polynomial("2*3", dim=1)
        assert poly.terms == {(0,): 6.0}

    def test_like_terms_merge(self):
        poly = parse_polynomial("x1 + x1", dim=1)
        assert poly.terms == {(1,): 2.0}

    def test_empty_expression_rejected(self):
        with pytest.raises(ConfigError, match="empty polynomial"):
            parse_polynomial("   ", dim=1)

    def test_bad_factor_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse factor"):
            parse_polynomial("2*foo", dim=1)

    def test_out_of_range_variable_rejected(self):
        with pytest.raises(ConfigError, match="out of range"):
            parse_polynomial("x3", dim=2)

    def test_power_above_table_limit_rejected(self):
        """x1^1024 is the largest power; repeated factors count together."""
        assert parse_polynomial("x1^1024", dim=1).terms == {(1024,): 1.0}
        with pytest.raises(ConfigError, match="power of x1 above 1024"):
            parse_polynomial("x1^1000*x1^25", dim=1)

    @given(st.lists(st.floats(min_value=-5.0, max_value=5.0),
                    min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_through_text(self, coeffs):
        """Printing a 1-D polynomial and reparsing it preserves its values
        (repr of a float round-trips exactly)."""
        text = " ".join(
            f"{'-' if math.copysign(1.0, c) < 0 else '+'} {abs(c)!r}*x1^{k}"
            for k, c in enumerate(coeffs))
        poly = parse_polynomial(text, dim=1)
        for x in (-1.3, 0.0, 0.4, 2.0):
            direct = sum(c * x ** k for k, c in enumerate(coeffs))
            assert float(poly(np.array([[x]]))[0]) == pytest.approx(
                direct, rel=1e-12, abs=1e-12)


class TestLoadConfig:
    def test_registry_model_with_defaults(self, tmp_path):
        cfg = load_config(_write(tmp_path, BASE_CONFIG))
        assert cfg.model.name == "linear1d"
        assert cfg.model.dim == 1
        assert (cfg.dt, cfg.t_end, cfg.n_particles) == (0.05, 0.5, 50)
        assert cfg.filter_cfg.gain_method == "exact_gaussian"
        assert (cfg.seed_truth, cfg.seed_observation, cfg.seed_filter) \
            == (11, 12, 13)
        assert cfg.out_dir == "."
        np.testing.assert_array_equal(cfg.prior_mean, [0.0])
        np.testing.assert_array_equal(cfg.prior_cov, [[1.0]])
        np.testing.assert_array_equal(cfg.x0, [0.0])
        assert cfg.compare_seeds == (13,)

    def test_filter_options_resolved(self, tmp_path):
        text = BASE_CONFIG.replace(
            "gain = exact_gaussian",
            "gain = galerkin\ngalerkin_degree = 2\ngalerkin_ridge = 1e-5\n"
            "admissibility_eps = 1e-6\nabort_on_inadmissible = true")
        cfg = load_config(_write(tmp_path, text))
        fc = cfg.filter_cfg
        assert fc.gain_method == "galerkin"
        assert fc.galerkin_degree == 2
        assert fc.galerkin_ridge == 1e-5
        assert fc.admissibility_eps == 1e-6
        assert fc.abort_on_inadmissible is True

    def test_inline_model_recovers_affine_metadata(self, tmp_path):
        text = """\
[model]
dimension = 2
drift_1 = -1.0*x1 + 0.5*x2
drift_2 = -0.5*x1 - 1.0*x2
obs = x1 + 0.5
sigma = 1.0

[time]
dt = 0.01
t_end = 0.1

[filter]
n_particles = 10
gain = constant

[seeds]
truth = 1
observation = 2
filter = 3
"""
        cfg = load_config(_write(tmp_path, text))
        assert cfg.model.name == "inline"
        np.testing.assert_allclose(cfg.model.drift_matrix,
                                   [[-1.0, 0.5], [-0.5, -1.0]])
        np.testing.assert_allclose(cfg.model.obs_vector, [1.0, 0.0])
        assert cfg.model.obs_offset == 0.5
        pts = np.array([[0.4, -0.2]])
        np.testing.assert_allclose(cfg.model.drift_at(pts)[0],
                                   [-0.5, -0.0], atol=1e-14)
        np.testing.assert_allclose(cfg.model.obs_at(pts), [0.9], atol=1e-14)

    def test_inline_nonlinear_obs_has_no_affine_shortcut(self, tmp_path):
        text = """\
[model]
dimension = 1
drift_1 = -1.0*x1
obs = x1^3
sigma = 1.0

[time]
dt = 0.01
t_end = 0.1

[filter]
n_particles = 10
gain = constant

[seeds]
truth = 1
observation = 2
filter = 3
"""
        cfg = load_config(_write(tmp_path, text))
        assert cfg.model.obs_vector is None

    def test_prior_compare_and_output_sections(self, tmp_path):
        text = BASE_CONFIG + """
[prior]
mean = 0.5
cov = 2.0

[compare]
seeds = 5 6 7
grid_halfwidth = 6.0
grid_points = 801

[output]
dir = results
"""
        cfg = load_config(_write(tmp_path, text))
        np.testing.assert_array_equal(cfg.prior_mean, [0.5])
        np.testing.assert_array_equal(cfg.prior_cov, [[2.0]])
        assert cfg.compare_seeds == (5, 6, 7)
        assert cfg.grid_halfwidth == 6.0
        assert cfg.grid_points == 801
        assert cfg.out_dir == "results"
        # x0 follows the prior mean unless pinned in [model]
        np.testing.assert_array_equal(cfg.x0, [0.5])

    def test_explicit_initial_condition(self, tmp_path):
        text = BASE_CONFIG.replace("name = linear1d",
                                   "name = linear1d\nx0 = -0.75")
        cfg = load_config(_write(tmp_path, text))
        np.testing.assert_array_equal(cfg.x0, [-0.75])

    def test_missing_section_rejected(self, tmp_path):
        text = BASE_CONFIG.replace("[time]\ndt = 0.05\nt_end = 0.5\n\n", "")
        with pytest.raises(ConfigError, match=r"missing section \[time\]"):
            load_config(_write(tmp_path, text))

    def test_missing_field_names_section(self, tmp_path):
        text = BASE_CONFIG.replace("dt = 0.05\n", "")
        with pytest.raises(ConfigError,
                           match=r"missing field `dt` in section \[time\]"):
            load_config(_write(tmp_path, text))

    def test_name_and_inline_model_conflict(self, tmp_path):
        text = BASE_CONFIG.replace("name = linear1d",
                                   "name = linear1d\ndimension = 1")
        with pytest.raises(ConfigError, match="use one"):
            load_config(_write(tmp_path, text))

    def test_unknown_model_lists_available(self, tmp_path):
        text = BASE_CONFIG.replace("name = linear1d", "name = nope")
        with pytest.raises(ConfigError, match="unknown model 'nope'.*linear1d"):
            load_config(_write(tmp_path, text))

    def test_unknown_gain_rejected(self, tmp_path):
        text = BASE_CONFIG.replace("gain = exact_gaussian", "gain = magic")
        with pytest.raises(ConfigError, match="unknown method 'magic'"):
            load_config(_write(tmp_path, text))

    def test_negative_seed_rejected(self, tmp_path):
        text = BASE_CONFIG.replace("truth = 11", "truth = -1")
        with pytest.raises(ConfigError, match=">= 0"):
            load_config(_write(tmp_path, text))

    def test_largest_seed_accepted(self, tmp_path):
        """2^64 - 1 is the largest seed the noise hash tells apart."""
        text = BASE_CONFIG.replace("truth = 11", f"truth = {2 ** 64 - 1}")
        assert load_config(_write(tmp_path, text)).seed_truth == 2 ** 64 - 1

    @pytest.mark.parametrize("model, n, ok", [
        ("linear2d", 5_000_000, True), ("linear2d", 5_000_001, False),
        ("linear1d", 10_000_001, False)])
    def test_particle_coordinates_bounded(self, tmp_path, model, n, ok):
        """n_particles times the dimension is at most MAX_PARTICLE_COORDS:
        each ensemble array holds that many numbers."""
        text = (BASE_CONFIG.replace("name = linear1d", f"name = {model}")
                .replace("n_particles = 50", f"n_particles = {n}"))
        path = _write(tmp_path, text)
        if ok:
            assert load_config(path).n_particles == n
        else:
            with pytest.raises(ConfigError,
                               match=r"`n_particles` in \[filter\]"):
                load_config(path)

    def test_nonpositive_dt_rejected(self, tmp_path):
        text = BASE_CONFIG.replace("dt = 0.05", "dt = 0")
        with pytest.raises(ConfigError, match="must be positive"):
            load_config(_write(tmp_path, text))

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(str(tmp_path / "absent.ini"))


class TestCliPipeline:
    """simulate -> filter -> compare on a small linear run."""

    @pytest.fixture()
    def workdir(self, tmp_path):
        cfg = _write(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        return cfg, str(out), tmp_path

    def test_simulate_writes_truth_and_observations(self, workdir):
        cfg, out, tmp_path = workdir
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        truth_lines = (tmp_path / "out" / "truth.csv") \
            .read_text().splitlines()
        obs_lines = (tmp_path / "out" / "obs.csv").read_text().splitlines()
        assert truth_lines[0] == "t,x_1"
        assert len(truth_lines) == 1 + 11      # header + t=0..0.5 by 0.05
        assert obs_lines[0] == "t,y,dz"
        assert len(obs_lines) == 1 + 10

    def test_simulate_is_byte_deterministic(self, workdir):
        cfg, out, tmp_path = workdir
        main(["simulate", "--config", cfg, "--out", out])
        first = (tmp_path / "out" / "obs.csv").read_bytes()
        main(["simulate", "--config", cfg, "--out", out])
        assert (tmp_path / "out" / "obs.csv").read_bytes() == first

    def test_filter_then_compare(self, workdir, capsys):
        cfg, out, tmp_path = workdir
        main(["simulate", "--config", cfg, "--out", out])
        obs = str(tmp_path / "out" / "obs.csv")

        assert main(["filter", "--config", cfg, "--obs", obs,
                     "--out", out]) == 0
        trace_lines = (tmp_path / "out" / "fpf_trace.csv") \
            .read_text().splitlines()
        assert trace_lines[0] == "t,dz,mean_1,cov_11,h_hat,n_flagged"
        assert len(trace_lines) == 1 + 11      # prior row + one per step

        assert main(["compare", "--config", cfg, "--obs", obs,
                     "--out", out]) == 0
        capsys.readouterr()
        header = (tmp_path / "out" / "compare.csv") \
            .read_text().splitlines()[0]
        assert header == ("t,fpf_mean_1,fpf_var_1,kb_mean_1,kb_var_1,"
                          "bpf_mean_1,bpf_var_1,grid_mean_1,grid_var_1")
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "fpf_mean_rmse_vs_kb=" in summary
        assert "kl_fpf_vs_grid=" in summary
        assert "n_flagged_total=0" in summary

    def test_compare_on_cubic_sensor_has_no_kalman_bucy(self, workdir):
        """cubic-sensor's zero drift is linear (F = [[0]]), but h = x^3 is
        not affine, so compare writes no Kalman-Bucy columns."""
        cfg_text = BASE_CONFIG.replace("linear1d", "cubic-sensor").replace(
            "exact_gaussian", "constant")
        _, out, tmp_path = workdir
        cfg = _write(tmp_path, cfg_text, name="cubic.ini")
        model = load_config(cfg).model
        np.testing.assert_array_equal(model.drift_matrix, [[0.0]])
        assert model.obs_vector is None
        main(["simulate", "--config", cfg, "--out", out])
        obs = str(tmp_path / "out" / "obs.csv")
        assert main(["compare", "--config", cfg, "--obs", obs,
                     "--out", out]) == 0
        header = (tmp_path / "out" / "compare.csv") \
            .read_text().splitlines()[0]
        assert header == ("t,fpf_mean_1,fpf_var_1,bpf_mean_1,bpf_var_1,"
                          "grid_mean_1,grid_var_1")
        assert "kb" not in (tmp_path / "out" / "summary.txt").read_text()

    def test_compare_respects_seed_list(self, workdir):
        cfg_text = BASE_CONFIG + "\n[compare]\nseeds = 13 14 15\n"
        _, out, tmp_path = workdir
        cfg = _write(tmp_path, cfg_text, name="multi.ini")
        main(["simulate", "--config", cfg, "--out", out])
        obs = str(tmp_path / "out" / "obs.csv")
        assert main(["compare", "--config", cfg, "--obs", obs,
                     "--out", out]) == 0
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "n_compare_seeds=3" in summary
        for seed in (13, 14, 15):
            assert f"fpf_rmse_vs_kb_seed_{seed}=" in summary


class TestCliExitCodes:
    def test_config_error_is_two(self, tmp_path):
        bad = _write(tmp_path, BASE_CONFIG.replace("dt = 0.05\n", ""))
        assert main(["simulate", "--config", bad,
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command, out, where", [
        ("simulate", "notadir", "--out"),
        ("verify", "notadir/sub", "--out"),
        ("filter", "notadir", "[output]"),
    ])
    def test_output_path_through_a_file_is_two(self, tmp_path, capsys,
                                               command, out, where):
        """An output directory that a regular file stands in the way of is
        a config error that names the path, not a traceback with exit 1."""
        main(["simulate", "--config", _write(tmp_path, BASE_CONFIG),
              "--out", str(tmp_path / "run")])
        (tmp_path / "notadir").write_text("a file\n")
        capsys.readouterr()
        path = str(tmp_path / out)
        if where == "--out":
            cfg, out_args = _write(tmp_path, BASE_CONFIG), ["--out", path]
        else:
            cfg, out_args = _write(
                tmp_path, f"{BASE_CONFIG}\n[output]\ndir = {path}\n"), []
        argv = {"simulate": ["simulate", "--config", cfg],
                "verify": ["verify", "taylor"],
                "filter": ["filter", "--config", cfg, "--obs",
                           str(tmp_path / "run" / "obs.csv")]}[command]
        assert main(argv + out_args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            f"fpf-lab: config error: cannot make output directory {path}: ")

    @pytest.mark.parametrize("command, old, new, field", [
        ("simulate", "dt = 0.05", "dt = nan", "`dt` in [time]"),
        ("simulate", "t_end = 0.5", "t_end = inf", "`t_end` in [time]"),
        ("filter", "gain = exact_gaussian",
         "gain = galerkin\ngalerkin_degree = 0",
         "`galerkin_degree` in [filter]"),
        ("filter", "gain = exact_gaussian",
         "gain = exact_gaussian\nadmissibility_eps = nan",
         "`admissibility_eps` in [filter]"),
        ("compare", "[seeds]", "[compare]\nseeds = -4\n\n[seeds]",
         "`seeds` in [compare]"),
        ("compare", "[seeds]", "[compare]\ngrid_halfwidth = 0\n\n[seeds]",
         "`grid_halfwidth` in [compare]"),
        ("simulate", "name = linear1d", "name = linear1d\nx0 = 0.5%",
         "`x0` in [model]"),
        ("simulate", "dt = 0.05", "dt = 1e-300", "`dt` in [time]"),
        ("filter", "[seeds]", "[prior]\ncov = -1\n\n[seeds]",
         "`cov` in [prior]"),
        ("filter", "name = linear1d",
         "name = linear2d\n\n[prior]\ncov = 1 0.5; 0 1", "`cov` in [prior]"),
        ("compare", "[seeds]", "[compare]\ngrid_halfwidth = 1e-300\n\n[seeds]",
         "`grid_halfwidth` in [compare]"),
        ("compare", "[seeds]", "[compare]\ngrid_halfwidth = 1e300\n\n[seeds]",
         "`grid_halfwidth` in [compare]"),
        ("compare", "[seeds]", "[compare]\ngrid_halfwidth = 0.5\n\n[seeds]",
         "`grid_halfwidth` in [compare]"),
        ("compare", "[seeds]", "[prior]\nmean = 100\n\n[seeds]",
         "`grid_halfwidth` in [compare]"),
        ("compare", "[seeds]", "[prior]\nmean = 7\n\n[seeds]",
         "`grid_halfwidth` in [compare]"),
        ("filter", "filter = 13", "filter = 18446744073709551621",
         "`filter` in [seeds]"),
        ("compare", "[seeds]",
         "[compare]\nseeds = 13 18446744073709551616\n\n[seeds]",
         "`seeds` in [compare]"),
        ("compare", "[seeds]", "[compare]\ngrid_points = 1000001\n\n[seeds]",
         "`grid_points` in [compare]"),
        ("compare", "[seeds]", "[compare]\nseeds = 13 13\n\n[seeds]",
         "`seeds` in [compare]"),
        ("simulate", "name = linear1d",
         "dimension = 21\n" + "".join(f"drift_{i} = -x{i}\n"
                                      for i in range(1, 22)) + "obs = x1",
         "`dimension` in [model]"),
        ("filter", _MODEL_TO_FILTER, _MODEL_TO_FILTER.replace(
            "name = linear1d", "dimension = 10\nobs = x1" + "".join(
                f"\ndrift_{i} = -x{i}" for i in range(1, 11))).replace(
            "exact_gaussian", "galerkin\ngalerkin_degree = 4"),
         "`galerkin_degree` in [filter]"),
        ("filter", "n_particles = 50", "n_particles = 10000000000",
         "`n_particles` in [filter]"),
        ("filter", "gain = exact_gaussian",
         "gain = galerkin\ngalerkin_ridge = -1",
         "`galerkin_ridge` in [filter]"),
    ], ids=["dt-nan", "t_end-inf", "degree-0", "eps-nan", "compare-seed-neg",
            "halfwidth-0", "percent", "dt-tiny", "cov-negative",
            "cov-asymmetric", "grid-tiny", "grid-huge", "grid-truncates",
            "prior-off-grid", "prior-half-off-grid", "seed-above-2^64",
            "compare-seed-2^64", "grid-points-huge", "compare-seed-repeated",
            "dimension-21", "galerkin-table-huge", "particles-1e10",
            "ridge-negative"])
    def test_bad_config_value_is_two(self, tmp_path, capsys, command, old,
                                     new, field):
        """Each value is a config error, reported before any file is
        written, not a traceback, a run, or an aborted run."""
        base = _write(tmp_path, BASE_CONFIG)
        main(["simulate", "--config", base, "--out", str(tmp_path)])
        cfg = _write(tmp_path, BASE_CONFIG.replace(old, new), name="bad.ini")
        out = tmp_path / "out"
        argv = [command, "--config", cfg, "--out", str(out)]
        if command != "simulate":
            argv += ["--obs", str(tmp_path / "obs.csv")]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"fpf-lab: config error: field {field}: ")
        assert not out.exists()

    def test_cli_import_leaves_scipy_solvers_unloaded(self):
        """Every command starts without scipy.linalg and scipy.integrate,
        which cost ~0.3 s of start-up; the suites and the grid oracle that
        use them import them when they run."""
        src = os.path.dirname(os.path.dirname(fpf_lab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, fpf_lab.cli; print(sorted(m for m in "
                "('scipy.linalg', 'scipy.integrate') if m in sys.modules))")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"

    def test_undecodable_config_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(BASE_CONFIG.encode().replace(b"linear1d",
                                                     b"linear\xff1d"))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("fpf-lab: config error: cannot read config")

    @pytest.mark.parametrize("argv", [
        ["filter", "--config", "run.ini"],
        ["bogus"],
        [],
    ], ids=["missing-obs", "unknown-command", "no-command"])
    def test_usage_error_is_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("fpf-lab: usage error: ")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["filter", "-h"])
        assert exit_info.value.code == 0
        assert "--obs" in capsys.readouterr().out

    def test_missing_observation_file_is_two(self, tmp_path):
        cfg = _write(tmp_path, BASE_CONFIG)
        assert main(["filter", "--config", cfg,
                     "--obs", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path)]) == 2

    def test_observation_spacing_mismatch_is_three(self, tmp_path):
        cfg = _write(tmp_path, BASE_CONFIG)
        main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        finer = _write(tmp_path, BASE_CONFIG.replace("dt = 0.05", "dt = 0.01"),
                       name="finer.ini")
        assert main(["filter", "--config", finer,
                     "--obs", str(tmp_path / "obs.csv"),
                     "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("content", [
        b"t,y,dz\n",
        b"t,y,dz\n0.05,0.3,0.015\n0.1,abc,0.02\n",
        b"t,y,dz\n0.05,0.3,0.015\n0.1,0.2\n",
        b"t,y,dz\n0.05,nan,nan\n0.1,0.2,0.02\n",
        b"t,y,dz\n0.05,0.3,0.015\n0.1,inf,inf\n",
        b"t,y\n0.05,0.3\n0.1,0.2\n",
        b"t,y,dz\n0.05,\xff\xfe,0.015\n",
    ], ids=["header-only", "non-numeric", "ragged", "nan", "inf",
            "two-columns", "not-utf8"])
    def test_malformed_observations_are_three(self, tmp_path, capsys,
                                              content):
        cfg = _write(tmp_path, BASE_CONFIG)
        obs = tmp_path / "obs.csv"
        obs.write_bytes(content)
        assert main(["filter", "--config", cfg, "--obs", str(obs),
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("fpf-lab: model error: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "fpf_trace.csv").exists()

    def test_closed_form_gain_on_nonlinear_sensor_is_three(self, tmp_path):
        text = BASE_CONFIG.replace("name = linear1d", "name = cubic-sensor")
        cfg = _write(tmp_path, text)
        main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert main(["filter", "--config", cfg,
                     "--obs", str(tmp_path / "obs.csv"),
                     "--out", str(tmp_path)]) == 3

    def test_admissibility_abort_is_four(self, tmp_path):
        text = BASE_CONFIG.replace(
            "gain = exact_gaussian",
            "gain = exact_gaussian\nadmissibility_eps = 10\n"
            "abort_on_inadmissible = true")
        cfg = _write(tmp_path, text)
        main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert main(["filter", "--config", cfg,
                     "--obs", str(tmp_path / "obs.csv"),
                     "--out", str(tmp_path)]) == 4


    def test_diverging_ensemble_is_four(self, tmp_path, capsys):
        """The constant gain on the cubic sensor blows up to +-inf within
        a few hundred steps; the run must stop at the step that went
        non-finite rather than write inf/nan rows with exit 0."""
        text = (BASE_CONFIG.replace("name = linear1d", "name = cubic-sensor")
                .replace("gain = exact_gaussian", "gain = constant")
                .replace("t_end = 0.5", "t_end = 20"))
        cfg = _write(tmp_path, text)
        main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        capsys.readouterr()
        assert main(["filter", "--config", cfg,
                     "--obs", str(tmp_path / "obs.csv"),
                     "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("fpf-lab: filter aborted: ensemble diverged")
        assert " at t=" in err
        assert not (tmp_path / "fpf_trace.csv").exists()

    def test_diverging_seed_of_a_batch_is_four(self, tmp_path, capsys):
        """compare runs its seeds as one batch. When one seed's ensemble
        diverges, the compare stops with exit 4 and one line that names
        that seed, the line its run alone raises; the other seeds run to
        the end alone."""
        text = (BASE_CONFIG.replace("name = linear1d", "name = cubic-sensor")
                .replace("gain = exact_gaussian", "gain = constant")
                + "\n[compare]\nseeds = 13 29 14\n")
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        capsys.readouterr()
        assert main(["compare", "--config", cfg,
                     "--obs", str(tmp_path / "obs.csv"),
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("fpf-lab: compare aborted: ensemble "
                                 "diverged to non-finite states at t=")
        assert err[0].endswith("(seed 29)")
        assert not (out / "compare.csv").exists()

        config = load_config(cfg)
        obs = fpf_lab.read_observations_csv(str(tmp_path / "obs.csv"))
        args = (config.model, obs, config.n_particles)
        rest = (config.filter_cfg, config.prior_mean, config.prior_cov,
                config.dt)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(fpf_lab.FilterAbortError) as alone:
                fpf_lab.run_filter(*args, 29, *rest)
            for seed in (13, 14):
                trace, _ = fpf_lab.run_filter(*args, seed, *rest)
                assert np.isfinite(trace.means).all()
        assert err[0] == f"fpf-lab: compare aborted: {alone.value}"

    def test_diverging_ensemble_writes_one_stderr_line(self, tmp_path):
        """In a fresh interpreter, where no test harness captures warnings,
        the overflow on the way to the divergence abort prints nothing: the
        failure is the one documented line, with exit 4."""
        text = (BASE_CONFIG.replace("name = linear1d", "name = cubic-sensor")
                .replace("gain = exact_gaussian", "gain = constant")
                .replace("t_end = 0.5", "t_end = 20"))
        cfg = _write(tmp_path, text)
        main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        src = os.path.dirname(os.path.dirname(fpf_lab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run(
            [sys.executable, "-m", "fpf_lab.cli", "filter", "--config", cfg,
             "--obs", str(tmp_path / "obs.csv"), "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 4
        lines = run.stderr.splitlines()
        assert len(lines) == 1, run.stderr
        assert lines[0].startswith(
            "fpf-lab: filter aborted: ensemble diverged")

    def test_singular_galerkin_system_is_four(self, tmp_path, capsys):
        """With a point-mass prior and no diffusion every particle sits at
        0, where the Galerkin system without a ridge is singular: the run
        stops with one line that names the time and the seed, and a batch
        of seeds stops with the line of its first seed alone."""
        text = (BASE_CONFIG.replace("name = linear1d",
                                    "name = constant-signal")
                .replace("gain = exact_gaussian",
                         "gain = galerkin\ngalerkin_ridge = 0")
                + "\n[prior]\ncov = 0\n")
        cfg = _write(tmp_path, text)
        main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        capsys.readouterr()
        assert main(["filter", "--config", cfg,
                     "--obs", str(tmp_path / "obs.csv"),
                     "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["fpf-lab: filter aborted: the Galerkin system is "
                       "singular at t=0.05 (seed 13)"]
        assert not (tmp_path / "out" / "fpf_trace.csv").exists()

        config = load_config(cfg)
        obs = fpf_lab.read_observations_csv(str(tmp_path / "obs.csv"))
        args = (config.model, obs, config.n_particles)
        rest = (config.filter_cfg, config.prior_mean, config.prior_cov,
                config.dt)
        with pytest.raises(fpf_lab.FilterAbortError) as batch:
            fpf_lab.run_filters(*args, [13, 29], *rest)
        assert err[0] == f"fpf-lab: filter aborted: {batch.value}"

    @pytest.mark.parametrize("case", ["quadratic-drift", "cubic-h"])
    def test_dense_model_runs_in_3_gib(self, tmp_path, case):
        """d = 20 inline models of dense polynomials simulate and filter
        with the weights of the partial orders they use, not those of
        every partial up to order 3: a drift of dense quadratics (4,600
        terms over all components) needs the values' weights alone (all
        orders take 14 GiB), a dense cubic h (1,541 terms) those of the
        values and the gradient (all orders take 36 GiB)."""
        pytest.importorskip("resource")
        d = 20
        if case == "quadratic-drift":
            quadratics = " + ".join(
                f"0.0001*x{i}*x{j}" for i in range(1, d + 1)
                for j in range(i, d + 1))
            model = "".join(
                f"drift_{i} = -x{i} + " + " + ".join(
                    f"0.001*x{j}" for j in range(1, d + 1) if j != i)
                + f" + {quadratics}\n" for i in range(1, d + 1)) + "obs = x1"
            text = BASE_CONFIG
        else:
            cubics = " + ".join(
                f"0.0001*x{i}*x{j}*x{k}" for i in range(1, d + 1)
                for j in range(i, d + 1) for k in range(j, d + 1))
            model = "".join(f"drift_{i} = -x{i}\n" for i in range(1, d + 1)) \
                + f"obs = x1 + {cubics}"
            text = (BASE_CONFIG.replace("t_end = 0.5", "t_end = 0.25")
                    .replace("n_particles = 50", "n_particles = 10")
                    .replace("gain = exact_gaussian", "gain = constant"))
        cfg = _write(tmp_path, text.replace("name = linear1d",
                                            f"dimension = {d}\n{model}"))
        src = os.path.dirname(os.path.dirname(fpf_lab.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import resource, sys; resource.setrlimit("
                f"resource.RLIMIT_AS, ({3 << 30}, {3 << 30})); "
                "from fpf_lab.cli import main; sys.exit(main(sys.argv[1:]))")
        out = str(tmp_path / "out")
        for argv in (["simulate", "--config", cfg, "--out", out],
                     ["filter", "--config", cfg, "--obs",
                      os.path.join(out, "obs.csv"), "--out", out]):
            run = subprocess.run([sys.executable, "-c", code, *argv],
                                 capture_output=True, text=True, env=env,
                                 timeout=300)
            assert run.returncode == 0, run.stderr
        assert (tmp_path / "out" / "truth.csv").exists()
        assert (tmp_path / "out" / "fpf_trace.csv").exists()

    @pytest.mark.parametrize("drift, obs, what", [
        ("x1^3", "x1", "truth path"),
        ("-1.0*x1", "x1^800", "observation record"),
    ])
    def test_diverging_simulation_is_four(self, tmp_path, capsys, drift,
                                          obs, what):
        """An unstable drift blows the truth path up, a steep sensor
        overflows the observations; either stops with one line and exit 4
        instead of writing inf/nan rows with exit 0."""
        text = f"""\
[model]
dimension = 1
drift_1 = {drift}
obs = {obs}
sigma = 3.0

[time]
dt = 0.05
t_end = 5

[filter]
n_particles = 10
gain = constant

[seeds]
truth = 1
observation = 2
filter = 3
"""
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"fpf-lab: simulate aborted: {what} "
                                 "diverged to non-finite values at t=")
        assert not (out / "truth.csv").exists()
        assert not (out / "obs.csv").exists()

    @pytest.mark.parametrize("rows", [10, 1])
    def test_windowed_observations_run(self, tmp_path, rows):
        """A record that starts after its first step (rows 11.. of 20)
        runs, with the prior row one dt before it."""
        text = BASE_CONFIG.replace("t_end = 0.5", "t_end = 1.0")
        cfg = _write(tmp_path, text)
        main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        lines = (tmp_path / "obs.csv").read_text().splitlines(keepends=True)
        window = tmp_path / "window.csv"
        window.write_text("".join(lines[:1] + lines[11:11 + rows]))
        out = tmp_path / "out"
        assert main(["filter", "--config", cfg, "--obs", str(window),
                     "--out", str(out)]) == 0
        trace = read_trace_csv(str(out / "fpf_trace.csv"))
        np.testing.assert_allclose(trace.times,
                                   0.5 + 0.05 * np.arange(rows + 1),
                                   rtol=1e-12)

    def test_long_record_round_trip_runs(self, tmp_path):
        """Times are written with 12 significant digits, so on a long
        record with a dt that has no short decimal form a spacing read back
        is off by more than 1e-9 of dt; the record simulate wrote must
        still run."""
        text = (BASE_CONFIG.replace("dt = 0.05", "dt = 0.0333333333333333")
                .replace("t_end = 0.5", "t_end = 150")
                .replace("n_particles = 50", "n_particles = 2")
                .replace("gain = exact_gaussian", "gain = constant"))
        cfg = _write(tmp_path, text)
        main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert main(["filter", "--config", cfg,
                     "--obs", str(tmp_path / "obs.csv"),
                     "--out", str(tmp_path / "out")]) == 0

    def test_gapped_observations_are_three(self, tmp_path, capsys):
        """A record with one row missing keeps the configured median
        spacing but is not uniform: a model error, not a traceback."""
        text = BASE_CONFIG.replace("t_end = 0.5", "t_end = 1.0")
        cfg = _write(tmp_path, text)
        main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        lines = (tmp_path / "obs.csv").read_text().splitlines(keepends=True)
        gapped = tmp_path / "gapped.csv"
        gapped.write_text("".join(lines[:5] + lines[6:]))
        capsys.readouterr()
        assert main(["filter", "--config", cfg, "--obs", str(gapped),
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("fpf-lab: model error: ")
        assert err.count("\n") == 1

    def test_zero_prior_variance_in_compare_is_two(self, tmp_path, capsys):
        """The grid reference cannot start from a point mass; that is a
        configuration problem, reported before any filter runs."""
        cfg = _write(tmp_path, BASE_CONFIG + "\n[prior]\ncov = 0\n")
        main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        capsys.readouterr()
        assert main(["compare", "--config", cfg,
                     "--obs", str(tmp_path / "obs.csv"),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fpf-lab: config error: field `cov` in [prior]")
        assert err.count("\n") == 1


class TestCliVerify:
    def test_suite_runs_and_writes_csv(self, tmp_path, capsys):
        assert main(["verify", "poincare", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "suite poincare: PASS" in out
        lines = (tmp_path / "verify_poincare.csv").read_text().splitlines()
        assert lines[0] == "check,point,residual,tolerance,pass"
        assert all(line.endswith(",1") for line in lines[1:])

    def test_suite_from_config_file(self, tmp_path):
        for line in ("suite = poincare", "suite = poincare  # fast"):
            cfg = _write(tmp_path, f"[verify]\n{line}\n")
            out = tmp_path / "out"
            assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
            assert (out / "verify_poincare.csv").exists()
            (out / "verify_poincare.csv").unlink()

    def test_conflicting_suites_rejected(self, tmp_path):
        cfg = _write(tmp_path, "[verify]\nsuite = poincare\n")
        assert main(["verify", "piola", "--config", cfg,
                     "--out", str(tmp_path)]) == 2

    def test_matching_suites_accepted(self, tmp_path):
        cfg = _write(tmp_path, "[verify]\nsuite = poincare\n")
        assert main(["verify", "poincare", "--config", cfg,
                     "--out", str(tmp_path)]) == 0

    def test_unknown_suite_is_config_error(self, tmp_path):
        assert main(["verify", "bogus", "--out", str(tmp_path)]) == 2

    def test_no_suite_is_config_error(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path)]) == 2


class TestSuiteShapes:
    def test_cancellation_suite_row_count(self):
        rows = run_suite("appendixB")
        assert len(rows) == 400     # 8 identities x 50 probes
        assert {r.check for r in rows} \
            == {f"identity-{i}" for i in range(1, 9)}

    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError, match="unknown suite"):
            run_suite("nope")
