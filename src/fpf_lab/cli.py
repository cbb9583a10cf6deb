"""Command-line experiment runner.

    fpf-lab simulate --config run.ini [--out DIR]
    fpf-lab filter   --config run.ini --obs obs.csv [--out DIR]
    fpf-lab compare  --config run.ini --obs obs.csv [--out DIR]
    fpf-lab verify   SUITE [--out DIR]          (suite may also come from
                                                 [verify] suite = ... in
                                                 a --config file)

Exit codes: 0 success, 1 verification failures, 2 configuration error
(an output directory that cannot be made is one), 3 model/precondition
error, 4 runtime filter abort.

Every command is a deterministic function of its configuration file: all
randomness flows from the explicit seeds.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config, read_ini
from .divergence import f_divergence_grid, get_generator, kde_density
from .filter import (FilterAbortError, run_filter, run_filters,
                     write_trace_csv)
from .grid import GridDensity, GridNegativityError
from .model import ModelValidationError, sample_initial_ensemble, validate_model
from .reference import (KalmanState, WeightCollapseError, bootstrap_pf_step,
                        kalman_bucy_step, kushner_grid_step, weighted_stats)
from .sde import (read_observations_csv, simulate_truth,
                  synthesize_observations, write_observations_csv,
                  write_truth_csv)
from .table import FMT, write_table
from .verify import SUITE_NAMES, CheckRow, run_suite, write_suite_csv


def _out_dir(args, cfg: Optional[ExperimentConfig]) -> str:
    out = args.out or (cfg.out_dir if cfg is not None else ".")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc}") \
            from None
    return out


def _load_observations(path: str):
    try:
        return read_observations_csv(path)
    except OSError as exc:
        raise ConfigError(f"cannot read observations {path}: {exc}") from None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    validate_model(cfg.model)
    out = _out_dir(args, cfg)
    truth = simulate_truth(cfg.model, cfg.x0, cfg.dt, cfg.t_end,
                           cfg.seed_truth)
    obs = synthesize_observations(cfg.model, truth, cfg.seed_observation)
    truth_path = os.path.join(out, "truth.csv")
    obs_path = os.path.join(out, "obs.csv")
    write_truth_csv(truth_path, truth)
    write_observations_csv(obs_path, obs)
    print(f"wrote {truth_path} ({len(truth.times)} rows) and "
          f"{obs_path} ({len(obs)} rows)")
    return 0


def cmd_filter(args) -> int:
    cfg = load_config(args.config)
    validate_model(cfg.model)
    out = _out_dir(args, cfg)
    obs = _load_observations(args.obs)
    trace, _ = run_filter(cfg.model, obs, cfg.n_particles, cfg.seed_filter,
                          cfg.filter_cfg, cfg.prior_mean, cfg.prior_cov,
                          cfg.dt)
    trace_path = os.path.join(out, "fpf_trace.csv")
    write_trace_csv(trace_path, trace)
    flagged = int(trace.n_flagged.sum())
    print(f"wrote {trace_path} ({len(trace.times)} rows, "
          f"{flagged} flagged particle updates)")
    return 0


def _rmse(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean((a - b) ** 2)))


def _moment_path(state, step, moments, dz):
    """Means and variances of a filter state at t=0 and after each
    step(state, dz_n); moments(state) returns its (mean, covariance)."""
    path = [moments(state)]
    for dz_n in dz:
        state = step(state, float(dz_n))
        path.append(moments(state))
    return (np.array([mean for mean, _ in path]),
            np.array([np.diag(cov) for _, cov in path]))


# largest |trapezoid mass - 1| of the sampled prior that the compare grid
# may hold; beyond it the grid truncates or under-resolves the prior, and
# the oracle would silently answer for a different one
GRID_MASS_TOL = 1e-3


def _grid_prior(cfg: ExperimentConfig) -> GridDensity:
    """The 1-D prior sampled on the [compare] grid, normalized, once the
    grid is known to hold it."""
    mean, var = float(cfg.prior_mean[0]), float(cfg.prior_cov[0, 0])
    if not var > 0.0:
        raise ConfigError(
            "field `cov` in [prior]: the grid reference needs a positive "
            f"prior variance, got {var:g}")
    halfwidth, points = cfg.grid_halfwidth, cfg.grid_points
    x = np.linspace(-halfwidth, halfwidth, points)
    prior = GridDensity.gaussian(x, mean, var, normalize=False)
    if not abs(prior.mass - 1.0) <= GRID_MASS_TOL:
        raise ConfigError(
            f"field `grid_halfwidth` in [compare]: the grid [-{halfwidth:g}, "
            f"{halfwidth:g}] with `grid_points` = {points} holds mass "
            f"{prior.mass:.6g} of the prior N({mean:g}, {var:g}), more than "
            f"{GRID_MASS_TOL:g} from 1; widen or refine the grid")
    return prior.normalize()


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    validate_model(cfg.model)
    model, d, dt = cfg.model, cfg.model.dim, cfg.dt
    grid_density = _grid_prior(cfg) if d == 1 else None
    out = _out_dir(args, cfg)
    obs = _load_observations(args.obs)

    fpf_traces, fpf_final = run_filters(model, obs, cfg.n_particles,
                                        cfg.compare_seeds, cfg.filter_cfg,
                                        cfg.prior_mean, cfg.prior_cov, dt)
    fpf_trace = fpf_traces[0]

    # (means, variances) per filter, in compare.csv column order
    paths = {"fpf": (fpf_trace.means,
                     np.diagonal(fpf_trace.covs, axis1=1, axis2=2))}
    if model.drift_matrix is not None and model.obs_vector is not None:
        paths["kb"] = _moment_path(
            KalmanState(cfg.prior_mean.copy(), cfg.prior_cov.copy()),
            lambda state, dz: kalman_bucy_step(state, model, dz, dt),
            lambda state: (state.mean, state.cov), obs.dz)
    paths["bpf"] = _moment_path(
        (sample_initial_ensemble(d, cfg.n_particles, cfg.prior_mean,
                                 cfg.prior_cov, cfg.seed_filter),
         np.zeros(cfg.n_particles)),
        lambda state, dz: bootstrap_pf_step(model, *state, dz, dt)[:2],
        lambda state: weighted_stats(state[0].states, state[1]), obs.dz)
    if grid_density is not None:
        # kushner_grid_step updates the density in place, so grid_density
        # is the final posterior afterwards
        paths["grid"] = _moment_path(
            grid_density,
            lambda density, dz: kushner_grid_step(density, model, dz, dt),
            lambda density: ([density.mean()], [[density.var()]]), obs.dz)

    compare_path = os.path.join(out, "compare.csv")
    header, columns = ["t"], [fpf_trace.times]
    for name, moments in paths.items():
        for stat, values in zip(("mean", "var"), moments):
            header += [f"{name}_{stat}_{i + 1}"
                       for i in range(values.shape[1])]
            columns.append(values)
    write_table(compare_path, header, np.column_stack(columns))

    lines: List[str] = [
        f"model={cfg.model.name}",
        f"dt={FMT % cfg.dt}",
        f"t_end={FMT % cfg.t_end}",
        f"n_particles={cfg.n_particles}",
        f"gain={cfg.filter_cfg.gain_method}",
        f"n_compare_seeds={len(cfg.compare_seeds)}",
    ]
    if "kb" in paths:
        kb_means, bpf_means = paths["kb"][0], paths["bpf"][0]
        rmses = []
        for seed, trace in zip(cfg.compare_seeds, fpf_traces):
            r = _rmse(trace.means, kb_means)
            rmses.append(r)
            lines.append(f"fpf_rmse_vs_kb_seed_{seed}={FMT % r}")
        lines.append(f"fpf_mean_rmse_vs_kb={FMT % float(np.mean(rmses))}")
        lines.append(f"bpf_rmse_vs_kb={FMT % _rmse(bpf_means, kb_means)}")
        if "grid" in paths:
            lines.append("grid_mean_rmse_vs_kb="
                         + FMT % _rmse(paths["grid"][0], kb_means))
    total_flagged = sum(int(trace.n_flagged.sum()) for trace in fpf_traces)
    lines.append(f"n_flagged_total={total_flagged}")
    lines.append(f"fpf_final_var_11={FMT % fpf_trace.covs[-1, 0, 0]}")
    if "kb" in paths:
        lines.append(f"kb_final_var_11={FMT % paths['kb'][1][-1, 0]}")
    if grid_density is not None:
        fpf_density = kde_density(fpf_final.states[0, :, 0],
                                  grid_density.x)
        for gen in ("kl", "hellinger", "tv"):
            val = f_divergence_grid(fpf_density, grid_density,
                                    get_generator(gen))
            lines.append(f"{gen}_fpf_vs_grid={FMT % val}")
    summary_path = os.path.join(out, "summary.txt")
    with open(summary_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {compare_path} and {summary_path}")
    for line in lines:
        print("  " + line)
    return 0


def _resolve_suite(args) -> str:
    suite = args.suite
    if args.config is not None:
        from_file = read_ini(args.config).get("verify", "suite",
                                              fallback=None)
        if from_file is not None:
            if suite is not None and suite != from_file:
                raise ConfigError(
                    f"suite given both on the command line ({suite!r}) and "
                    f"in the config ({from_file!r})")
            suite = from_file
    if suite is None:
        raise ConfigError(
            "no suite given; pass one as an argument or via [verify] suite")
    if suite not in SUITE_NAMES:
        raise ConfigError(
            f"unknown suite {suite!r}; available: {', '.join(SUITE_NAMES)}")
    return suite


def cmd_verify(args) -> int:
    suite = _resolve_suite(args)
    out = _out_dir(args, None)
    rows: List[CheckRow] = run_suite(suite)
    csv_path = os.path.join(out, f"verify_{suite}.csv")
    write_suite_csv(csv_path, rows)

    by_check: dict = {}
    for row in rows:
        passed, total, worst = by_check.get(row.check, (0, 0, 0.0))
        by_check[row.check] = (passed + int(row.passed), total + 1,
                               max(worst, row.residual))
    all_pass = True
    for check in sorted(by_check):
        passed, total, worst = by_check[check]
        status = "pass" if passed == total else "FAIL"
        all_pass &= passed == total
        print(f"{check}: {passed}/{total} {status} "
              f"(worst residual {worst:.3e})")
    print(f"suite {suite}: {'PASS' if all_pass else 'FAIL'} "
          f"({len(rows)} checks, results in {csv_path})")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as one `fpf-lab: ...` line, like every other
    failure; the exit code stays argparse's 2. Subcommand parsers are
    built from the same class."""

    def error(self, message):
        self.exit(2, f"fpf-lab: usage error: {message} (see {self.prog} -h)\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="fpf-lab",
        description="Feedback particle filter experiments and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate",
                           help="simulate a truth path and observations")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_filt = sub.add_parser("filter",
                            help="run the feedback particle filter")
    p_filt.add_argument("--config", required=True)
    p_filt.add_argument("--obs", required=True)
    p_filt.add_argument("--out", default=None)
    p_filt.set_defaults(func=cmd_filter)

    p_cmp = sub.add_parser("compare",
                           help="run FPF against the reference filters")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--obs", required=True)
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_ver = sub.add_parser("verify", help="run an identity-check suite")
    p_ver.add_argument("suite", nargs="?", default=None,
                       metavar="|".join(SUITE_NAMES))
    p_ver.add_argument("--config", default=None)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # a diverging run overflows on its way to the finiteness guards of
        # fpf_step, simulate_truth and synthesize_observations, which
        # report it as one line with its exit code
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"fpf-lab: config error: {exc}", file=sys.stderr)
        return 2
    except ModelValidationError as exc:
        print(f"fpf-lab: model error: {exc}", file=sys.stderr)
        return 3
    except (FilterAbortError, WeightCollapseError,
            GridNegativityError) as exc:
        print(f"fpf-lab: {args.command} aborted: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
