"""The benchmark's workloads, their inputs and their correctness gates.

Each workload is built from a workload seed (its set-up: model, truth,
observations, config) and then runs passes of program calls. Every call is
one operation: it fails if it raises, returns non-finite output, flags a
particle on a linear model, exits non-zero, or misses its gate. The
package is imported from the src/ directory next to this one, never from an
installed copy, so the benchmark measures the checkout it sits in.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

_SRC = Path(__file__).resolve().parents[1] / "src"
if not (_SRC / "fpf_lab" / "__init__.py").is_file():
    raise ImportError(f"fpf_lab sources not found under {_SRC}")
sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

import fpf_lab  # noqa: E402
import fpf_lab.cli  # noqa: E402
import fpf_lab.filter  # noqa: E402
import fpf_lab.verify  # noqa: E402

if Path(fpf_lab.__file__).resolve().parent != _SRC / "fpf_lab":
    raise ImportError(f"fpf_lab imported from {fpf_lab.__file__}, "
                      f"not from {_SRC}")

P_STAR = float(np.sqrt(2.0) - 1.0)   # stationary Kalman variance, linear1d
DT, T_END, N_PARTICLES = 0.01, 5.0, 1000
STEPS = int(round(T_END / DT))
WINDOW = slice(301, None)             # t > 3: past the transient
RMSE_BUDGET_1D = 0.15 * np.sqrt(P_STAR)
# the degree-3 Galerkin posterior mean's RMSE against Kalman-Bucy on
# linear2d measured 0.015-0.034 over workload seeds 1-15; the gate sits at
# about twice the worst
GALERKIN_RMSE_BOUND = 0.06
KL_BOUND = 0.05


@dataclass
class Ledger:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, what: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems)}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Clock:
    """Times every program call; with a tracer each call is one unit span."""

    def __init__(self):
        self.tracer = None
        self.op_times: List[float] = []
        self._units = itertools.count(1)

    @contextlib.contextmanager
    def op(self):
        unit = next(self._units)
        span = (self.tracer.unit_span(unit) if self.tracer is not None
                else contextlib.nullcontext())
        start = time.perf_counter()
        try:
            with span:
                yield
        finally:
            self.op_times.append(time.perf_counter() - start)


def _derived_seeds(seed: int, n: int) -> List[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, n)]


def _kalman_bucy_means(model, obs, mean, cov) -> np.ndarray:
    state = fpf_lab.KalmanState(np.array(mean, float), np.array(cov, float))
    out = np.empty((len(obs) + 1, model.dim))
    out[0] = state.mean
    for n in range(len(obs)):
        state = fpf_lab.kalman_bucy_step(state, model, float(obs.dz[n]), DT)
        out[n + 1] = state.mean
    return out


def _rmse(means: np.ndarray, reference: np.ndarray) -> float:
    return float(np.sqrt(np.mean((means - reference) ** 2)))


def trace_problems(trace) -> List[str]:
    problems = []
    if not (np.all(np.isfinite(trace.means))
            and np.all(np.isfinite(trace.covs))):
        problems.append("non-finite trace")
    flagged = int(np.sum(trace.n_flagged))
    if flagged:
        problems.append(f"{flagged} flagged particle updates")
    return problems


def criterion1_problems(trace, kb_means: np.ndarray) -> List[str]:
    """The criterion-1 gates for one filter seed on linear1d."""
    problems = trace_problems(trace)
    rmse = _rmse(trace.means, kb_means)
    if not rmse <= RMSE_BUDGET_1D:
        problems.append(f"RMSE {rmse:.4g} > {RMSE_BUDGET_1D:.4g}")
    var_dev = abs(float(np.mean(trace.covs[WINDOW, 0, 0])) - P_STAR) / P_STAR
    if not var_dev <= 0.20:
        problems.append(f"window variance off P* by {100 * var_dev:.1f}%")
    return problems


def galerkin_problems(trace, kb_means: np.ndarray) -> List[str]:
    problems = trace_problems(trace)
    rmse = _rmse(trace.means, kb_means)
    if not rmse <= GALERKIN_RMSE_BOUND:
        problems.append(f"RMSE {rmse:.4g} > {GALERKIN_RMSE_BOUND}")
    return problems


def compare_problems(code: int, summary: Dict[str, float]) -> List[str]:
    if code != 0:
        return [f"exit code {code}"]
    problems = [f"{key} not finite" for key, value in summary.items()
                if not np.isfinite(value)]
    if summary.get("n_flagged_total", 0.0) != 0.0:
        problems.append(f"{summary['n_flagged_total']:g} flagged updates")
    kl = summary.get("kl_fpf_vs_grid", np.inf)
    if not kl <= KL_BOUND:
        problems.append(f"kl_fpf_vs_grid {kl:.4g} > {KL_BOUND}")
    return problems


def _guarded(ledger: Ledger, what: str, clock: Clock, fn, *args):
    """Run one timed program call; an exception is a failed operation."""
    try:
        with clock.op():
            return fn(*args)
    except Exception as exc:  # the benchmark must finish and report it
        ledger.record(what, [f"raised {type(exc).__name__}: {exc}"])
        return None


class Workload:
    name = ""
    why = ""
    # what one pass reports besides its wall time: (metric, unit)
    extra_units: Dict[str, str] = {}

    def __init__(self, seed: int, workdir: Path):
        """The workload's set-up: everything a pass needs, from the seed;
        workdir is where it may write files."""
        self.quality: Dict[str, List[float]] = {}

    def run_pass(self, index: int, ledger: Ledger, clock: Clock) -> None:
        raise NotImplementedError

    def note(self, metric: str, value: float) -> None:
        self.quality.setdefault(metric, []).append(value)

    def extras(self, op_time: float) -> Dict[str, float]:
        """Report-only metrics from all passes; op_time is the summed
        (scaled) time of the program calls."""
        return {}


class _FilterWorkload(Workload):
    model_name = ""
    seeds_per_pass = 1
    extra_units = {"psteps_per_s": "1/s", "rmse_vs_kb": "1"}

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        truth_seed, obs_seed, self.filter_base = _derived_seeds(seed, 3)
        self.model = fpf_lab.make_model(self.model_name)
        self.prior = fpf_lab.default_prior(self.model_name)
        truth = fpf_lab.simulate_truth(self.model, self.prior[0], DT, T_END,
                                       truth_seed)
        self.obs = fpf_lab.synthesize_observations(self.model, truth,
                                                   obs_seed)
        self.kb_means = _kalman_bucy_means(self.model, self.obs, *self.prior)
        self.runs = 0

    def run_pass(self, index, ledger, clock):
        for i in range(self.seeds_per_pass):
            fseed = self.filter_base + index * self.seeds_per_pass + i
            what = f"run_filter seed {fseed}"
            out = _guarded(ledger, what, clock, fpf_lab.filter.run_filter,
                           self.model, self.obs, N_PARTICLES, fseed,
                           self.config, *self.prior)
            if out is None:
                continue
            self.runs += 1
            trace = out[0]
            self.note("rmse_vs_kb", _rmse(trace.means, self.kb_means))
            ledger.record(what, self.problems(trace, self.kb_means))

    def extras(self, op_time):
        return {"psteps_per_s": N_PARTICLES * STEPS * self.runs / op_time,
                "rmse_vs_kb": max(self.quality.get("rmse_vs_kb", [np.nan]))}


class FpfLinear1d(_FilterWorkload):
    name = "fpf-linear1d"
    why = ("criterion-1 north star: exact gain on linear1d, N=1000, 500 steps, "
           "20 filter seeds a pass; rng and the admissibility det dominate")
    model_name = "linear1d"
    seeds_per_pass = 20
    config = fpf_lab.FilterConfig(gain_method="exact_gaussian")
    problems = staticmethod(criterion1_problems)


class GalerkinLinear2d(_FilterWorkload):
    name = "galerkin-linear2d"
    why = ("degree-3 Galerkin gain on linear2d, N=1000, 500 steps, one filter "
           "seed a pass; the gain solve is most of a step, rng a few percent")
    model_name = "linear2d"
    seeds_per_pass = 1
    config = fpf_lab.FilterConfig(gain_method="galerkin", galerkin_degree=3)
    problems = staticmethod(galerkin_problems)


_COMPARE_INI = """\
[model]
name = linear1d

[time]
dt = {dt}
t_end = {t_end}

[filter]
n_particles = {n}
gain = exact_gaussian

[seeds]
truth = {truth}
observation = {observation}
filter = {filter}

[compare]
seeds = {compare}
grid_points = 1601

[output]
dir = {out}
"""


class CompareLinear1d(Workload):
    name = "compare-linear1d"
    why = ("fpf-lab simulate + compare in-process, 6 seeds on the CLI's "
           "default pool; grid oracle, bootstrap PF, KDE and CSV I/O")
    extra_units = {"rmse_vs_kb": "1", "kl_vs_grid": "1"}

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        seeds = _derived_seeds(seed, 8)
        self.out = workdir / "out"
        self.config = workdir / "compare.ini"
        workdir.mkdir(parents=True, exist_ok=True)
        self.config.write_text(_COMPARE_INI.format(
            dt=DT, t_end=T_END, n=N_PARTICLES, truth=seeds[0],
            observation=seeds[1], filter=seeds[2],
            compare=" ".join(map(str, seeds[2:])), out=self.out))
        # parse the config once, as the CLI will: builds the model
        fpf_lab.cli.load_config(str(self.config))

    def _cli(self, ledger, clock, argv) -> Optional[int]:
        with contextlib.redirect_stdout(io.StringIO()):
            return _guarded(ledger, argv[0], clock, fpf_lab.cli.main, argv)

    def run_pass(self, index, ledger, clock):
        code = self._cli(ledger, clock, ["simulate", "--config",
                                         str(self.config)])
        if code is not None:
            ledger.record("simulate",
                          [] if code == 0 else [f"exit code {code}"])
        code = self._cli(ledger, clock, [
            "compare", "--config", str(self.config),
            "--obs", str(self.out / "obs.csv")])
        if code is None:
            return
        summary = {}
        if code == 0:
            summary = self.read_summary()
            table = np.loadtxt(self.out / "compare.csv", delimiter=",",
                               skiprows=1)
            if not np.all(np.isfinite(table)):
                summary["compare.csv"] = np.nan
            rmses = [v for k, v in summary.items()
                     if k.startswith("fpf_rmse_vs_kb_seed_")]
            self.note("rmse_vs_kb", max(rmses, default=np.nan))
            self.note("kl_vs_grid", summary.get("kl_fpf_vs_grid", np.nan))
        ledger.record("compare", compare_problems(code, summary))

    def read_summary(self) -> Dict[str, float]:
        summary = {}
        for line in (self.out / "summary.txt").read_text().splitlines():
            key, _, value = line.partition("=")
            try:
                summary[key] = float(value)
            except ValueError:
                pass        # model= and gain= carry names
        return summary

    def extras(self, op_time):
        return {metric: max(values)
                for metric, values in self.quality.items()}


class VerifySuites(Workload):
    name = "verify-suites"
    why = ("all seven verify suites (969 checks) in a seed-chosen order; the "
           "only workload that runs verify, identities and fields")
    extra_units = {"checks_per_s": "1/s"}

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.order = [fpf_lab.verify.SUITE_NAMES[i] for i in
                      np.random.default_rng(seed).permutation(
                          len(fpf_lab.verify.SUITE_NAMES))]
        self.checks = 0

    def run_pass(self, index, ledger, clock):
        for suite in self.order:
            rows = _guarded(ledger, suite, clock, fpf_lab.verify.run_suite,
                            suite)
            for row in rows or ():
                self.checks += 1
                ledger.record(
                    f"{suite} {row.check}[{row.point}]",
                    [] if row.passed and np.isfinite(row.residual) else
                    [f"residual {row.residual:.3g} > {row.tolerance:.3g}"])

    def extras(self, op_time):
        return {"checks_per_s": self.checks / op_time}


WORKLOADS = {w.name: w for w in (FpfLinear1d, GalerkinLinear2d,
                                 CompareLinear1d, VerifySuites)}
