"""End-to-end acceptance checklist.

Nine numbered criteria pin the numerical contract of the package:
benchmark accuracy against the closed-form filter, gain-solver agreement,
the bulk identity suites, grid-oracle tracking with divergence decay, and
the admissibility guard. Each test prints one `[criterion N] ... PASS|FAIL`
line with the measured numbers, then asserts the same conditions.
"""

import time

import numpy as np
import pytest

from fpf_lab import (
    FilterConfig,
    GainField,
    GridDensity,
    KalmanState,
    check_admissible,
    constant_gain,
    ensemble_stats,
    f_divergence_grid,
    galerkin_gain,
    get_generator,
    kalman_bucy_step,
    kde_density,
    kushner_grid_step,
    make_model,
    run_filters,
    sample_initial_ensemble,
    simulate_truth,
    synthesize_observations,
)
from fpf_lab.identities import quadratic_term_identity
from fpf_lab.verify import run_suite
from test_identities import _random_gaussian, random_vector_field

P_STAR = np.sqrt(2.0) - 1.0             # stationary variance of linear1d


def _report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} "
              f"({detail})")


def _suite_summary(name):
    rows = run_suite(name)
    n_fail = sum(not r.passed for r in rows)
    return rows, n_fail, f"{len(rows)} checks, {n_fail} failed"


@pytest.fixture(scope="module")
def linear_benchmark():
    """20-seed filter run on the linear model, dt=0.01, T=5, N=1000,
    closed-form gain, against the matched Kalman-Bucy trace; the seeds run
    as one batch."""
    model = make_model("linear1d")
    dt, t_end, n_particles = 0.01, 5.0, 1000
    truth = simulate_truth(model, np.zeros(1), dt, t_end, seed=101)
    obs = synthesize_observations(model, truth, seed=202)
    cfg = FilterConfig(gain_method="exact_gaussian")

    state = KalmanState(np.zeros(1), np.eye(1))
    kb_means = np.empty(len(obs) + 1)
    kb_means[0] = state.mean[0]
    for i in range(len(obs)):
        state = kalman_bucy_step(state, model, float(obs.dz[i]), dt)
        kb_means[i + 1] = state.mean[0]

    window = slice(301, None)           # t > 3: past the transient
    rmses, window_vars = [], []
    flagged = 0
    start = time.perf_counter()
    traces, _ = run_filters(model, obs, n_particles, range(20), cfg,
                            [0.0], [[1.0]])
    for trace in traces:
        rmses.append(float(np.sqrt(np.mean(
            (trace.means[:, 0] - kb_means) ** 2))))
        window_vars.append(float(np.mean(trace.covs[window, 0, 0])))
        flagged += int(trace.n_flagged.sum())
    elapsed = time.perf_counter() - start
    return {"rmses": np.array(rmses), "window_vars": np.array(window_vars),
            "flagged": flagged, "elapsed": elapsed}


def test_criterion_1_linear_benchmark(linear_benchmark, capsys):
    b = linear_benchmark
    budget = 0.15 * np.sqrt(P_STAR)
    max_rmse = float(b["rmses"].max())
    var_dev = float(np.max(np.abs(b["window_vars"] - P_STAR))) / P_STAR
    ok = max_rmse <= budget and var_dev <= 0.20 and b["elapsed"] <= 30.0
    _report(capsys, 1, "posterior mean tracks the closed-form filter", ok,
            f"max RMSE {max_rmse:.4f} <= {budget:.4f}, steady variance "
            f"within {100 * var_dev:.1f}% of {P_STAR:.4f}, "
            f"{b['elapsed']:.1f}s for 20 seeds")
    assert max_rmse <= budget
    assert var_dev <= 0.20
    assert b["elapsed"] <= 30.0


def test_criterion_2_gain_solvers_agree(capsys):
    start = time.perf_counter()
    ens = sample_initial_ensemble(1, 100000, [0.0], [[1.0]], seed=7)
    stats = ensemble_stats(ens, lambda s: s[:, 0])
    ones = np.ones((ens.n, 1))
    const = constant_gain(ens.states, stats, ones)
    g3 = galerkin_gain(ens.states, stats, ones, degree=3)
    g1 = galerkin_gain(ens.states, stats, ones, degree=1, ridge=0.0)
    err_const = abs(float(const.k[0, 0]) - 1.0)
    err_g3 = abs(float(g3.k_at(np.array([[0.0]]))[0, 0]) - 1.0)
    gap_g1 = float(np.max(np.abs(g1.k - const.k)))
    elapsed = time.perf_counter() - start
    ok = (err_const <= 0.02 and err_g3 <= 0.05 and gap_g1 <= 1e-10
          and elapsed <= 10.0)
    _report(capsys, 2, "gain solvers agree on the Gaussian case", ok,
            f"constant err {err_const:.2e} <= 0.02, degree-3 err "
            f"{err_g3:.2e} <= 0.05, degree-1 vs constant {gap_g1:.1e} "
            f"<= 1e-10, {elapsed:.1f}s")
    assert err_const <= 0.02
    assert err_g3 <= 0.05
    assert gap_g1 <= 1e-10
    assert elapsed <= 10.0


def test_criterion_3_cofactor_divergence(capsys):
    rows, n_fail, detail = _suite_summary("piola")
    _report(capsys, 3, "cofactor columns are divergence-free", n_fail == 0,
            detail)
    assert n_fail == 0


def test_criterion_4_generator_invariance(capsys):
    rows, n_fail, detail = _suite_summary("el-invariance")
    _report(capsys, 4, "stationarity residuals are generator-invariant",
            n_fail == 0, detail)
    assert n_fail == 0


def test_criterion_5_expansion_orders(capsys):
    rows, n_fail, detail = _suite_summary("taylor")
    _report(capsys, 5, "leading-order expansion equations close", n_fail == 0,
            detail)
    assert n_fail == 0


def test_criterion_6_cancellation_ledger(capsys):
    rows_b, fail_b, detail_b = _suite_summary("appendixB")
    rows_l, fail_l, detail_l = _suite_summary("lm2")

    rng = np.random.default_rng(606)
    p = _random_gaussian(2, rng)
    k = random_vector_field(2, 3, rng, scale=0.4)
    x = rng.uniform(-0.6, 0.6, size=2)
    # the telescoped identities take their outer derivative by complex
    # step, so their gaps sit at roundoff
    gap = max(float(np.max(np.abs(np.subtract(*quadratic_term_identity(
        ident, p, k, x[None]))))) for ident in (6, 7, 8))

    ok = fail_b == 0 and fail_l == 0 and gap <= 1e-13
    _report(capsys, 6, "quadratic-term cancellations hold", ok,
            f"identities: {detail_b}; expansion: {detail_l}; "
            f"telescoped gap {gap:.1e} <= 1e-13")
    assert fail_b == 0
    assert fail_l == 0
    assert gap <= 1e-13


def test_criterion_7_grid_oracle(capsys):
    model = make_model("linear1d")
    dt = 0.01

    # moment tracking over 100 steps
    truth = simulate_truth(model, np.zeros(1), dt, 1.0, seed=31)
    obs = synthesize_observations(model, truth, seed=32)
    grid = GridDensity.gaussian(np.linspace(-8.0, 8.0, 1601), 0.0, 1.0)
    state = KalmanState(np.zeros(1), np.eye(1))
    worst_mean, worst_var = 0.0, 0.0
    for i in range(len(obs)):
        kushner_grid_step(grid, model, float(obs.dz[i]), dt)
        state = kalman_bucy_step(state, model, float(obs.dz[i]), dt)
        km, kv = float(state.mean[0]), float(state.cov[0, 0])
        scale = max(abs(km), np.sqrt(kv))
        worst_mean = max(worst_mean, abs(grid.mean() - km) / scale)
        worst_var = max(worst_var, abs(grid.var() - kv) / kv)
    moments_ok = worst_mean <= 0.02 and worst_var <= 0.02

    # KDE divergence against the grid posterior at T = 2, shrinking in N
    truth2 = simulate_truth(model, np.zeros(1), dt, 2.0, seed=41)
    obs2 = synthesize_observations(model, truth2, seed=42)
    grid2 = GridDensity.gaussian(np.linspace(-8.0, 8.0, 1601), 0.0, 1.0)
    for i in range(len(obs2)):
        kushner_grid_step(grid2, model, float(obs2.dz[i]), dt)
    cfg = FilterConfig(gain_method="exact_gaussian")
    kl = get_generator("kl")
    medians = {}
    for n_particles in (4000, 8000):
        vals = []
        _, final = run_filters(model, obs2, n_particles, range(10), cfg,
                               [0.0], [[1.0]])
        for states in final.states:
            dens = kde_density(states[:, 0], grid2.x)
            vals.append(f_divergence_grid(dens, grid2, kl))
        medians[n_particles] = float(np.median(vals))
    kl_ok = medians[4000] <= 0.05 and medians[8000] < medians[4000]

    ok = moments_ok and kl_ok
    _report(capsys, 7, "grid oracle tracks and KDE divergence shrinks", ok,
            f"worst mean gap {100 * worst_mean:.2f}% / var gap "
            f"{100 * worst_var:.2f}% <= 2%, median KL {medians[4000]:.4f} "
            f"<= 0.05 at N=4000, {medians[8000]:.4f} at N=8000")
    assert moments_ok
    assert kl_ok


def test_criterion_8_no_uniform_poincare_constant(capsys):
    rows, n_fail, detail = _suite_summary("poincare")
    _report(capsys, 8, "norm ratio grows on receding balls", n_fail == 0,
            detail)
    assert n_fail == 0


def test_criterion_9_admissibility_guard(linear_benchmark, capsys):
    dz = 0.2
    k_jac = np.zeros((3, 1, 1))
    k_jac[1, 0, 0] = -1.0 / dz          # I + dz dK/dx = 0 for particle 1
    field = GainField(k=np.zeros((3, 1)), k_jac=k_jac, u=np.zeros((3, 1)),
                      u_jac=np.zeros((3, 1, 1)))
    flags, dets = check_admissible(field, dz=dz, dt=0.01)
    singular_ok = bool(flags[1]) and not flags[0] and not flags[2]
    benign_ok = linear_benchmark["flagged"] == 0
    ok = singular_ok and benign_ok
    _report(capsys, 9, "admissibility guard flags exactly the singular map",
            ok, f"constructed singular particle flagged: {singular_ok}, "
                f"benchmark flags: {linear_benchmark['flagged']}")
    assert singular_ok
    assert benign_ok
