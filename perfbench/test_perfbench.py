"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, covered, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _span(sid, parent, start, end, name="x"):
    return Span(sid, parent, name, 1, start, end)


# --------------------------------------------------------------------------
# self-time arithmetic
# --------------------------------------------------------------------------

def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1, 3), (2, 5), (7, 8)], 0.0, 10.0) == pytest.approx(5.0)
    assert covered([(1, 3), (3, 4)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(-5, 2), (9, 20)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(11, 12)], 0.0, 10.0) == 0.0


def test_self_time_of_nested_spans():
    spans = [_span(1, 0, 0.0, 10.0), _span(2, 1, 1.0, 4.0),
             _span(3, 2, 2.0, 3.0), _span(4, 1, 6.0, 7.0)]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)


def test_overlapping_children_are_subtracted_once():
    # two worker threads running children of the same parent at once
    spans = [_span(1, 0, 0.0, 10.0), _span(2, 1, 1.0, 6.0),
             _span(3, 1, 2.0, 8.0)]
    assert self_times(spans)[1] == pytest.approx(10.0 - 7.0)


def test_worker_thread_spans_nest_under_the_main_thread_span():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "filter.run_filter")

    def outer():
        workers = [threading.Thread(target=inner) for _ in range(3)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in workers)

    with tracer.unit_span(1):
        tracer.wrap(outer, "cli.cmd_compare")()
    spans = {s[2]: Span._make(s) for s in tracer.spans}
    runs = [Span._make(s) for s in tracer.spans if s[2] == "filter.run_filter"]
    assert len(runs) == 3
    assert {s.parent for s in runs} == {spans["cli.cmd_compare"].id}
    assert spans["cli.cmd_compare"].parent == spans["unit"].id


def test_layer_metrics_sum_self_time_and_counts_per_pass():
    spans = [
        Span(1, 0, "unit", 1, 0.0, 10.0),
        Span(2, 1, "rng.standard_normal", 1, 1.0, 3.0, (("draws", 8),)),
        Span(3, 2, "rng.uniform01", 1, 1.5, 2.5),
        Span(4, 1, "gain.check_admissible", 1, 4.0, 5.0,
             (("particles", 4), ("flagged", 1))),
    ]
    m = tracing.layer_metrics(spans, n_passes=2)
    assert m["rng.self_s"] == pytest.approx(2.0 / 2)
    assert m["rng.draws"] == 4
    assert m["rng.ns_per_draw"] == pytest.approx(1e9 * 1.0 / 4)
    assert m["gain.flagged"] == 0.5
    assert m["unattributed.self_s"] == pytest.approx(7.0 / 2)
    assert m["verify.checks"] == 0


def test_instrumented_restores_every_site():
    import fpf_lab.filter
    import fpf_lab.model
    before = (fpf_lab.filter.run_filter, vars(fpf_lab.model.SdeModel)[
        "obs_grad_at"])
    with tracing.instrumented(Tracer()):
        assert fpf_lab.filter.run_filter is not before[0]
    after = (fpf_lab.filter.run_filter, vars(fpf_lab.model.SdeModel)[
        "obs_grad_at"])
    assert after == before


# --------------------------------------------------------------------------
# names and the spec
# --------------------------------------------------------------------------

def test_metric_and_workload_names_are_well_formed():
    spec = run.spec(workloads, tracing)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m
    for w in spec["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_committed_benchmark_json_matches_the_spec():
    committed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert committed == run.spec(workloads, tracing)


# --------------------------------------------------------------------------
# gates
# --------------------------------------------------------------------------

def _linear1d_trace(kb_means):
    import fpf_lab
    m = len(kb_means)
    return fpf_lab.FilterTrace(
        times=np.arange(m) * 0.01, dz=np.zeros(m),
        means=kb_means.copy(),
        covs=np.full((m, 1, 1), workloads.P_STAR),
        h_hat=kb_means[:, 0].copy(), n_flagged=np.zeros(m, dtype=int))


@pytest.mark.parametrize("spoil", ["flag", "nan", "drift", "variance"])
def test_failing_gate_raises_failed_frac(spoil):
    kb = np.linspace(0.0, 0.3, 501).reshape(-1, 1)      # (steps + 1, d)
    ledger = workloads.Ledger()
    ledger.record("clean", workloads.criterion1_problems(
        _linear1d_trace(kb), kb))
    assert ledger.failed_frac == 0.0

    bad = _linear1d_trace(kb)
    if spoil == "flag":
        bad.n_flagged[7] = 1
    elif spoil == "nan":
        bad.means[9, 0] = np.nan
    elif spoil == "drift":
        bad.means[:, 0] += 0.2
    else:
        bad.covs[:] = 2 * workloads.P_STAR
    ledger.record("spoiled", workloads.criterion1_problems(bad, kb))
    assert ledger.failed == 1
    assert ledger.failed_frac == 0.5


def test_compare_gate_checks_exit_code_flags_and_kl():
    ok = {"kl_fpf_vs_grid": 0.002, "n_flagged_total": 0.0}
    assert workloads.compare_problems(0, ok) == []
    assert workloads.compare_problems(4, {})
    assert workloads.compare_problems(0, {**ok, "kl_fpf_vs_grid": 0.2})
    assert workloads.compare_problems(0, {**ok, "n_flagged_total": 3.0})
    assert workloads.compare_problems(0, {**ok, "tv_fpf_vs_grid": np.inf})


def test_failed_checks_and_raising_calls_count_in_a_pass(monkeypatch, tmp_path):
    import fpf_lab.verify

    def fake_suite(name):
        if name == "lemmaD":
            raise ValueError("boom")
        return [fpf_lab.verify.CheckRow("c", "0", 0.0, 1.0, True),
                fpf_lab.verify.CheckRow("c", "1", 2.0, 1.0, name != "piola")]

    monkeypatch.setattr(fpf_lab.verify, "run_suite", fake_suite)
    wl = workloads.VerifySuites(3, tmp_path)
    ledger = workloads.Ledger()
    wl.run_pass(0, ledger, workloads.Clock())
    # six suites return two rows each, one raises: 13 operations
    assert ledger.attempted == 13
    assert ledger.failed == 2
    assert ledger.failed_frac == pytest.approx(2 / 13)
