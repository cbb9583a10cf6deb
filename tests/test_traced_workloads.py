"""One traced pass of the benchmark's workloads.

The benchmark's tracer (perfbench/tracing.py) wraps package functions by
name and reads their arguments and results to count work, so a renamed
function or a changed argument shape fails the traced run's operations
while the untraced tests pass. One pass each of galerkin-linear2d,
compare-linear1d and verify-suites, built from the benchmark's own
workload classes, calls every site whose counter the tracer reads.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

TRACED = ("galerkin-linear2d", "compare-linear1d", "verify-suites")


def test_traced_passes_fail_no_operation(tmp_path):
    """Each workload's first pass, at the benchmark's default seed 1,
    under the tracer: no operation fails, and the spans carry every
    counter that a per-layer metric sums."""
    counters = set()
    for name in TRACED:
        workload = workloads.WORKLOADS[name](1, tmp_path / name)
        ledger, clock = workloads.Ledger(), workloads.Clock()
        clock.tracer = tracing.Tracer()
        with tracing.instrumented(clock.tracer):
            workload.run_pass(0, ledger, clock)
        assert ledger.attempted > 0, name
        assert ledger.failed == 0, (name, ledger.problems)
        counters.update(key for span in clock.tracer.spans
                        for key, _ in span[6] or ())
    summed = {how for _, _, _, how, _ in tracing.LAYER_METRICS
              if how not in ("self", "calls")}
    assert summed <= counters, summed - counters
