"""fpf-lab benchmark: one workload per invocation, single thread of load.

    python3 perfbench/run.py --workload fpf-linear1d --seed 1 --seconds 24 \\
        --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

Set-up (package import, model, truth and observations) is timed in this
process and in fresh child interpreters; setup_s is their median. Then
whole passes of the workload run until the next one would end after
--seconds (at least MIN_PASSES). With --trace 0 nothing is wrapped and the
end-to-end metrics are reported; with --trace 1 untraced and traced passes
alternate, and the per-layer metrics come from the traced ones. The last line of standard
output is the JSON result; a full record (environment, samples, failures,
spans) is written under .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 6          # child interpreters timing set-up, besides this one

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.1},
]
RUN_SECONDS = 24
MIN_PASSES = 3            # untraced passes a run makes even past --seconds

# The 2-core sandbox this benchmark was defined on changes speed by up to
# 1.7x over minutes: other tenants share its cores and memory. A fixed
# calibration kernel, timed before the first pass and after every pass,
# tracks that speed, and each pass (and each set-up) is reported scaled by
# CAL_REF / (mean kernel time around it): in seconds at the speed where the
# kernel takes CAL_REF. Of the kernels tried (an interpreter loop, small,
# mid-sized and large NumPy arrays), calls on large arrays tracked all four
# workloads best, the compare's thread pool included. Raw seconds are kept
# in the run record.
CAL_REF = 0.010

# times set-up in a fresh interpreter: argv = perfbench dir, workload,
# seed, work directory
_PROBE = ("import sys, time\n"
          "t0 = time.perf_counter()\n"
          "sys.path.insert(0, sys.argv[1])\n"
          "import workloads\n"
          "workloads.WORKLOADS[sys.argv[2]](int(sys.argv[3]), "
          "workloads.Path(sys.argv[4]))\n"
          "print(time.perf_counter() - t0)\n")


def spec(workloads, tracing) -> dict:
    """The content of BENCHMARK.json."""
    per_layer = [{"name": m, "unit": u, "better": b}
                 for m, u, b, *_ in tracing.LAYER_METRICS]
    per_layer += [{"name": m, "unit": u, "better": b}
                  for m, u, b in tracing.DERIVED_METRICS]
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.WORKLOADS.values()],
        "end_to_end": END_TO_END,
        "per_layer": per_layer,
    }


def environment() -> dict:
    """What ran: cores, interpreter, libraries, BLAS threads, revision."""
    import numpy
    import scipy
    env = {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "FPF_LAB_THREADS": os.environ.get("FPF_LAB_THREADS"),
        "git_rev": None,
    }
    env.update(_openblas())
    try:
        env["git_rev"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass    # not a git checkout
    return env


def _openblas() -> dict:
    """OpenBLAS version and thread count as loaded, left unchanged."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", ""),
                               ("openblas_", "64_")):
            try:
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                get_config = getattr(lib, f"{prefix}get_config{suffix}")
            except AttributeError:
                continue
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            return {"openblas": get_config().decode(),
                    "openblas_threads": get_threads()}
    return {"openblas": None, "openblas_threads": None}


def _probe_setup(workload: str, seed: int, workdir: Path) -> float:
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(HERE), workload, str(seed),
         str(workdir)], capture_output=True, text=True, timeout=120,
        check=True)
    return float(done.stdout.strip().splitlines()[-1])


def calibrate() -> float:
    """Seconds the calibration kernel takes now (median of five)."""
    import numpy as np
    base = np.linspace(-1.0, 1.0, 400_000)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        x = base
        for _ in range(6):
            x = np.sqrt(np.abs(x) + 1.0) * 0.5
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _fmt(values) -> str:
    return ", ".join(f"{v:.4g}" for v in values)


def tail(samples) -> str:
    """Median and the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.4g} s, n={n}"
    if n > 10:
        k = n - 10      # the k-th smallest has exactly ten samples above it
        text += f", p{100 * k / n:.4g} {ordered[k - 1]:.4g} s"
    return text


@dataclass
class Measurement:
    ledger: object
    clock: object
    tracer: object
    walls: dict = field(default_factory=lambda: {False: [], True: []})
    raw: dict = field(default_factory=lambda: {False: [], True: []})
    cals: list = field(default_factory=list)   # before pass i: cals[i]


def measure(wl, workloads, seconds: float, trace: bool) -> Measurement:
    """Run whole passes until the next would overrun, and at least
    MIN_PASSES untraced (with tracing: one untraced and one traced); passes
    alternate untraced and traced when tracing."""
    from tracing import Tracer, instrumented
    m = Measurement(workloads.Ledger(), workloads.Clock(),
                    Tracer() if trace else None, cals=[calibrate()])
    start = time.perf_counter()
    index = 0
    while True:
        traced = trace and len(m.walls[True]) < len(m.walls[False])
        first_op = len(m.clock.op_times)
        m.clock.tracer = m.tracer if traced else None
        began = time.perf_counter()
        with instrumented(m.tracer) if traced else contextlib.nullcontext():
            wl.run_pass(index, m.ledger, m.clock)
        pass_time = time.perf_counter() - began
        raw = sum(m.clock.op_times[first_op:])
        m.cals.append(calibrate())
        m.raw[traced].append(raw)
        m.walls[traced].append(raw * CAL_REF / (0.5 * (m.cals[-2]
                                                       + m.cals[-1])))
        index += 1
        done = (m.walls[True] and m.walls[False] if trace
                else len(m.walls[False]) >= MIN_PASSES)
        if done and time.perf_counter() + pass_time > start + seconds:
            break
    m.clock.tracer = None
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the checkout root")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(HERE))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import tracing

    if args.write_spec:
        text = json.dumps(spec(workloads, tracing), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{', '.join(workloads.WORKLOADS)}")

    workdir = OUT / args.workload
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_raw = [time.perf_counter() - t0]
    cals = [calibrate()]
    for _ in range(SETUP_PROBES):
        setup_raw.append(_probe_setup(args.workload, args.seed, workdir))
        cals.append(calibrate())
    # the first sample is scaled by the kernel time right after it, each
    # probe by the mean of the kernel times around it
    around = cals[:1] + [0.5 * (a + b) for a, b in zip(cals, cals[1:])]
    setup = [t * CAL_REF / c for t, c in zip(setup_raw, around)]

    m = measure(wl, workloads, args.seconds, bool(args.trace))
    untraced = m.walls[False]
    e2e = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(untraced), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024.0, "MiB"),
    }
    op_time = sum(untraced) + sum(m.walls[True])
    report = {k: (v, wl.extra_units[k])
              for k, v in wl.extras(op_time).items()}
    report["failed_frac"] = (m.ledger.failed_frac, "1")

    env = environment()
    lines = [f"perfbench {args.workload} seed={args.seed} "
             f"trace={args.trace}",
             "env: " + ", ".join(f"{k}={v}" for k, v in env.items()),
             f"setup: {len(setup)} samples [{_fmt(setup)}] s, "
             f"raw [{_fmt(setup_raw)}] s",
             f"passes: untraced {len(untraced)} [{_fmt(untraced)}] s, "
             f"raw [{_fmt(m.raw[False])}] s",
             f"calibration kernel: {tail(cals + m.cals)}",
             f"program calls, raw: {tail(m.clock.op_times)}"]
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env, "cal_ref_s": CAL_REF,
              "setup_samples": setup, "setup_raw": setup_raw,
              "setup_cal": cals, "pass_walls": m.walls, "pass_raw": m.raw,
              "pass_cal": m.cals, "op_times": m.clock.op_times,
              "report": report, "problems": m.ledger.problems}

    OUT.mkdir(exist_ok=True)
    if args.trace:
        spans = m.tracer.spans
        traced = m.walls[True]
        layers = tracing.layer_metrics(spans, len(traced))
        layers["trace.overhead_s"] = (statistics.median(traced)
                                      - statistics.median(untraced))
        units = {m: u for m, u, *_ in tracing.LAYER_METRICS}
        units.update({m: u for m, u, _ in tracing.DERIVED_METRICS})
        metrics = {m: (v, units[m]) for m, v in layers.items()}
        lines.append(f"passes: traced {len(traced)} [{_fmt(traced)}] s, "
                     f"{len(spans)} spans")
        m.tracer.write_csv(str(OUT / f"{args.workload}.spans.csv"))
    else:
        metrics = e2e
    record["metrics"] = {m: v for m, (v, _) in {**e2e, **metrics}.items()}

    for name, (value, unit) in {**metrics, **report}.items():
        lines.append(f"  {name} = {value:.6g} {unit}")
    lines.append(f"operations: {m.ledger.attempted} attempted, "
                 f"{m.ledger.failed} failed")
    lines += [f"  FAILED {p}" for p in m.ledger.problems]
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print("\n".join(lines))
    print(json.dumps({
        "correct": m.ledger.failed == 0,
        "attempted": m.ledger.attempted,
        "failed": m.ledger.failed,
        "metrics": {m: {"value": v, "unit": u}
                    for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
