"""sectorlap benchmark: time to a checked solution on three seeded workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload nested-inversion --seed 1 --seconds 36 --trace 0

One closed-loop caller runs the workload's operations for ``--seconds``
seconds in this process and checks every output.  With ``--trace 0`` the
last line of standard output is a JSON object carrying the end-to-end
metrics; with ``--trace 1`` the same operations run once untraced and once
under the tracer, and the JSON carries the per-layer metrics instead.
``--check-counts`` runs the tracer on the fixed criterion-4 grid and
compares its counts with the recorded baseline.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_run"
SETUP_REPEATS = 9
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile

# criterion-4 grid for exp:a=-1, p=-1, numeric g: counts of sectorlap 0.1.0, made independently
BASELINE_COUNTS = {
    "inner ray integrals": 7776,
    "outer ray integrals": 18,
    "panels": 536802,
    "weighted_eval calls": 1609920,
    "weighted_eval points per call": 16.0,
}

SETUP_CODE = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import sectorlap
import workloads
workloads.first_inputs({name!r}, {seed!r})
"""


@dataclass
class Pass:
    attempted: int = 0
    wall_s: float = 0.0
    times_s: list = field(default_factory=list)  # per operation in order, failed ones included
    raw_times_s: list = field(default_factory=list)  # the same in uncorrected wall time
    passed: list = field(default_factory=list)  # per operation in order
    failures: list = field(default_factory=list)

    @property
    def latencies_s(self) -> list:
        return [took for took, ok in zip(self.times_s, self.passed) if ok]


def measure(ops, seconds=None, limit=None, tracer=None, speed=None) -> Pass:
    """Closed loop: start the next operation when the previous one has been checked.

    Stops once ``seconds`` have elapsed, or after ``limit`` operations.
    Failed operations (raised, nonzero exit, or outside tolerance) are
    counted and kept out of the latency samples.  With a running
    ``hostspeed.SpeedProbe`` as ``speed``, operation times are corrected
    for the host's speed; otherwise they are wall times.
    """
    result = Pass()
    timed = []  # (start, end, time in the speed probe, passed)
    start = perf_counter()
    for op in ops:
        if (limit is not None and result.attempted >= limit) or (
            seconds is not None and perf_counter() - start >= seconds
        ):
            break
        if tracer is not None:
            tracer.op = result.attempted
        result.attempted += 1
        probe_s = speed.spent_s if speed is not None else 0.0
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # every failure is counted, none aborts the run
            t1, reason = perf_counter(), f"{type(exc).__name__}: {exc}"
        else:
            t1 = perf_counter()
            try:
                reason = op.check(out)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        timed.append((t0, t1, speed.spent_s - probe_s if speed is not None else 0.0, reason is None))
        if reason is not None:
            result.failures.append(f"{op.label}: {reason}")
    result.wall_s = perf_counter() - start
    # corrected only now: an operation's speed window reaches one period past its end
    for t0, t1, probe_s, passed in timed:
        result.times_s.append(speed.corrected(t0, t1, probe_s) if speed is not None else t1 - t0)
        result.raw_times_s.append(t1 - t0 - probe_s)
        result.passed.append(passed)
    return result


def tail_percentile(n: int, highest: float) -> float:
    """Highest rung of TAIL_LADDER up to ``highest`` with TAIL_BEYOND of n samples above it."""
    return next(q for q in TAIL_LADDER if q <= highest and (q == 50.0 or n * (1 - q / 100) >= TAIL_BEYOND))


def hd_quantile(ordered: list, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile from ascending samples.

    A Beta-weighted average of the order statistics: it estimates the same
    percentile as the sample quantile with far less scatter when a run holds
    few operations.
    """
    import numpy as np
    from scipy.special import betainc

    n = len(ordered)
    p = q / 100
    edges = betainc((n + 1) * p, (n + 1) * (1 - p), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


def setup_seconds(name: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import sectorlap and generate inputs."""
    code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def end_to_end(run: Pass, setup_s: float, workload) -> tuple[dict, list]:
    """End-to-end metrics; the time metrics cover the workload's whole cycles of inputs.

    Operations of the last, incomplete cycle are run and checked, and count
    in ``passed_frac``, but leave the time metrics out, so that every run
    times the same mix however many operations fit into it.
    """
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed = run.attempted // workload.cycle * workload.cycle or run.attempted
    lat = sorted(took for took, ok in zip(run.times_s[:timed], run.passed[:timed]) if ok)
    if not lat:
        raise SystemExit("no operation passed; there is no latency to report")
    q = tail_percentile(len(lat), workload.tail_percentile)
    notes = [
        f"timed {timed} of {run.attempted} operations (whole cycles: {timed // workload.cycle} of "
        f"{workload.cycle} operations each); op_ms_tail is p{q:g} of {len(lat)} passed operations",
        f"uncorrected wall time: ops_per_s {len(lat) / sum(run.raw_times_s[:timed]):.6g}",
    ]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / sum(run.times_s[:timed]), "1/s"),
        "op_ms_p50": (1e3 * hd_quantile(lat, 50.0), "ms"),
        "op_ms_tail": (1e3 * hd_quantile(lat, q), "ms"),
        "passed_frac": (sum(run.passed) / run.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, notes


def host_lines() -> list:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return [
        f"host: nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} numpy={numpy.__version__}",
        "threads: one caller in one process; BLAS/OpenMP pinned to 1 thread; "
        "no cache dropping or machine-level CPU pinning was done "
        "(the benchmark acts only on its own process)",
    ]


def traced_run(workload, name: str, seed: int, seconds: float, workdir: str):
    """Untraced then traced pass over the same operations; per-layer metrics."""
    import tracer as tracing
    import workloads

    plain = measure(workload.generate(seed, workdir), seconds=seconds / 2)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = measure(workload.generate(seed, workdir), limit=plain.attempted, tracer=tracer)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    notes = [f"traced {traced.attempted} operations; {len(tracer.spans)} spans"]
    defect = Pass()
    if name == "numeric-probes":
        defect = measure(workloads.known_defect_scans(seed))
        notes += [f"known defect: {line}" for line in defect.failures]
    metrics["probe.known_defect_failed_frac"] = (
        len(defect.failures) / defect.attempted if defect.attempted else 0.0,
        "ratio",
    )
    trace_path = WORKDIR / f"trace-{name}-seed{seed}.jsonl"
    tracer.write_spans(trace_path)
    notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
    return metrics, plain, traced, notes


def check_counts() -> int:
    """Trace the criterion-4 numeric grid for exp:a=-1 and compare with BASELINE_COUNTS."""
    import cmath

    import tracer as tracing
    import workloads

    alpha = workloads.ALPHA
    grid = [r * cmath.exp(1j * a) for r in (0.5, 1.0, 2.0) for a in (-alpha / 2, 0.0, alpha / 2)]
    tracer = tracing.Tracer()
    with tracer.installed():
        for z in grid:
            op = workloads.reconstruct_op(workloads.EXP_M1, -1.0, z)
            op.run()
    got = {
        "inner ray integrals": tracer.calls.get("laplace.integrate_ray", 0),
        "outer ray integrals": tracer.calls.get("inversion.integrate_ray", 0),
        "panels": tracer.panels,
        "weighted_eval calls": tracer.eval_calls,
        "weighted_eval points per call": tracer.eval_points / tracer.eval_calls,
    }
    ok = got == BASELINE_COUNTS
    for key, want in BASELINE_COUNTS.items():
        print(f"{key}: {got[key]} (baseline {want}){'' if got[key] == want else '  MISMATCH'}")
    print("counts match the baseline" if ok else "counts differ from the baseline")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="nested-inversion | cli-closed-form | numeric-probes")
    parser.add_argument("--seed", type=int, default=1, help="draws every input of the run")
    parser.add_argument("--seconds", type=float, default=36.0, help="measured time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    parser.add_argument("--check-counts", action="store_true", help="compare tracer counts with the baseline")
    args = parser.parse_args(argv)
    # one thread per numeric library, set before numpy is imported here or in set-up runs
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    if not (SRC / "sectorlap" / "__init__.py").is_file():
        print(f"error: no sectorlap sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.check_counts:
        return check_counts()
    import hostspeed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)

    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as workdir:
        workload.warmup(workdir)
        if args.trace:
            metrics, plain, traced, notes = traced_run(workload, args.workload, args.seed, args.seconds, workdir)
            passes = [plain, traced]
        else:
            with hostspeed.SpeedProbe().running() as speed:
                run = measure(workload.generate(args.seed, workdir), seconds=args.seconds, speed=speed)
            metrics, notes = end_to_end(run, setup_s, workload)
            passes = [run]
            notes.append(
                f"host speed: reference kernel median {1e3 * speed.median_kernel_s():.4f} ms over "
                f"{len(speed.durations)} samples; times are scaled to {1e3 * hostspeed.NOMINAL_S:g} ms"
            )

    attempted = sum(p.attempted for p in passes)
    failures = [line for p in passes for line in p.failures]
    print(f"sectorlap benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in host_lines() + notes:
        print(line)
    print(f"attempted={attempted} failed={len(failures)} failed_frac={len(failures) / max(attempted, 1):.6g}")
    for line in failures:
        print(f"failed: {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
