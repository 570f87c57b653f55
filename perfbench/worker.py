"""One benchmark process: set up a workload, run its timed phase, report.

``run.py`` starts this script once per set-up sample; the last process
goes on to the timed phase.  Set-up is everything from interpreter start
to the first timed job: imports, writing the seeded inputs and one
warm-up job.  The process prints one JSON object as its last line.

Untraced (``--trace 0``): whole rounds of the workload's catalogue run
until ``--seconds`` have passed.  Traced (``--trace 1``): one round runs
three times, first untraced, then with spans, then with scalar counters,
and the scalar micro-kernels are timed last.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: operand pairs and repetitions of the scalar micro-kernels
MICRO_PAIRS = 400
MICRO_REPEATS = 15
MICRO_CONDUCTORS = {1: "sweedler", 3: "taft:3", 7: "taft:7"}
#: time kept free before the deadline for the micro-kernels and the report
DEADLINE_MARGIN_S = 10.0


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (median of five), to see host drift."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_job(job, reference: dict) -> tuple[float, str | None]:
    """Latency of one job and the reason it failed, if it did."""
    t0 = time.perf_counter()
    try:
        value = job.fn()
    except (Exception, SystemExit) as exc:
        return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    try:
        return latency, job.check(value, reference)
    except Exception as exc:
        return latency, f"check raised {type(exc).__name__}: {exc}"


class Pass:
    """Latencies and failures of a sequence of jobs."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.wall_s = 0.0

    def run(self, jobs, reference: dict, before_job=None,
            stop_at: float | None = None, longest_s: float = 0.0) -> None:
        """Run jobs in order.  With stop_at (a time.time() value), start no
        job after the first that might still run then, taking longest_s as
        its length."""
        t0 = time.perf_counter()
        for i, job in enumerate(jobs):
            if i and stop_at is not None and time.time() + 1.5 * longest_s > stop_at:
                break
            if before_job is not None:
                before_job(i)
            latency, err = run_job(job, reference)
            self.latencies.append(latency)
            if err is not None:
                self.failures.append(f"{job.key}: {err}")
        self.wall_s += time.perf_counter() - t0


def untraced(workload, rng: random.Random, seconds: float, reference: dict) -> dict:
    timed = Pass()
    rounds = 0
    while rounds == 0 or timed.wall_s < seconds:
        timed.run(workload.round(rng), reference)
        rounds += 1
    lat = timed.latencies
    details = {"rounds": rounds, "jobs": len(lat), "timed_s": timed.wall_s}
    if len(lat) >= 100:  # ten samples beyond the 90th percentile
        details["job_s.p90"] = statistics.quantiles(lat, n=10)[-1]
    metrics = {
        "jobs_per_s": (len(lat) / timed.wall_s, "1/s"),
        "job_s.p50": (statistics.median(lat), "s"),
    }
    return {"metrics": metrics, "details": details, "attempted": len(lat),
            "failures": timed.failures}


def _operands(preset_names: list[str]) -> dict[int, list]:
    """Nonzero structure constants of the presets, by conductor."""
    from hopfqexp.presets import get_preset

    by_conductor: dict[int, list] = {}
    for name in preset_names:
        H = get_preset(name)
        values = [c for vec in H.mult.values() for c in vec.values()]
        values += [c for vec in H.comult for c in vec.values()]
        by_conductor.setdefault(H.conductor, []).extend(values)
    return by_conductor


def scalar_mul_ns(preset_names: list[str], rng: random.Random) -> dict[int, float]:
    """ns per CyclotomicNumber multiply at conductors 1, 3 and 7, on operands
    drawn from the workload's structure constants (from a fixed preset of
    that conductor where the workload has none)."""
    operands = _operands(preset_names)
    result = {}
    for conductor, fallback in MICRO_CONDUCTORS.items():
        values = operands.get(conductor) or _operands([fallback])[conductor]
        pairs = [(rng.choice(values), rng.choice(values)) for _ in range(MICRO_PAIRS)]
        samples = []
        for _ in range(MICRO_REPEATS):
            t0 = time.perf_counter()
            for a, b in pairs:
                a * b
            samples.append((time.perf_counter() - t0) / MICRO_PAIRS * 1e9)
        result[conductor] = statistics.median(samples)
    return result


def traced(workload, rng: random.Random, reference: dict, trace_path: Path,
           stop_at: float) -> dict:
    """One round untraced, then with spans, then with scalar counters.

    Should the run near its deadline, the traced and counting passes stop
    early; their figures are then per job over the jobs they ran.
    """
    import tracing

    jobs = workload.round(rng)
    plain = Pass()
    with tracing.GcTimer() as gc_timer:
        plain.run(jobs, reference)
    longest = max(plain.latencies)

    tracer = tracing.Tracer()
    spanned = Pass()
    tracer.install()
    try:
        spanned.run(jobs, reference, before_job=lambda i: setattr(tracer, "job", i),
                    stop_at=stop_at, longest_s=longest)
    finally:
        tracer.uninstall()
    remainder = tracer.check_conservation(spanned.wall_s)

    counter = tracing.ScalarCounter()
    counted = Pass()
    counter.install()
    try:
        counted.run(jobs, reference, stop_at=stop_at, longest_s=longest)
    finally:
        counter.uninstall()

    micro = scalar_mul_ns(workload.scalar_presets, rng)

    n, n_spanned, n_counted = len(jobs), len(spanned.latencies), len(counted.latencies)
    layers = dict.fromkeys(layer for layer, *_ in tracing.layer_table())
    metrics = {f"{layer}_s": (tracer.self_s.get(layer, 0.0) / n_spanned, "s/job")
               for layer in layers}
    calls = tracer.calls
    metrics.update({name: (value / n_spanned, "count/job") for name, value in {
        "linalg.span_insert_count": calls.get("SpanSolver.insert", 0),
        "qexp.t_map_count": calls.get("qexp.t_map", 0),
        "hopf.mul_dicts_count": calls.get("HopfAlgebraData.mul_dicts", 0),
        "hopf.tensor_mul_count": calls.get("TensorElement.__mul__", 0),
        "linalg.matmul_count": calls.get("ExactMatrix.__matmul__", 0),
        "hopf.order_scan_steps": tracer.order_steps,
    }.items()})
    metrics.update({f"scalars.{kind}_count": (value / n_counted, "count/job")
                    for kind, value in counter.totals().items()})
    metrics["io.bytes"] = (tracer.io_bytes / n_spanned, "bytes/job")
    metrics.update({f"scalars.mul_ns.c{c}": (v, "ns") for c, v in micro.items()})
    metrics["runtime.gc_s"] = (gc_timer.seconds / n, "s/job")
    metrics["runtime.gc_count"] = (gc_timer.count / n, "count/job")
    metrics["trace.overhead_ratio"] = (
        sum(spanned.latencies) / sum(plain.latencies[:n_spanned]), "ratio")
    metrics["trace.untraced_s"] = (remainder / n_spanned, "s/job")

    details = {"jobs": n, "spanned_jobs": n_spanned, "counted_jobs": n_counted,
               "untraced_wall_s": plain.wall_s, "traced_wall_s": spanned.wall_s,
               "counted_wall_s": counted.wall_s, "trace_file": str(trace_path.relative_to(ROOT))}
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({
        **details, "job_keys": [j.key for j in jobs], "spans": tracer.span_records(),
        "calls": dict(sorted(calls.items())), "self_s": dict(sorted(tracer.self_s.items()))}))
    return {"metrics": metrics, "details": details,
            "attempted": n + n_spanned + n_counted,
            "failures": plain.failures + spanned.failures + counted.failures}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", type=Path, required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.time() just before this process was started")
    p.add_argument("--deadline", type=float, required=True,
                   help="time.time() by which this process must have ended")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import hopfqexp

    if Path(hopfqexp.__file__).resolve().parent != (SRC / "hopfqexp").resolve():
        raise SystemExit(f"hopfqexp was imported from {hopfqexp.__file__}, not {SRC}")
    import workloads

    reference = json.loads(args.reference.read_text())
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        _, warm_err = run_job(workload.warmup, reference)
        setup_s = time.time() - args.spawned_at
        result = {"setup_s": setup_s, "attempted": 1,
                  "failures": [] if warm_err is None else [f"warm-up: {warm_err}"]}
        if not args.setup_only:
            rng = random.Random(f"order:{args.workload}:{args.seed}")
            calib_start = calibrate()
            if args.trace:
                trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
                phase = traced(workload, rng, reference, trace_path,
                               stop_at=args.deadline - DEADLINE_MARGIN_S)
            else:
                phase = untraced(workload, rng, args.seconds, reference)
            calib_end = calibrate()
            result["attempted"] += phase["attempted"]
            result["failures"] += phase["failures"]
            result["metrics"] = phase["metrics"]
            result["details"] = phase["details"]
            result["calib_s"] = [calib_start, calib_end]
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
