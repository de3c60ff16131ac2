"""Benchmark for logconn: closed-loop workloads with independent accuracy checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0
    python3 bench/run.py --workload all --short

Run from the repository root; the package is imported from ./src.  One
process runs the named workload (or all four, one after another): it
generates the inputs from --seed, sets up, then runs whole rounds of
problems one at a time, each starting after the previous one finished
and was checked, until --seconds have passed.  The last line of
standard output is one JSON object with keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  See bench/README.md.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing

_PROCESS_START = time.perf_counter()

# One BLAS/OpenMP thread, fixed before numpy is first imported (in
# import_program): on a small machine threaded OpenBLAS makes small
# complex SVDs slower and erratic.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = BENCH_DIR / "runs"
SETUP_REPEATS = 3
# Mean time of Reference.time() on the machine the reference figures in
# bench/README.md come from (2-core x86-64 container shared with other
# tenants, Python 3.11, numpy 2.4, OpenBLAS on one thread), at its usual load.
REFERENCE_S = 0.0026
# Before each problem the reference loop runs for this share of the
# previous problem's time (at least once).
REFERENCE_SHARE = 0.05
EPS = 2.220446049250313e-16


class Phase:
    """Tallies of one timed phase: problem wall times, failures, worst deviation."""

    def __init__(self):
        self.times = []
        self.reference = []
        self.failed = 0
        self.unexpected = []
        self.worst = 0.0
        self.rounds = 0

    def add(self, problem, seconds, outcome):
        self.times.append(seconds)
        self.worst = max(self.worst, outcome.worst)
        if not outcome.ok:
            self.failed += 1
            if not problem.expected_failure:
                self.unexpected.append(f"{problem.label}: {'; '.join(outcome.notes[:3])}")

    def speed(self):
        """How fast the machine ran during the phase, against its usual speed."""
        return REFERENCE_S / statistics.mean(self.reference)

    def merge(self, other):
        self.times += other.times
        self.reference += other.reference
        self.failed += other.failed
        self.unexpected += other.unexpected
        self.worst = max(self.worst, other.worst)
        self.rounds += other.rounds


def run_problem(problem, checks, phase, reference, tracer=None):
    """Time the reference loop, run one problem (timed), then check it (untimed)."""
    budget = REFERENCE_SHARE * (phase.times[-1] if phase.times else 0.0)
    spent = 0.0
    while not spent or spent < budget:
        phase.reference.append(reference.time())
        spent += phase.reference[-1]
    if tracer is not None:
        tracer.problem = len(phase.times)
    start = time.perf_counter()
    try:
        result = problem.run()
        error = None
    except Exception:  # a failing problem is counted; the run goes on
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.problem = -1
    outcome = checks.Outcome()
    if error is None:
        try:
            outcome = problem.check(result)
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        outcome.require(f"raised {error.strip().splitlines()[-1]}", False)
        if not problem.expected_failure:
            sys.stderr.write(f"{problem.label}:\n{error}")
    phase.add(problem, seconds, outcome)


def measure(rounds, checks, reference, seconds, tracer=None, round_count=None):
    """Run whole rounds until `seconds` have passed, or exactly `round_count` rounds."""
    phase = Phase()
    start = time.perf_counter()
    while True:
        for problem in rounds[phase.rounds % len(rounds)]:
            run_problem(problem, checks, phase, reference, tracer)
        phase.rounds += 1
        if round_count is not None:
            if phase.rounds >= round_count:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return phase


class Reference:
    """A fixed loop of small complex matrix products and Python arithmetic.

    The machine this benchmark was built on is shared: its speed swings
    by up to 1.7x within seconds as other tenants come and go.  The loop
    is timed before every problem; its mean time over a phase, against
    REFERENCE_S, gives the speed at which the machine ran meanwhile, and
    reported times are scaled by it to the machine's usual speed.  The
    loop is benchmark code, so a change to logconn cannot move it.
    See bench/README.md.
    """

    def __init__(self):
        import numpy as np

        self.m = (np.eye(6) + 0.1 * (1.0 + 0.5j) * np.ones((6, 6))) / 2.0

    def time(self):
        start = time.perf_counter()
        x = self.m
        for _ in range(400):
            x = (x @ self.m) * 0.5 + self.m
            x = x / abs(x[0, 0])
        return time.perf_counter() - start


def end_to_end(phase, setup_s):
    speed = phase.speed()
    times = [t * speed for t in phase.times]
    return {
        "setup_s": (setup_s * speed, "s"),
        "problems_per_s": (len(times) / sum(times), "1/s"),
        "problem_ms_p50": (1e3 * statistics.median(times), "ms"),
        "digits": (-math.log10(min(max(phase.worst, EPS / 2), 1.0)), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, traced, untraced):
    """Per-layer metrics from the traced phase, per problem unless stated."""
    problems = len(traced.times)
    speed = traced.speed()
    wall = sum(traced.times)
    untraced_ms = 1e3 * untraced.speed() * sum(untraced.times) / len(untraced.times)
    metrics = {}

    def per_problem(name, value, unit):
        metrics[name] = (value * (speed if unit == "ms" else 1.0) / problems, unit)

    for layer in tracing.LAYERS:
        per_problem(f"{layer}.self_ms", tracer.self_ms(f"{layer}."), "ms")
    per_problem("bench.self_ms", 1e3 * (wall - tracer.top_level), "ms")
    per_problem("trace.wall_ms", 1e3 * wall, "ms")
    metrics["trace.untraced_ms"] = (untraced_ms, "ms")
    metrics["trace.overhead_pct"] = (100.0 * metrics["trace.wall_ms"][0] / untraced_ms - 100.0, "%")
    per_problem("trace.spans", tracer.span_count, "count")

    for name in ("verify.integrate_fuchsian", "verify.integrate_local"):
        calls, inclusive, _ = tracer.stat(name)
        metrics[f"{name}.ms_per_call"] = (1e3 * speed * inclusive / calls if calls else 0.0, "ms")
    for name in ("verify.integrate_fuchsian", "series.MatrixSeries.eval", "eigen.schur"):
        per_problem(f"{name}.calls", tracer.stat(name)[0], "count")
    for name in (
        "verify.conjugacy_compare",
        "verify.standard_loops",
        "synth.commutative_fuchsian",
        "localforms.normal_form",
        "localforms.gauge_residual",
        "localforms.convergence_diagnostic",
        "localforms.fundamental_check",
        "series.twist",
        "series.MatrixSeries.__mul__",
        "bundles.semistable",
        "bundles.degree",
        "bundles.induced_subbundle",
        "synth.rank3_decide",
        "cli.main",
    ):
        per_problem(f"{name}.self_ms", 1e3 * tracer.stat(name)[2], "ms")
    for name in ("eigen.schur", "eigen.spectral_split", "eigen.norm_log", "eigen.cluster_expm"):
        for r in (4, 8, 16):
            metrics[f"{name}.ms_r{r}"] = (speed * tracer.rank_ms_per_call(name, r), "ms")
    for r in (4, 6, 8, 10):
        metrics[f"bundles.invariant_subspaces.ms_r{r}"] = (speed * tracer.rank_ms_per_call("bundles.invariant_subspaces", r), "ms")
    enum_calls = tracer.stat("bundles.invariant_subspaces")[0]
    subspaces = tracer.counts["bundles.invariant_subspaces.subspaces"]
    metrics["bundles.invariant_subspaces.subspaces"] = (subspaces / enum_calls if enum_calls else 0.0, "count")
    per_problem("documents.decode.self_ms", tracer.self_ms("documents.decode_") + tracer.self_ms("documents.parse_document"), "ms")
    per_problem("documents.encode.self_ms", tracer.self_ms("documents.encode_") + tracer.self_ms("documents.canonical_dumps") + tracer.self_ms("documents.wrap"), "ms")
    per_problem("documents.bytes_out", tracer.counts["documents.canonical_dumps.bytes_out"], "bytes")
    return metrics


def run_workload(name, seed, seconds, trace, short, import_s, modules):
    """Set up, measure and check one workload; returns (phase, metrics)."""
    workloads, checks = modules["workloads"], modules["checks"]
    workdir = RUNS_DIR / f"{name}-seed{seed}-trace{trace}-pid{os.getpid()}"
    docs = workdir / "docs"
    reference = Reference()
    setups = []
    for _ in range(1 if short else SETUP_REPEATS):
        start = time.perf_counter()
        rounds = workloads.build(name, seed, str(docs), short)
        run_problem(rounds[0][0], checks, Phase(), reference)  # untimed warm-up
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)

    if not trace:
        phase = measure(rounds, checks, reference, seconds)
        metrics = end_to_end(phase, setup_s)
    else:
        untraced = measure(rounds, checks, reference, seconds / 2.0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(rounds, checks, reference, 0.0, tracer, round_count=untraced.rounds)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, traced, untraced)
        tracer.dump(workdir / "spans.tsv.gz")
        phase = untraced
        phase.merge(traced)
    shutil.rmtree(docs, ignore_errors=True)
    result = result_object(phase, metrics)
    result["unscaled"] = {"setup_s": setup_s, "problem_s": phase.times, "reference_s": phase.reference}
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return phase, metrics


def result_object(phase, metrics):
    return {
        "correct": not phase.unexpected,
        "attempted": len(phase.times),
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def import_program():
    """Import logconn from ./src and the benchmark modules; None if ./src has no package."""
    if not (SRC / "logconn" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no package at {SRC / 'logconn'}; run from a checkout of the repository\n")
        return None
    sys.path.insert(0, str(SRC))
    import logconn

    if SRC not in Path(logconn.__file__).resolve().parents:
        sys.stderr.write(f"bench: imported logconn from {logconn.__file__}, not from {SRC}\n")
        return None
    import checks
    import workloads

    return {"checks": checks, "workloads": workloads}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    parser.add_argument("--short", action="store_true", help="one round of the smallest problems, for tests")
    args = parser.parse_args(argv)

    modules = import_program()
    if modules is None:
        return 2
    import_s = time.perf_counter() - _PROCESS_START
    names = modules["workloads"].WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in modules["workloads"].WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(modules['workloads'].WORKLOADS)} or all")
    seconds = 0.0 if args.short else args.seconds

    total, combined = Phase(), {}
    for name in names:
        phase, metrics = run_workload(name, args.seed, seconds, args.trace, args.short, import_s, modules)
        total.merge(phase)
        print(f"{name}: attempted {len(phase.times)}, failed {phase.failed}")
        for metric, (value, unit) in metrics.items():
            print(f"  {metric:44s} {value:14.6g} {unit}")
            combined[metric if len(names) == 1 else f"{name}.{metric}"] = (value, unit)
        for line in phase.unexpected[:5]:
            print(f"  unexpected failure: {line}")
    print(json.dumps(result_object(total, combined)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
