"""One benchmark process: set up a workload, then measure or trace it.

Started by ``run.py`` in a fresh process for every set-up sample and every
measurement, so that set-up time and peak memory belong to one workload.
Prints ``READY`` once the inputs are built, then (unless ``--phase setup``)
one JSON line with every call's time and outcome.

Phases:
  setup    build the inputs, print READY, exit.
  measure  whole passes over the corpus, each with a fixed number of rounds
           over the small calls interleaved, until the budget is spent;
           untraced.
  trace    pairs of passes, one untraced and one with the tracer installed,
           while under PASS_SHARE of the budget (at least one pair).

A single closed-loop caller: each call starts when the previous one returns.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
PASS_SHARE = 0.6  # trace: share of the budget in which new pass pairs start
MIN_PASSES = 2  # measure: every call timed twice, allocator high-water mark reached
MIN_SMALL = 60  # measure: small-call samples every run makes, for the tail
SETUP_REFS = 5  # reference runs right after set-up, to calibrate set-up time


def numeric_environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        deps = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"

    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def timed(call, tracer=None):
    """Make one call; return (seconds, Outcome).  Judging is not timed."""
    from workloads import exception_outcome

    if tracer is not None:
        tracer.call = call.ident
    start = perf_counter()
    try:
        result = call()
    except Exception as exc:  # a failing call is counted, not fatal
        return perf_counter() - start, exception_outcome(exc)
    seconds = perf_counter() - start
    return seconds, call.judge(result)


def run_call(call, records, phase, ref, tracer=None) -> float:
    """Time one call, then one run of the reference kernel (see calibrate)."""
    seconds, outcome = timed(call, tracer)
    records.append({"ident": call.ident, "small": call.small, "speed": call.speed,
                    "phase": phase, "seconds": seconds, "ref": ref(),
                    "outcome": asdict(outcome)})
    return seconds


def run_pass(calls, records, phase, ref, tracer=None) -> float:
    return sum(run_call(call, records, phase, ref, tracer) for call in calls)


def warm_up(small) -> None:
    """One untimed round of the small calls: first-call costs are not timed."""
    for call in small:
        timed(call)


def measure(calls, small_rounds: int, min_passes: int, seconds: float, records,
            ref) -> list[float]:
    """Whole passes over the corpus, each with ``small_rounds`` rounds over the
    small calls spread evenly between its calls, so that both kinds of sample
    span the whole run and every pass makes the same calls (the failed share
    of a run does not depend on machine speed).  After ``min_passes``, a pass
    starts only if it is expected to end within the budget."""
    small = [call for call in calls if call.small]
    warm_up(small)
    start = perf_counter()
    passes: list[float] = []
    durations: list[float] = []

    def another_pass() -> bool:
        if len(passes) < min_passes:
            return True
        return perf_counter() - start + statistics.median(durations) <= seconds

    while another_pass():
        began = perf_counter()
        pass_time = 0.0
        for i, call in enumerate(calls):
            pass_time += run_call(call, records, "pass", ref)
            due = (i + 1) * small_rounds // len(calls) - i * small_rounds // len(calls)
            for _ in range(due):
                run_pass(small, records, "small", ref)
        passes.append(pass_time)
        durations.append(perf_counter() - began)
    return passes


def trace(calls, workload: str, seed: int, seconds: float, records, ref) -> dict:
    """Alternate untraced and traced passes; per-layer numbers are raw medians
    over the traced passes."""
    from tracing import Tracer
    from workloads import EXPECTED_SPANS

    warm_up([call for call in calls if call.small])
    start = perf_counter()
    tracers = []
    while not tracers or perf_counter() - start < PASS_SHARE * seconds:
        run_pass(calls, records, "untraced", ref)
        tracer = Tracer()
        tracer.install()
        try:
            run_pass(calls, records, "traced", ref, tracer)
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{workload}-seed{seed}.json"
    spans_file.write_text(json.dumps([t.span_records() for t in tracers]))
    runs = [t.metrics() for t in tracers]
    metrics = {name: (statistics.median(run[name][0] for run in runs), unit)
               for name, (_, unit) in runs[0].items()}
    fired = set.intersection(*(t.fired() for t in tracers))
    return {
        "metrics": metrics,
        "pairs": len(tracers),
        "fired": sorted(fired),
        "missing": sorted(EXPECTED_SPANS[workload] - fired),
        "spans": sum(len(t.spans) for t in tracers),
        "spans_file": str(spans_file.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from calibrate import Reference
    from workloads import SMALL_ROUNDS, build_calls

    calls = build_calls(args.workload, args.seed)
    print("READY", flush=True)
    ref = Reference()
    ref()  # first run pays one-time LAPACK set-up
    setup_ref = statistics.median(ref()["python"] for _ in range(SETUP_REFS))
    if args.phase == "setup":
        print(json.dumps({"setup_ref": setup_ref}), flush=True)
        return 0

    for call in calls:
        call.prepare()
    records: list[dict] = []
    result = {"environment": numeric_environment(), "setup_ref": setup_ref}
    if args.phase == "measure":
        rounds = SMALL_ROUNDS[args.workload]
        per_pass = rounds * sum(call.small for call in calls)
        min_passes = max(MIN_PASSES, math.ceil(MIN_SMALL / per_pass))
        result["passes"] = measure(calls, rounds, min_passes, args.seconds, records, ref)
        result["min_small"] = min_passes * per_pass
    else:
        result["trace"] = trace(calls, args.workload, args.seed, args.seconds, records, ref)
    result["records"] = records
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
