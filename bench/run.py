"""Benchmark for coposos: certified-bound wall time, small-call latency,
failures and memory on four workloads, with a traced per-layer split.

    python3 bench/run.py --workload alpha-K --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs a separate traced process and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable report.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("alpha-K", "alpha-Q", "member", "chi")
SETUP_PROBES = 4  # set-up-only processes, on top of the measuring one
TIME_LIMIT = 170.0  # seconds for the whole run, all processes included
TAIL_BEYOND = 10  # samples the tail percentile must leave beyond it


class BenchError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, seconds: float, phase: str, deadline: float):
    """Start a fresh worker; return (its JSON result, raw set-up seconds)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--phase", phase]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(0.0, deadline - start), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        out, _ = proc.communicate()
    finally:
        killer.cancel()
    if perf_counter() >= deadline:
        raise BenchError(f"{phase} worker exceeded the time limit")
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{phase} worker failed (exit code {proc.returncode})")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{phase} worker printed no result")
    return json.loads(lines[-1]), setup


def tail(samples: list[float], guaranteed: int) -> tuple[float, float, int]:
    """Highest percentile that leaves at least TAIL_BEYOND samples beyond it
    in a run of ``guaranteed`` samples, the fewest every run makes, so that
    runs of different lengths report the same percentile:
    (value, percentile, samples beyond)."""
    ordered = sorted(samples)
    n = len(ordered)
    kept = min(TAIL_BEYOND, guaranteed - 1)
    beyond = n * kept // guaranteed
    return ordered[n - 1 - beyond], 100.0 * (1 - kept / guaranteed), beyond


def outcome_keys(records: list[dict]) -> dict[str, set[str]]:
    """Per instance, the distinct (status, certificate flags, iterations) seen;
    a deterministic program shows exactly one."""
    keys = defaultdict(set)
    for rec in records:
        o = rec["outcome"]
        keys[rec["ident"]].add(json.dumps([o["status"], o["cert_ok"], o["iterations"]]))
    return dict(keys)


def judge_records(records: list[dict]):
    """Failed-call count, confidently wrong instances, instances whose outcome
    changed between repeats, and the reason each failing instance failed."""
    unsteady = [ident for ident, keys in outcome_keys(records).items() if len(keys) > 1]
    failed = sum(bool(rec["outcome"]["reasons"]) for rec in records)
    wrong = sorted({rec["ident"] for rec in records if rec["outcome"]["confident_wrong"]})
    failures = {rec["ident"]: "; ".join(rec["outcome"]["reasons"])
                for rec in records if rec["outcome"]["reasons"]}
    return failed, wrong, unsteady, failures


def pass_time(records: list[dict], times: list[float], phase: str | None = None) -> float:
    """One pass over the corpus: sum over calls of the call's median time."""
    by_ident = defaultdict(list)
    for rec, seconds in zip(records, times):
        if phase is None or rec["phase"] == phase:
            by_ident[rec["ident"]].append(seconds)
    return sum(statistics.median(v) for v in by_ident.values())


def calibrated(records: list[dict]) -> list[float]:
    scale = calibrate.factors([r["ref"] for r in records])
    return [r["seconds"] * scale[r["speed"]] for r in records]


def end_to_end(result: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """End-to-end metrics from a measuring run and (raw set-up seconds,
    reference seconds) pairs; times are calibrated (see calibrate.py)."""
    records = result["records"]
    scaled = calibrated(records)
    wall = pass_time(records, scaled)
    small = [seconds for rec, seconds in zip(records, scaled) if rec["small"]]
    setup = [raw * calibrate.REF_SECONDS["python"] / ref for raw, ref in setups]
    tail_value, tail_pct, beyond = tail(small, result["min_small"])
    passed = [r for r in records if r["phase"] == "pass"]
    fail_frac = sum(bool(r["outcome"]["reasons"]) for r in passed) / len(passed)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "small_call_p50_s": (statistics.median(small), "s"),
        "small_call_tail_s": (tail_value, "s"),
        "ok_frac": (1.0 - fail_frac, "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    details = {
        "setup_samples_s": setup,
        "raw_setup_s": statistics.median(raw for raw, _ in setups),
        "raw_wall_s": pass_time(records, [r["seconds"] for r in records]),
        "raw_small_call_p50_s": statistics.median(r["seconds"] for r in records if r["small"]),
        "ref_median_s": {part: statistics.median(r["ref"][part] for r in records)
                         for part in calibrate.REF_SECONDS},
        "passes": len(result["passes"]),
        "raw_pass_s": result["passes"],
        "small_calls": len(small),
        "small_call_tail_percentile": tail_pct,
        "small_call_tail_beyond": beyond,
        "fail_frac": fail_frac,
        "pass_calls": len(passed),
    }
    return metrics, details


def per_layer(result: dict) -> dict:
    """Per-layer metrics of a traced run.  Layer times are scaled by the
    traced passes' calibrated over raw time, the pass times are calibrated."""
    records = result["records"]
    scaled = calibrated(records)
    untraced = pass_time(records, scaled, "untraced")
    traced = pass_time(records, scaled, "traced")
    scale = traced / pass_time(records, [r["seconds"] for r in records], "traced")
    metrics = {name: (value * scale if unit == "s" else value, unit)
               for name, (value, unit) in result["trace"]["metrics"].items()}
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.traced_wall_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "coposos" / "__init__.py").is_file():
        print(f"error: no coposos sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + TIME_LIMIT
    try:
        if args.trace:
            result, _ = run_worker(args.workload, args.seed, args.seconds, "trace", deadline)
        else:
            setups = []
            for _ in range(SETUP_PROBES):
                probe, setup = run_worker(args.workload, args.seed, args.seconds, "setup",
                                          deadline)
                setups.append((setup, probe["setup_ref"]))
            result, setup = run_worker(args.workload, args.seed, args.seconds, "measure",
                                       deadline)
            setups.append((setup, result["setup_ref"]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = result["records"]
    failed, wrong, unsteady, failures = judge_records(records)
    problems = [f"confidently wrong: {ident}" for ident in wrong]
    problems += [f"outcome changed between repeats: {ident}" for ident in unsteady]
    if args.trace:
        info = result["trace"]
        metrics = per_layer(result)
        problems += [f"expected span never fired: {name}" for name in info["missing"]]
        details = {k: v for k, v in info.items() if k != "metrics"}
    else:
        metrics, details = end_to_end(result, setups)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print("details " + json.dumps(details))
    for ident, reason in failures.items():
        print(f"  failed {ident}: {reason}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
