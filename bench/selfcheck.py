"""The benchmark's own tests.  Run from the root of a checkout:

    python3 -m pytest -q bench/selfcheck.py

The file name keeps these slow checks out of the library's test suite.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import pytest

import calibrate
import run

sys.path.insert(0, str(run.ROOT / "src"))
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def counts(result: dict) -> dict[str, float]:
    return {name: value for name, (value, unit) in result["trace"]["metrics"].items()
            if unit != "s"}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_outcomes_and_counts_repeat_across_processes(workload):
    """Two processes running the same code give the same per-call record
    (status or verdict, certificate ok flags, iterations) and the same
    per-layer counts, and every expected span fires."""
    first, second = (run.run_worker(workload, 7, 0.0, "trace", perf_counter() + 170)[0]
                     for _ in range(2))
    keys = run.outcome_keys(first["records"])
    assert all(len(k) == 1 for k in keys.values()), keys
    assert keys == run.outcome_keys(second["records"])
    assert counts(first) == counts(second)
    assert first["trace"]["missing"] == []
    assert set(run.per_layer(first)) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_end_to_end_metric_names_and_tail():
    def rec(ident, small, seconds, failed, phase="pass"):
        reasons = ["status INCONCLUSIVE"] if failed else []
        outcome = {"status": "OPTIMAL", "cert_ok": [], "iterations": 9,
                   "reasons": reasons, "confident_wrong": False}
        return {"ident": ident, "small": small, "speed": "python", "phase": phase,
                "seconds": seconds, "ref": calibrate.REF_SECONDS, "outcome": outcome}

    records = [rec("big", False, 2.0, True), rec("big", False, 4.0, True)]
    records += [rec("tiny", True, 0.001 * k, False, "small") for k in range(1, 31)]
    result = {"records": records, "passes": [2.0, 4.0], "min_small": 30, "peak_rss_mb": 100.0}
    ref = calibrate.REF_SECONDS["python"]
    metrics, details = run.end_to_end(result, [(0.5, ref), (0.7, ref), (0.6, ref)])
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert metrics["wall_s"][0] == pytest.approx(3.0 + 0.0155)
    assert metrics["ok_frac"][0] == 0.0 and details["fail_frac"] == 1.0
    # 30 small samples: the 20th is the highest with ten samples beyond it
    assert metrics["small_call_tail_s"][0] == pytest.approx(0.020)
    assert details["small_call_tail_beyond"] == 10
    assert metrics["setup_s"][0] == pytest.approx(0.6)


def test_tail_percentile_does_not_depend_on_run_length():
    short = [0.001 * k for k in range(1, 31)]
    value, pct, beyond = run.tail(short + short, 30)
    assert (value, pct, beyond) == (pytest.approx(0.020), pytest.approx(200 / 3), 20)


class FakeCall:
    speed = "python"

    def __init__(self, ident, small, fails):
        self.ident, self.small, self.fails = ident, small, fails

    def __call__(self):
        return None

    def judge(self, result):
        from workloads import Outcome

        return Outcome("OPTIMAL", 1, (), ("failed",) if self.fails else (), False)


def test_every_pass_makes_the_same_calls():
    """The failed share of a run is the same however many passes fit."""
    import worker

    calls = [FakeCall("a", True, False), FakeCall("b", False, True),
             FakeCall("c", True, True), FakeCall("d", False, False)]
    records = []
    passes = worker.measure(calls, 5, 2, 0.02, records, lambda: calibrate.REF_SECONDS)
    assert len(passes) >= 2
    assert len(records) == len(passes) * (4 + 5 * 2)
    failed, _, _, _ = run.judge_records(records)
    assert failed == len(passes) * (2 + 5)


def test_calibration_uses_each_part_s_process_median():
    ref = calibrate.REF_SECONDS
    records = [{"seconds": 0.2, "speed": speed,
                "ref": {"python": k * ref["python"], "dense": ref["dense"] / k}}
               for speed, k in (("python", 1), ("dense", 2), ("python", 2), ("dense", 3),
                                ("python", 50))]
    assert run.calibrated(records) == [pytest.approx(x) for x in (0.1, 0.4, 0.1, 0.4, 0.1)]


def test_expected_spans_name_traced_layers():
    from tracing import LAYERS
    from workloads import EXPECTED_SPANS

    assert set(EXPECTED_SPANS) == set(run.WORKLOADS)
    for spans in EXPECTED_SPANS.values():
        assert spans <= set(LAYERS)


def test_renamed_function_is_reported_missing(monkeypatch):
    """A traced name that no longer fires cannot read as 0 s unnoticed."""
    import tracing
    from workloads import build_calls

    monkeypatch.setitem(tracing.LAYERS, "cones.validate", [])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        call = build_calls("chi", 0)[0]
        call.prepare()
        call()
    finally:
        tracer.uninstall()
    assert "cones.validate" not in tracer.fired()
    assert {"sdpcore.solve", "relax.assemble"} <= tracer.fired()
