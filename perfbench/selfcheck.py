"""Self-check of the benchmark's own arithmetic on synthetic inputs.

run.py calls `run()` before measuring and refuses to report when it fails;
`python3 perfbench/selfcheck.py` runs it alone.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import layers
import stats
from tracing import Span
from workloads import WORKLOADS


def _percentiles() -> list[str]:
    failures = []
    values = [float(v) for v in range(200, 0, -1)]  # unsorted input
    for p, expected in ((90, (180.0, 20)), (50, (100.0, 100)), (99, (198.0, 2))):
        if stats.percentile(values, p) != expected:
            failures.append(f"p{p} of 1..200 is {stats.percentile(values, p)}")
    # 100 samples: exactly ten lie beyond the 90th percentile
    if stats.percentile([float(v) for v in range(1, 101)], 90) != (90.0, 10):
        failures.append("p90 of 1..100 does not leave ten samples beyond it")
    if stats.percentile([float(v) for v in range(1, 16)], 50) != (8.0, 7):
        failures.append("p50 of 1..15 is not the 8th value")
    return failures


def _self_time() -> list[str]:
    spans = [
        Span(1, None, "runner.execute_plan", 0.0, 10.0, None, {}),
        # two workers' children overlap; the third runs past its parent's end
        Span(2, 1, "runner.episode", 1.0, 4.0, 1, {}),
        Span(3, 1, "runner.episode", 3.0, 6.0, 2, {}),
        Span(4, 1, "runner.episode", 8.0, 12.0, 3, {}),
        Span(5, 2, "engine.open", 1.5, 2.5, 1, {}),
        Span(6, 2, "engine.open", 2.0, 3.0, 1, {}),
    ]
    own = stats.self_times(spans)
    expected = {1: 3.0, 2: 1.5, 3: 3.0, 4: 4.0, 5: 1.0, 6: 1.0}
    failures = [
        f"self time of span {k} is {own[k]}, expected {v}"
        for k, v in expected.items() if abs(own[k] - v) > 1e-12
    ]
    modules = layers.module_self_times(spans)
    if abs(modules["runner"] - 11.5) > 1e-12 or abs(modules["engine"] - 2.0) > 1e-12:
        failures.append(f"module self times {modules}")
    return failures


def _reference_scaling() -> list[str]:
    timeline = [("ref", 0.2), ("t", 1.0), ("ref", 0.6), ("ref", 1.0),
                ("t", 2.0), ("rate", 10.0), ("ref", 0.4), ("t", 3.0)]
    got = stats.scale_by_reference(timeline, "ref", 0.4, {"t": 1, "rate": -1}, 2)
    # up to two references on each side: (0.2 | 0.6, 1.0), (0.6, 1.0 | 0.4)
    # for both the second time and the rate, and (1.0, 0.4 | none) at the end
    expected = {"t": [1.0 * 0.4 / 0.6, 2.0 * 0.4 / (2.0 / 3), 3.0 * 0.4 / 0.7],
                "rate": [10.0 * (2.0 / 3) / 0.4]}
    if set(got) != set(expected) or any(
        len(got[k]) != len(v) or any(abs(a - b) > 1e-12 for a, b in zip(got[k], v))
        for k, v in expected.items()
    ):
        return [f"reference scaling gave {got}, expected {expected}"]
    return []


def _failure_counting() -> list[str]:
    expected = {("a", "x"): (1, 1), ("a", "y"): (1, 0), ("b", "x"): (0, 0)}

    def ep(model, case, rep, ex, ea, outcome="completed", error=None):
        return {"model": model, "case_id": case, "repetition": rep,
                "indicator": ex, "exact": bool(ea), "outcome": outcome, "error": error}

    episodes = [
        ep("a", "x", 0, 1, 1),
        ep("a", "x", 1, 1, 1, error="harness error: boom"),
        ep("a", "y", 0, 1, 1),  # EA should be 0
        ep("a", "y", 1, 1, 0),
        ep("b", "x", 0, 0, 0),
        ep("b", "x", 0, 0, 0),  # duplicate
        # b/x r1 missing
        ep("c", "x", 0, 1, 1),  # not planned
    ]
    planned, failed, reasons = stats.count_failures(expected, 2, episodes)
    failures = []
    if (planned, failed) != (6, 4):
        failures.append(f"planned/failed {planned}/{failed}, expected 6/4")
    if len(reasons) != 5:
        failures.append(f"{len(reasons)} reasons, expected 5: {reasons}")
    if stats.count_failures(expected, 1, episodes[:1] + [ep("a", "y", 0, 1, 0),
                                                          ep("b", "x", 0, 0, 0)])[1:] != (0, []):
        failures.append("a clean run counts failures")
    return failures


def _benchmark_json(path: Path, end_to_end: dict[str, str]) -> list[str]:
    spec = json.loads(path.read_text())
    failures = []
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != end_to_end:
        failures.append(f"BENCHMARK.json end_to_end {declared} != emitted {end_to_end}")
    declared_workloads = [w["name"] for w in spec["workloads"]]
    if declared_workloads != list(WORKLOADS):
        failures.append(f"BENCHMARK.json workloads {declared_workloads} != {list(WORKLOADS)}")
    layer_spec = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    emitted = [(m.name, m.unit, m.better) for m in layers.PER_LAYER]
    if layer_spec != emitted:
        failures.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")
    return failures


def run(benchmark_json: Path, end_to_end: dict[str, str]) -> list[str]:
    return (_percentiles() + _self_time() + _reference_scaling() + _failure_counting()
            + _benchmark_json(benchmark_json, end_to_end))


if __name__ == "__main__":
    import run as bench

    problems = run(bench.ROOT / "BENCHMARK.json", bench.END_TO_END)
    for problem in problems:
        print(f"FAILED: {problem}")
    print("self-check OK" if not problems else f"{len(problems)} self-check failure(s)")
    sys.exit(1 if problems else 0)
