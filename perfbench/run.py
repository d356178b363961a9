#!/usr/bin/env python3
"""Offline end-to-end benchmark of the bigsqlbench CLI.

    python3 perfbench/run.py --workload mini-replay --seed 1 --seconds 30 --trace 0

Runs `bigsqlbench` from the checkout's `src/` in child processes, as a user
would (`data generate` / `plan validate`, `run --plan`, `report`, `--help`),
with replay backends only: nothing touches the network.  Every output is
checked (verdicts, oracle goldens, same-seed determinism, report files).

With `--trace 0` it prints the end-to-end metrics, with every time scaled by
the speed of a fixed reference job run in between (reference.py), since the
host's speed drifts; with `--trace 1` each run
is repeated under the tracing hooks and it prints the per-layer metrics, the
self time per module and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  The exit
code is 0 when every check passed, 1 when one failed, 2 when the checkout
holds no bigsqlbench sources, 3 when the benchmark's own self-check fails.
`--workload all` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import sqlite3
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import checks
import layers
import selfcheck
import stats
from workloads import WORKLOADS, Inputs, Workload, build

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"

SETUP_REPEATS = 5  # set-up runs per invocation; setup_s is their median
MIN_ITERATIONS = 2  # two same-seed runs at least, for the determinism check
# After each run, this share of its wall time goes to `report` and `--help`
# samples, so that they spread over the whole measurement like the runs do.
START_UP_SHARE = 0.25
# Every time sample is scaled by REFERENCE_S / (mean time of the reference.py
# children run just before and just after it, REFERENCE_NEIGHBOURS on each
# side, which evens out the reference's own noise): seconds as on a host where
# the reference takes REFERENCE_S.  The host's speed drifts by half within
# minutes, and the scaling takes that drift out; the unscaled medians are
# printed beside the scaled ones.
REFERENCE_S = 0.4
REFERENCE_NEIGHBOURS = 2  # reference children averaged on each side of a sample
# exponent of the speed factor per metric: times scale with it, rates against it
SCALED = {"setup_s": 1, "run_s": 1, "episodes_per_s": -1, "episode_mean_ms": 1,
          "report_s": 1, "cli_start_s": 1}
CHILD_TIMEOUT_S = 150.0
MIB = 1024 * 1024

# name -> unit; directions and bounds live in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "episodes_per_s": "1/s",
    "episode_mean_ms": "ms",
    "report_s": "s",
    "cli_start_s": "s",
    "peak_rss_mib": "MiB",
    "output_mib": "MiB",
}


@dataclass
class Child:
    wall_s: float
    exit_code: int
    peak_rss_mib: float


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    return env


def _kill_group(proc: subprocess.Popen) -> None:
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def run_child(argv: list[str], log: Path) -> Child:
    """Run one child to completion through spawn.py; a child that fails to
    report reads as exit code -1, which fails the run's checks."""
    result = log.with_suffix(".child.json")
    with open(log, "ab") as out:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawn.py"), str(result), "--", *argv],
            cwd=ROOT, env=_env(), stdout=out, stderr=subprocess.STDOUT,
            start_new_session=True,  # one process group: spawn.py and its child
        )
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
        except BaseException:
            _kill_group(proc)
            raise
    if proc.returncode != 0 or not result.exists():
        return Child(CHILD_TIMEOUT_S, -1, 0.0)
    child = json.loads(result.read_text())
    return Child(child["wall_s"], child["exit_code"], child["peak_rss_kib"] / 1024)


def cli(args: tuple[str, ...] | list[str], log: Path) -> Child:
    return run_child([sys.executable, "-m", "bigsqlbench", *args], log)


def traced_cli(args: tuple[str, ...] | list[str], log: Path, spans: Path
               ) -> tuple[Child, dict[str, Any] | None]:
    child = run_child(
        [sys.executable, str(BENCH / "traced_cli.py"), str(spans), "--", *args], log
    )
    trace = layers.load_trace(json.loads(spans.read_text())) if spans.exists() else None
    return child, trace


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


# --- environment stamp --------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "loadavg_before": list(os.getloadavg()),
    }


# --- one workload -------------------------------------------------------------


@dataclass
class Measurement:
    workload: Workload
    checker: checks.RunChecker
    samples: dict[str, list[float]] = field(default_factory=dict)
    traces: dict[str, list[dict[str, Any]]] = field(default_factory=dict)
    records: list[dict[str, Any]] = field(default_factory=list)
    timeline: list[tuple[str, float]] = field(default_factory=list)  # in order taken

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)
        self.timeline.append((key, value))

    def add_trace(self, key: str, trace: dict[str, Any] | None) -> None:
        if trace is not None:
            self.traces.setdefault(key, []).append(trace)


def measure(workload: Workload, seed: int, seconds: float, trace: bool
            ) -> tuple[Measurement, Inputs]:
    deadline = time.perf_counter() + seconds
    work = _fresh(WORK / workload.name)
    work.mkdir(parents=True)
    logs = work / "logs"
    logs.mkdir()
    inputs = build(workload, seed, ROOT, work)
    m = Measurement(workload, checks.RunChecker(workload, inputs))
    checker = m.checker

    def step(kind: str, args, label: str):
        """Run one CLI step, traced or not; returns (child, trace or None)."""
        if trace and kind != "untraced":
            spans = logs / f"{label}.spans.json"
            child, spans_json = traced_cli(args, logs / f"{label}.log", spans)
            m.add_trace(kind, spans_json)
            return child, spans_json
        return cli(args, logs / f"{label}.log"), None

    def reference(label: str) -> None:
        """One reference.py child, next to the untraced measured children."""
        if trace:
            return
        child = run_child([sys.executable, str(BENCH / "reference.py")],
                          logs / f"reference{label}.log")
        checker.check_exit(f"reference{label}", child.exit_code)
        m.add("reference_s", child.wall_s)

    reference("start")
    for k in range(SETUP_REPEATS):
        if inputs.data_dir is not None:
            _fresh(inputs.data_dir)
        child, _ = step("setup", inputs.setup_args, f"setup{k}")
        checker.check_exit(f"setup{k}", child.exit_code)
        m.add("setup_s", child.wall_s)
        reference(f"setup{k}")

    run_args = ("run", "--plan", str(inputs.plan))
    report_dir = work / "report"
    records_path = inputs.output_dir / "records.json"

    def start_up(label: str) -> None:
        """One `report` on the last run's records, one `--help`, one reference."""
        _fresh(report_dir)
        child, _ = step("report", ("report", "--records", str(records_path),
                                   "--format", "json,csv,markdown,plotdata",
                                   "--output-dir", str(report_dir)),
                        f"report{label}")
        checker.check_report(f"report{label}", child.exit_code, report_dir)
        m.add("report_s", child.wall_s)
        child, _ = step("help", ("--help",), f"help{label}")
        checker.check_exit(f"help{label}", child.exit_code)
        m.add("cli_start_s", child.wall_s)
        reference(label)

    iteration = 0
    while True:
        started = time.perf_counter()
        # untraced run: the end-to-end figures, and the base of the overhead
        _fresh(inputs.output_dir)
        child, _ = step("untraced", run_args, f"run{iteration}")
        records = checker.check_run(f"run{iteration}", child.exit_code)
        untraced_s = child.wall_s
        m.add("run_s", untraced_s)
        m.add("peak_rss_mib", child.peak_rss_mib)
        m.add("output_mib", dir_bytes(inputs.output_dir) / MIB)
        if records is not None:
            m.records.append(records)
            completed = sum(1 for e in records["episodes"] if e["outcome"] == "completed")
            m.add("episodes_per_s", completed / child.wall_s)
            if records["episodes"]:
                m.add("episode_mean_ms",
                      statistics.fmean(e["t_e2e"] * 1e3 for e in records["episodes"]))
        reference(f"run{iteration}")
        if trace:
            _fresh(inputs.output_dir)
            child, _ = step("run", run_args, f"traced_run{iteration}")
            records = checker.check_run(f"traced_run{iteration}", child.exit_code)
            m.add("trace.run_s", child.wall_s)
            # back to back, so both runs share the machine's current speed
            m.add("trace.overhead_s", child.wall_s - untraced_s)
            if records is not None:
                m.add("runner.records_bytes", records_path.stat().st_size)
                m.add("metrics.ves_gold_median", ves_gold_median(workload, records))
        until = time.perf_counter() + START_UP_SHARE * untraced_s
        for k in itertools.count():
            start_up(f"{iteration}_{k}")
            if trace or time.perf_counter() >= until:
                break
        iteration += 1
        now = time.perf_counter()
        enough = iteration >= (1 if trace else MIN_ITERATIONS)
        if enough and now + (now - started) > deadline:
            break
    # the time too short for one more run goes to more start-up samples
    pair_s = 0.0
    for k in itertools.count():
        started = time.perf_counter()
        if trace or started + pair_s > deadline:
            break
        start_up(f"extra{k}")
        pair_s = time.perf_counter() - started
    return m, inputs


def ves_gold_median(workload: Workload, records: dict[str, Any]) -> float:
    """Median VES of the model that runs the golden SQL (ideal 1)."""
    ves = [
        e["t_gold"] / e["t_gen"] if e["indicator"] and e["t_gen"] > 0 else 0.0
        for e in records["episodes"]
        if e["model"] == workload.gold_model
    ]
    return statistics.median(ves) if ves else 0.0


def end_to_end(m: Measurement) -> tuple[dict[str, dict], dict[str, Any]]:
    """The end-to-end metrics, scaled to the reference speed, plus the
    extras printed beside them."""
    t_e2e_ms = [e["t_e2e"] * 1e3 for r in m.records for e in r["episodes"]]
    scaled = stats.scale_by_reference(m.timeline, "reference_s", REFERENCE_S, SCALED,
                                      REFERENCE_NEIGHBOURS)
    metrics = {
        name: {"value": statistics.median(scaled.get(name, m.samples[name])),
               "unit": unit, "samples": len(m.samples[name])}
        for name, unit in END_TO_END.items() if name in m.samples
    }
    if t_e2e_ms:
        metrics["episode_mean_ms"]["samples"] = len(t_e2e_ms)
    reference_s = statistics.median(m.samples["reference_s"])
    extras: dict[str, Any] = {
        "reference_s": {"value": reference_s, "unit": "s",
                        "samples": len(m.samples["reference_s"])},
    }
    extras |= {f"raw.{name}": {"value": statistics.median(m.samples[name]),
                               "unit": END_TO_END[name], "samples": len(m.samples[name])}
               for name in SCALED if name in m.samples}
    if t_e2e_ms:
        extras["episode_p50_ms"] = {"value": statistics.median(t_e2e_ms), "unit": "ms",
                                    "samples": len(t_e2e_ms)}
    per_run = min((len(r["episodes"]) for r in m.records), default=0)
    if per_run >= 100:
        p90, beyond = stats.percentile(t_e2e_ms, 90)
        extras["episode_p90_ms"] = {"value": p90, "unit": "ms",
                                    "samples": len(t_e2e_ms), "beyond": beyond}
    extras["failed_frac"] = {
        "value": m.checker.failed / m.checker.planned if m.checker.planned else 1.0,
        "unit": "ratio", "samples": m.checker.planned,
    }
    return metrics, extras


def _median_or_none(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def per_layer(m: Measurement) -> tuple[dict[str, dict], dict[str, Any]]:
    """The per-layer metrics, plus the self time per module of the traced run."""
    run_traces = m.traces.get("run", [])
    all_traces = [t for ts in m.traces.values() for t in ts]
    gone = layers.unmeasured_layers(all_traces)
    workers = m.workload.concurrency
    values: dict[str, list[float]] = {}
    for t in run_traces:
        for name, fn in layers.RUN_METRICS.items():
            values.setdefault(name, []).append(fn(t["spans"], workers))
    for t in m.traces.get("report", []):
        for name, fn in layers.REPORT_METRICS.items():
            values.setdefault(name, []).append(fn(t["spans"]))
    values["suite.generate_s"] = [
        float(sum(s.duration for s in t["spans"] if s.name == "suite.generate"))
        for t in m.traces.get("setup", [])
    ]
    values["cli.import_s"] = [t["import_s"] for t in all_traces]
    for name in ("runner.records_bytes", "metrics.ves_gold_median", "trace.run_s",
                 "trace.overhead_s"):
        values[name] = m.samples.get(name, [])

    metrics = {}
    for lm in layers.PER_LAYER:
        layer = lm.name.split(".", 1)[0]
        value = _median_or_none(values.get(lm.name, []))
        entry: dict[str, Any] = {"value": None if layer in gone else value,
                                 "unit": lm.unit}
        if entry["value"] is None:
            entry["unmeasured"] = True
        metrics[lm.name] = entry
    modules = {}
    if run_traces:
        totals = [layers.module_self_times(t["spans"]) for t in run_traces]
        modules = {layer: statistics.median([t[layer] for t in totals]) for layer in totals[0]}
    extras = {"unmeasured": sorted(gone), "module_self_s": modules,
              "traced_run_s": _median_or_none(m.samples.get("trace.run_s", [])),
              "untraced_run_s": statistics.median(m.samples["run_s"])}
    return metrics, extras


def print_table(name: str, metrics: dict[str, dict], extras: dict[str, Any],
                trace: bool) -> None:
    print(f"== {name}")
    if trace:
        moves = {lm.name: lm.moves for lm in layers.PER_LAYER}
        for metric, entry in metrics.items():
            value = "unmeasured" if entry["value"] is None else f"{entry['value']:.6g}"
            print(f"  {metric:28s} {value:>12s} {entry['unit']:6s} -> {moves[metric]}")
        run_s = extras["traced_run_s"]
        print(f"  self time per module, summed over threads, traced run_s "
              f"{run_s:.3f} s (untraced {extras['untraced_run_s']:.3f} s):")
        busy = sum(extras["module_self_s"].values())
        for module, secs in extras["module_self_s"].items():
            print(f"    {module:10s} {secs:9.4f} s {100 * secs / busy:6.1f}%")
        return
    for metric, entry in {**metrics, **extras}.items():
        note = f" beyond={entry['beyond']}" if "beyond" in entry else ""
        print(f"  {metric:20s} {entry['value']:12.6g} {entry['unit']:6s} "
              f"n={entry['samples']}{note}")


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool
                 ) -> dict[str, Any]:
    env = environment()
    m, inputs = measure(workload, seed, seconds, trace)
    env["loadavg_after"] = list(os.getloadavg())
    metrics, extras = per_layer(m) if trace else end_to_end(m)
    env.update(
        workload=workload.name,
        seed=seed,
        size={"cases": len(inputs.expected) // len(workload.models),
              "models": len(workload.models), "repetitions": workload.repetitions,
              "episodes_per_run": inputs.planned_episodes,
              "workers": workload.concurrency,
              "scale_factor": workload.scale_factor},
        samples={k: len(v) for k, v in m.samples.items()},
    )
    result = {
        "correct": m.checker.correct,
        "attempted": m.checker.planned,
        "failed": m.checker.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
        "extras": extras,
        "samples": m.samples,
        "timeline": m.timeline,
        "problems": m.checker.problems,
        "environment": env,
    }
    (WORK / workload.name / "result.json").write_text(json.dumps(result, indent=2))
    print_table(workload.name, metrics, extras, trace)
    print("environment: " + json.dumps(env))
    for problem in m.checker.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bigsqlbench" / "cli.py").is_file() or not (
        ROOT / "suites" / "mini" / "plan.json"
    ).is_file():
        print(f"no bigsqlbench sources under {ROOT}: need src/bigsqlbench and "
              "suites/mini", file=sys.stderr)
        return 2
    failures = selfcheck.run(ROOT / "BENCHMARK.json", END_TO_END)
    if failures:
        for failure in failures:
            print(f"self-check failed: {failure}", file=sys.stderr)
        return 3

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
