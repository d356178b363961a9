"""Output checks on one `bigsqlbench run` and its report."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import oracle
import stats
from workloads import Inputs, Workload

TIMING_FIELDS = ("t_gold", "t_gen", "t_e2e", "stage_seconds", "stage_percentages")
REPORT_FILES = ("report.json", "records.csv", "report.md", "plotdata_time.csv",
                "plotdata_cost.csv")


def without_timing(records: dict[str, Any]) -> dict[str, Any]:
    """records.json minus every clock-derived field."""
    episodes = [
        {k: v for k, v in ep.items() if k not in TIMING_FIELDS}
        for ep in records["episodes"]
    ]
    return {**records, "episodes": episodes}


def oracle_results(workload: Workload, inputs: Inputs) -> dict[str, tuple]:
    """Brute-force results per warehouse case, computed once per data set."""
    if inputs.data_dir is None:
        return {}
    return {c.case_id: oracle.ORACLES[c.case_id](inputs.data_dir) for c in workload.cases}


class RunChecker:
    """Checks every run of one benchmark invocation against the same baseline."""

    def __init__(self, workload: Workload, inputs: Inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.oracles: dict[str, tuple] | None = None  # once the data exists
        self.first: dict[str, Any] | None = None
        self.planned = 0
        self.failed = 0
        self.problems: list[str] = []

    def check_run(self, label: str, exit_code: int) -> dict[str, Any] | None:
        """Count one run's planned and failed episodes; returns its records."""
        records_path = self.inputs.output_dir / "records.json"
        if exit_code != 0 or not records_path.exists():
            self.planned += self.inputs.planned_episodes
            self.failed += self.inputs.planned_episodes
            self.problems.append(f"{label}: run exited {exit_code}")
            return None
        records = json.loads(records_path.read_text())
        planned, failed, reasons = stats.count_failures(
            self.inputs.expected, self.workload.repetitions, records["episodes"]
        )
        self.planned += planned
        self.failed += failed
        self.problems += [f"{label}: {r}" for r in reasons]
        if records["unusable_cases"]:
            self.problems.append(f"{label}: unusable cases {records['unusable_cases']}")
        stable = without_timing(records)
        if self.first is None:
            self.first = stable
        elif stable != self.first:
            self.problems.append(
                f"{label}: records.json without timing fields differs from the first run"
            )
        if self.oracles is None:
            self.oracles = oracle_results(self.workload, self.inputs)
        for case in self.workload.cases:
            columns, rows = self.oracles[case.case_id]
            golden = (self.inputs.output_dir / "goldens"
                      / f"{case.case_id}@sf{self.workload.scale_factor:g}.json")
            if not golden.exists():
                self.problems.append(f"{label}: golden for {case.case_id} missing")
                continue
            diff = oracle.compare_golden(golden, columns, rows)
            if diff is not None:
                self.problems.append(f"{label}: golden {case.case_id} vs oracle: {diff}")
        return records

    def check_report(self, label: str, exit_code: int, report_dir: Path) -> None:
        missing = [f for f in REPORT_FILES if not (report_dir / f).is_file()
                   or (report_dir / f).stat().st_size == 0]
        if exit_code != 0 or missing:
            self.problems.append(f"{label}: report exited {exit_code}, missing {missing}")

    def check_exit(self, label: str, exit_code: int) -> None:
        if exit_code != 0:
            self.problems.append(f"{label}: exited {exit_code}")

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0
