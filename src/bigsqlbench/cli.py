"""Command-line entry point: validate plans, run matrices, render reports.

Each handler imports only the modules its command runs, so `--help` loads
no other module of the package and `report` never loads the engine.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPORT_FORMATS = ("json", "csv", "markdown", "plotdata")


# The handlers call these through this module, where a caller can replace
# one; each imports its module when first called.
def execute_plan(plan):
    from .runner import execute_plan
    return execute_plan(plan)


def load_records(path):
    from .metrics import load_records
    return load_records(path)


def render_report(episodes, formats, out_dir):
    from .report import render_report
    return render_report(episodes, formats, out_dir)


def materialize_golden(case, engine, **kwargs):
    from .suite import materialize_golden
    return materialize_golden(case, engine, **kwargs)


def generate_scaled_data(schema, scale_factor, seed, out_dir):
    from .suite import generate_scaled_data
    return generate_scaled_data(schema, scale_factor, seed, out_dir)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bigsqlbench",
        description="Evaluate text-to-SQL agents: run episodes, account "
        "time and cost per stage, and report validity/efficiency metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan_cmd = sub.add_parser("plan", help="plan-file operations")
    plan_sub = plan_cmd.add_subparsers(dest="plan_command", required=True)
    plan_validate = plan_sub.add_parser("validate", help="pre-flight check a plan")
    plan_validate.add_argument("--plan", required=True, type=Path)

    run_cmd = sub.add_parser("run", help="execute a run plan")
    run_cmd.add_argument("--plan", required=True, type=Path)
    run_cmd.add_argument("--output-dir", type=Path, default=None)
    run_cmd.add_argument("--repetitions", type=int, default=None)
    run_cmd.add_argument("--concurrency", type=int, default=None)
    run_cmd.add_argument("--seed", type=int, default=None)
    run_cmd.add_argument("--max-spend", dest="max_spend_usd", type=float, default=None)

    report_cmd = sub.add_parser("report", help="render reports from records")
    report_cmd.add_argument("--records", required=True, type=Path)
    report_cmd.add_argument(
        "--format",
        default=",".join(REPORT_FORMATS),
        help=f"comma-separated subset of {','.join(REPORT_FORMATS)}",
    )
    report_cmd.add_argument("--output-dir", required=True, type=Path)

    goldens_cmd = sub.add_parser("goldens", help="golden-result operations")
    goldens_sub = goldens_cmd.add_subparsers(dest="goldens_command", required=True)
    goldens_mat = goldens_sub.add_parser(
        "materialize", help="execute, time and write golden results for a suite"
    )
    goldens_mat.add_argument("--suite", required=True, type=Path)
    goldens_mat.add_argument("--cache-dir", required=True, type=Path)
    goldens_mat.add_argument("--scale-factor", type=float, default=1.0)

    data_cmd = sub.add_parser("data", help="synthetic data operations")
    data_sub = data_cmd.add_subparsers(dest="data_command", required=True)
    data_gen = data_sub.add_parser("generate", help="generate scaled synthetic data")
    data_gen.add_argument("--scale-factor", required=True, type=float)
    data_gen.add_argument("--seed", type=int, default=0)
    data_gen.add_argument("--output-dir", required=True, type=Path)

    return parser


def _cmd_plan_validate(args: argparse.Namespace) -> int:
    from .runner import PlanValidationError, RunPlan, validate_plan

    try:
        problems = validate_plan(RunPlan.from_json_file(args.plan))
    except PlanValidationError as exc:
        problems = [str(exc)]
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}")
        return 1
    print("plan OK")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .runner import PlanValidationError, RunPlan

    try:
        plan = RunPlan.from_json_file(args.plan)
        # each flag given overrides the plan key of its name
        for name in ("output_dir", "repetitions", "concurrency", "seed",
                     "max_spend_usd"):
            if getattr(args, name) is not None:
                setattr(plan, name, getattr(args, name))
        output = execute_plan(plan)
    except PlanValidationError as exc:
        print(f"plan invalid: {exc}")
        return 1
    print(
        f"ran {len(output.episodes)} episodes "
        f"({len(output.skipped)} skipped, "
        f"{len(output.unusable_cases)} unusable cases)"
    )
    print(f"records: {output.records_path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    formats = [f.strip() for f in args.format.split(",") if f.strip()]
    if not formats:
        print(f"no format in --format {args.format!r}")
        return 1
    for fmt in formats:
        if fmt not in REPORT_FORMATS:
            print(f"unknown format: {fmt}")
            return 1
    try:
        episodes = load_records(args.records)
    except ValueError as exc:
        print(f"records invalid: {exc}")
        return 1
    if not episodes:
        print("no episodes in records file")
        return 1
    written = render_report(episodes, formats, args.output_dir)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_goldens_materialize(args: argparse.Namespace) -> int:
    from .engine import Sessions
    from .suite import GoldenMaterializationError, ManifestError, load_suite

    failures = 0
    with Sessions() as sessions:
        try:
            cases = load_suite(args.suite, args.scale_factor, sessions)
        except ManifestError as exc:
            print(f"suite invalid: {exc}")
            return 1
        for case in cases:
            if not case.usable:
                print(f"{case.case_id}: UNUSABLE ({case.error})")
                failures += 1
                continue
            try:
                result, t_gold = materialize_golden(
                    case, sessions.get(case.data_dir), out_dir=args.cache_dir,
                    scale_factor=args.scale_factor,
                )
            except GoldenMaterializationError as exc:
                print(f"{case.case_id}: FAILED ({exc})")
                failures += 1
                continue
            print(
                f"{case.case_id}: {result.n_rows} row(s), t_gold {t_gold * 1e3:.3f} ms"
            )
    return 0 if failures == 0 else 1


def _cmd_data_generate(args: argparse.Namespace) -> int:
    from .suite import ScaleFactorError, format_sf, warehouse_schema

    try:
        row_counts = generate_scaled_data(
            warehouse_schema(), args.scale_factor, args.seed, args.output_dir
        )
    except ScaleFactorError as exc:
        print(f"error: {exc}")
        return 1
    for table, count in row_counts.items():
        print(f"{table}: {count} rows")
    print(f"generated sf={format_sf(args.scale_factor)} under {args.output_dir}")
    return 0


_HANDLERS = {
    "plan": _cmd_plan_validate,
    "run": _cmd_run,
    "report": _cmd_report,
    "goldens": _cmd_goldens_materialize,
    "data": _cmd_data_generate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except OSError as exc:  # say, an output path that is a file
        print(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
