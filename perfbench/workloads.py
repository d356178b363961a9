"""Workload definitions and the builder that writes each workload's inputs.

Every input lives in the benchmark's own work area.  The builder is
deterministic in the seed: warehouse data comes from `bigsqlbench data
generate --seed <seed>`, and the seed is written into every run plan.
Replay dialogues follow the bundled mini suite's shape (list_tables,
get_schema, check_query plus the checker's verdict, run_query) with stubbed
token counts, and pricing is token-only with a free engine, so each
episode's cost is exact.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

SCALE_FACTOR = 0.01
WAREHOUSE_DB = "wh_{sf}"


@dataclass(frozen=True)
class Case:
    case_id: str
    question: str
    sql: str
    tables: tuple[str, ...]


@dataclass(frozen=True)
class Model:
    """A replay model: the verdict it must get per case and, for generated
    suites, the SQL its dialogues run, their token counts and its prices."""

    name: str
    expected: dict[str, tuple[int, int]]  # case_id -> (EX, EA)
    sql: dict[str, str] = field(default_factory=dict)
    tokens: tuple[tuple[int, int], ...] = ()
    price_per_mtok: tuple[float, float] = (0.0, 0.0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    repetitions: int
    concurrency: int
    gold_model: str  # the model whose SQL is the golden SQL (VES ideal 1)
    models: tuple[Model, ...]
    cases: tuple[Case, ...] = ()  # empty: the bundled mini suite's cases
    scale_factor: float | None = None  # None: no generated data


@dataclass(frozen=True)
class Inputs:
    """What the builder wrote: the plan, the set-up step and the expectations."""

    plan: Path
    output_dir: Path
    data_dir: Path | None
    setup_args: tuple[str, ...]
    expected: dict[tuple[str, str], tuple[int, int]]  # (model, case) -> (EX, EA)
    planned_episodes: int


GOLD_TOKENS = ((1200, 60), (1400, 80), (1600, 90), (700, 20), (1800, 70))
WIDE_TOKENS = ((900, 50), (1000, 60), (1100, 70), (500, 15), (1200, 55))

# --- mini-replay: the bundled suite; verdicts follow tools/make_mini_suite.py

MINI_CASES = (
    "orders_count", "category_quantity", "pricey_products", "top_customer",
    "avg_category_price",
)

MINI_REPLAY = Workload(
    name="mini-replay",
    why="bundled mini suite, 1000 tiny episodes: per-episode fixed costs "
    "(agent loop, script loads, engine opens, trace writes, report) dominate",
    repetitions=100,
    concurrency=2,
    gold_model="replay-alpha",
    models=(
        # alpha aliases the bare COUNT(*): contained, but not the same columns
        Model("replay-alpha",
              {c: (1, 1) for c in MINI_CASES} | {"orders_count": (1, 0)}),
        # beta: superfluous column, mis-filter, dropped column
        Model("replay-beta",
              {c: (1, 1) for c in MINI_CASES}
              | {"orders_count": (1, 0), "category_quantity": (0, 0),
                 "top_customer": (0, 0)}),
    ),
)

# --- warehouse-rows: large fetches, 15,000 to 60,000 rows per result

# One runner worker: with two, one worker's CSV parsing holds the interpreter
# lock while the other's episode is timed, which inflated t_e2e up to 18-fold
# and made episode times too unsteady to compare between runs.
WAREHOUSE_WORKERS = 1

ROWS_CASES = (
    Case(
        "lineitem_rows",
        "List every line item's order key, line number, quantity and price.",
        "SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice "
        "FROM lineitem",
        ("lineitem",),
    ),
    Case(
        "first_lines",
        "List order key, part, supplier and quantity of each order's first line.",
        "SELECT l_orderkey, l_partkey, l_suppkey, l_quantity FROM lineitem "
        "WHERE l_linenumber = 1",
        ("lineitem",),
    ),
    Case(
        "order_customers",
        "List every order with its customer's name and the order total.",
        "SELECT o.o_orderkey, c.c_name, o.o_totalprice FROM orders o "
        "JOIN customer c ON o.o_custkey = c.c_custkey",
        ("orders", "customer"),
    ),
)

WAREHOUSE_ROWS = Workload(
    name="warehouse-rows",
    why="sf 0.01 warehouse, cases returning 15k-60k rows: CSV registration "
    "dominates, then large fetches, result comparison and trace/golden serialization",
    repetitions=1,
    concurrency=WAREHOUSE_WORKERS,
    gold_model="gold",
    scale_factor=SCALE_FACTOR,
    cases=ROWS_CASES,
    models=(
        Model(
            "gold",
            {c.case_id: (1, 1) for c in ROWS_CASES},
            {c.case_id: c.sql for c in ROWS_CASES},
            GOLD_TOKENS, (2.5, 10.0),
        ),
        Model(
            # extra columns in another row order: contained, not equal
            "wide",
            {c.case_id: (1, 0) for c in ROWS_CASES},
            {
                "lineitem_rows": "SELECT l_orderkey, l_linenumber, l_quantity, "
                "l_extendedprice, l_discount FROM lineitem "
                "ORDER BY l_orderkey DESC, l_linenumber DESC",
                "first_lines": "SELECT l_orderkey, l_partkey, l_suppkey, "
                "l_quantity, l_shipmode FROM lineitem WHERE l_linenumber = 1 "
                "ORDER BY l_partkey, l_orderkey",
                "order_customers": "SELECT o.o_orderkey, c.c_name, "
                "o.o_totalprice, c.c_mktsegment FROM orders o "
                "JOIN customer c ON o.o_custkey = c.c_custkey "
                "ORDER BY o.o_totalprice DESC, o.o_orderkey",
            },
            WIDE_TOKENS, (0.5, 3.0),
        ),
    ),
)

WORKLOADS = {w.name: w for w in (MINI_REPLAY, WAREHOUSE_ROWS)}


def _entry(text: str, tokens: tuple[int, int]) -> dict:
    return {
        "fingerprint": None,
        "response": {"text": text, "tool_call": None},
        "usage": {"input_tokens": tokens[0], "output_tokens": tokens[1]},
    }


def _dialogue(case: Case, sql: str, tokens: tuple[tuple[int, int], ...]) -> list[dict]:
    schema_input = json.dumps({"tables": list(case.tables), "sample_rows": 2})
    sql_input = json.dumps({"sql": sql})
    return [
        _entry("Thought: I should see which tables exist.\n"
               "Action: list_tables\nAction Input: {}", tokens[0]),
        _entry("Thought: Inspect the tables I need.\n"
               f"Action: get_schema\nAction Input: {schema_input}", tokens[1]),
        _entry("Thought: Validate my candidate query before running it.\n"
               f"Action: check_query\nAction Input: {sql_input}", tokens[2]),
        _entry("query OK", tokens[3]),
        _entry("Thought: The query passed review, run it.\n"
               f"Action: run_query\nAction Input: {sql_input}", tokens[4]),
    ]


def _write_json(path: Path, data: object) -> None:
    path.write_text(json.dumps(data, indent=2) + "\n")


def build(workload: Workload, seed: int, root: Path, work: Path) -> Inputs:
    """Write the workload's suite, replay scripts, pricing and plan under work."""
    suite = work / "suite"
    output_dir = work / "out"
    plan_path = suite / "bench_plan.json"
    sf = workload.scale_factor
    if sf is None:
        shutil.copytree(root / "suites" / "mini", suite)
        plan = json.loads((suite / "plan.json").read_text())
        # the $5 ceiling would stop the run part-way (budget overshoot defect)
        plan.pop("max_spend_usd", None)
        plan.update(
            repetitions=workload.repetitions,
            concurrency=workload.concurrency,
            seed=seed,
            output_dir=str(output_dir),
        )
        _write_json(plan_path, plan)
        expected = {
            (m.name, case_id): verdict
            for m in workload.models
            for case_id, verdict in m.expected.items()
        }
        return Inputs(
            plan=plan_path,
            output_dir=output_dir,
            data_dir=None,
            setup_args=("plan", "validate", "--plan", str(plan_path)),
            expected=expected,
            planned_episodes=len(expected) * workload.repetitions,
        )

    data_dir = suite / "databases" / WAREHOUSE_DB.format(sf=f"{sf:g}")
    suite.mkdir(parents=True)
    _write_json(
        suite / "manifest.json",
        {
            "cases": [
                {"case_id": c.case_id, "question": c.question, "SQL": c.sql,
                 "db_id": WAREHOUSE_DB}
                for c in workload.cases
            ]
        },
    )
    backends = []
    expected = {}
    for model in workload.models:
        scripts = suite / "replays" / model.name
        scripts.mkdir(parents=True)
        for case in workload.cases:
            lines = _dialogue(case, model.sql[case.case_id], model.tokens)
            (scripts / f"{case.case_id}.jsonl").write_text(
                "".join(json.dumps(line) + "\n" for line in lines)
            )
            expected[(model.name, case.case_id)] = model.expected[case.case_id]
        backends.append(
            {"name": model.name, "kind": "replay", "model_id": model.name,
             "scripts_dir": f"replays/{model.name}"}
        )
    _write_json(
        suite / "pricing.json",
        {
            "models": [
                {"id": m.name, "input_per_mtok": m.price_per_mtok[0],
                 "output_per_mtok": m.price_per_mtok[1]}
                for m in workload.models
            ],
            "engine": {"mode": "free", "rate": 0},
        },
    )
    _write_json(
        plan_path,
        {
            "suite": ".",
            "backends": backends,
            "repetitions": workload.repetitions,
            "scale_factors": [sf],
            "pricing": "pricing.json",
            "output_dir": str(output_dir),
            "concurrency": workload.concurrency,
            "seed": seed,
            "agent": {"max_iterations": 15, "sample_rows": 2},
        },
    )
    return Inputs(
        plan=plan_path,
        output_dir=output_dir,
        data_dir=data_dir,
        setup_args=("data", "generate", "--scale-factor", f"{sf:g}",
                    "--seed", str(seed), "--output-dir", str(data_dir)),
        expected=expected,
        planned_episodes=len(expected) * workload.repetitions,
    )
