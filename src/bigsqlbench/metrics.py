"""Scalar evaluation metrics and their aggregation over a suite of queries.

Covers the classic text-to-SQL trio (exact match, execution accuracy, valid
efficiency score) plus the end-to-end variants that fold in agent latency,
column precision, and dollar cost, and the expected cost per valid query
under a retry-until-success model; and the episode records (records.json)
they are computed from, which `report` reads without loading the engine.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, asdict, field, fields
from pathlib import Path
from statistics import fmean
from typing import Any

# the stages an episode's time and cost are attributed to, in report order
STAGES = ("list", "schema", "check", "run", "finalize")

SQL_KEYWORDS = frozenset(
    """
    select from where group by order having join inner left right full outer
    cross on as and or not in is null like between limit offset union all
    distinct exists case when then else end insert into values update set
    delete create table view index drop alter with asc desc using natural
    intersect except count sum avg min max abs round cast coalesce substr
    """.split()
)

_TOKEN_RE = re.compile(r"'(?:[^']|'')*'|\"(?:[^\"]|\"\")*\"|\S+")


class DegenerateTimingError(ValueError):
    """A valid run reported a non-positive runtime."""


class InvalidRateError(ValueError):
    """Validity rate outside [0, 1]."""


class EmptySuiteError(ValueError):
    """Aggregation requested over zero records."""


class NormalizationError(ValueError):
    """Normalization to a best value of zero (or over no values)."""


@dataclass(frozen=True)
class MetricRecord:
    """Per-(case, run) measurements every derived metric is computed from.

    `indicator` is the containment-based validity bit; `exact` is the strict
    result-equality bit (the two differ when the generated output carries
    superfluous columns).
    """

    case_id: str
    run_id: int
    indicator: int
    precision: float
    t_gold: float
    t_gen: float
    t_e2e: float
    c_e2e: float
    exact: bool = False

    def __post_init__(self) -> None:
        if self.indicator not in (0, 1):
            raise ValueError(f"indicator must be 0 or 1, got {self.indicator}")
        if not 0.0 <= self.precision <= 1.0:
            raise ValueError(f"precision outside [0,1]: {self.precision}")
        if self.t_gold <= 0:
            raise ValueError(f"t_gold must be positive: {self.t_gold}")
        if self.t_gen < 0:
            raise ValueError(f"t_gen must be nonnegative: {self.t_gen}")
        if self.t_e2e < self.t_gen:
            raise ValueError(
                f"t_e2e ({self.t_e2e}) must be >= t_gen ({self.t_gen})"
            )
        if self.c_e2e < 0:
            raise ValueError(f"c_e2e must be nonnegative: {self.c_e2e}")

    @property
    def valid(self) -> bool:
        return self.indicator == 1


@dataclass
class EpisodeResult:
    """One matrix cell: its metric values plus everything reports need.

    The init fields are the records.json entry, in this order; `record` is
    the metric record built from them once.
    """

    model: str
    case_id: str
    repetition: int
    scale_factor: float
    indicator: int
    exact: bool
    precision: float
    t_gold: float
    t_gen: float
    t_e2e: float
    c_e2e: float
    outcome: str
    golden_sql: str
    generated_sql: str
    stage_seconds: dict[str, float]
    stage_percentages: dict[str, float]
    stage_cost: dict[str, float]
    trace_path: str | None = None
    error: str | None = None
    estimated_usage: bool = False
    record: MetricRecord = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.record = MetricRecord(
            case_id=self.case_id,
            run_id=self.repetition,
            indicator=self.indicator,
            precision=self.precision,
            t_gold=self.t_gold,
            t_gen=self.t_gen,
            t_e2e=self.t_e2e,
            c_e2e=self.c_e2e,
            exact=self.exact,
        )

    def to_json_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "EpisodeResult":
        names = [f.name for f in fields(cls) if f.init]
        return cls(**{name: data[name] for name in names if name in data})


def load_records(path: str | Path) -> list[EpisodeResult]:
    """Read back the episode results a run wrote to records.json."""
    data = json.loads(Path(path).read_text())
    return [EpisodeResult.from_json_dict(raw) for raw in data["episodes"]]


@dataclass(frozen=True)
class SuiteMetrics:
    """Suite-level aggregates; cvq is None exactly when p_hat is zero, and
    vces when a valid record cost $0."""

    n: int
    em: float
    ea: float
    ves: float
    ves_star: float
    vces: float | None
    cvq: float | None
    p_hat: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def canonicalize_sql(sql: str) -> str:
    """Collapse whitespace runs, trim, and upper-case bare SQL keywords.

    Quoted literals pass through untouched; identifiers keep their case.
    """
    out = []
    for token in _TOKEN_RE.findall(sql.strip()):
        if token[0] in ("'", '"'):
            out.append(token)
        elif token.lower() in SQL_KEYWORDS:
            out.append(token.upper())
        else:
            out.append(token)
    return " ".join(out)


def exact_match(golden_sql: str, generated_sql: str) -> int:
    """1 iff the two queries are textually identical after canonicalization."""
    if not golden_sql.strip() or not generated_sql.strip():
        raise ValueError("exact_match requires two non-empty SQL strings")
    return 1 if canonicalize_sql(golden_sql) == canonicalize_sql(generated_sql) else 0


def ves_per_query(r: MetricRecord) -> float:
    """Validity-gated golden/generated runtime ratio; 0 for invalid runs."""
    if r.indicator == 0:
        return 0.0
    if r.t_gen <= 0:
        raise DegenerateTimingError(
            f"case {r.case_id} run {r.run_id}: valid run with t_gen={r.t_gen}"
        )
    return r.t_gold / r.t_gen


def ves_star_per_query(r: MetricRecord) -> float:
    """Validity- and precision-gated golden/end-to-end runtime ratio."""
    if r.indicator == 0:
        return 0.0
    if r.t_e2e <= 0:
        raise DegenerateTimingError(
            f"case {r.case_id} run {r.run_id}: valid run with t_e2e={r.t_e2e}"
        )
    return r.precision * r.t_gold / r.t_e2e


def vces_per_query(r: MetricRecord) -> float | None:
    """Cost-normalized efficiency: the end-to-end score divided by run cost;
    None for a valid run that cost $0 (`MetricRecord` refuses a negative one)."""
    if r.indicator == 0:
        return 0.0
    if r.c_e2e == 0:
        return None
    return ves_star_per_query(r) / r.c_e2e


def cvq(mean_c_e2e: float, p_hat: float) -> float | None:
    """Expected cost to obtain one valid result under retry-until-success.

    Attempts are geometric with success probability p_hat, so the expected
    attempt count is 1/p_hat and the expected spend is mean cost / p_hat.
    Returns None when p_hat is zero (no finite expectation).
    """
    if not 0.0 <= p_hat <= 1.0:
        raise InvalidRateError(f"p_hat outside [0,1]: {p_hat}")
    if mean_c_e2e < 0:
        raise ValueError(f"mean cost must be nonnegative: {mean_c_e2e}")
    if p_hat == 0.0:
        return None
    return mean_c_e2e / p_hat


def aggregate(
    records: list[MetricRecord],
    sql_pairs: list[tuple[str, str]],
) -> SuiteMetrics:
    """Mean every per-query metric over N records (failures contribute 0).

    `sql_pairs` holds (golden, generated) text per record for exact match; a
    missing generated query counts as a non-match.
    """
    if not records:
        raise EmptySuiteError("cannot aggregate an empty record list")
    if len(sql_pairs) != len(records):
        raise ValueError(
            f"{len(sql_pairs)} sql pairs for {len(records)} records"
        )
    em_bits = []
    for golden, generated in sql_pairs:
        if not golden.strip() or not generated.strip():
            em_bits.append(0)
        else:
            em_bits.append(exact_match(golden, generated))
    p_hat = fmean(r.indicator for r in records)
    vces = [vces_per_query(r) for r in records]
    mean_cost = fmean(r.c_e2e for r in records)
    return SuiteMetrics(
        n=len(records),
        em=fmean(em_bits),
        ea=fmean(1 if r.exact else 0 for r in records),
        ves=fmean(ves_per_query(r) for r in records),
        ves_star=fmean(ves_star_per_query(r) for r in records),
        vces=None if None in vces else fmean(vces),
        cvq=cvq(mean_cost, p_hat),
        p_hat=p_hat,
    )


def normalize_to_best(
    values: dict[str, float], higher_is_better: bool
) -> dict[str, float]:
    """Divide every value by the best one; the best entry maps to exactly 1.0."""
    if not values:
        raise NormalizationError("no values to normalize")
    best = max(values.values()) if higher_is_better else min(values.values())
    if best == 0:
        raise NormalizationError("best value is zero; normalization undefined")
    return {model: value / best for model, value in values.items()}
