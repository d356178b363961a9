"""Scalar evaluation metrics and their aggregation over a suite of queries.

Covers the classic text-to-SQL trio (exact match, execution accuracy, valid
efficiency score) plus the end-to-end variants that fold in agent latency,
column precision, and dollar cost, and the expected cost per valid query
under a retry-until-success model; and the episode records (records.json)
they are computed from, which `report` reads without loading the engine.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields
from pathlib import Path
from statistics import fmean, pstdev
from typing import Any, Iterable

# the stages an episode's time and cost are attributed to, in report order
STAGES = ("list", "schema", "check", "run", "finalize")


@dataclass
class StageUsage:
    """What one stage of an episode used, summed over its iterations: their
    wall-clock seconds, tokens, and engine seconds and bytes."""

    seconds: float = 0.0
    input_tokens: int = 0
    output_tokens: int = 0
    engine_seconds: float = 0.0
    engine_bytes: int = 0


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


class InvalidRateError(ValueError):
    """Validity rate outside [0, 1]."""


class EmptySuiteError(ValueError):
    """Aggregation requested over zero records."""


class NormalizationError(ValueError):
    """Normalization to a best value of zero (or over no values)."""


# the types a records.json value may take, by field annotation
_FIELD_TYPES = {"str": str, "str | None": (str, type(None)), "int": int,
                "float": (int, float), "bool": bool, "dict[str, float]": dict}


@dataclass
class EpisodeResult:
    """One matrix cell: the per-(case, run) measurements every metric is
    computed from, plus everything reports need.

    The fields are the records.json entry, in this order.  `indicator` is the
    containment-based validity bit; `exact` is the strict result-equality bit
    (the two differ when the generated output carries superfluous columns).
    The constructor refuses any value a report could not render.
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

    def __post_init__(self) -> None:
        for f in self.__dataclass_fields__.values():
            value = getattr(self, f.name)
            # no writer writes a bool for a number, which isinstance would take
            if not isinstance(value, _FIELD_TYPES[f.type]) or (
                isinstance(value, bool) and f.type != "bool"
            ):
                raise ValueError(f"{f.name} must be {f.type}: {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite: {value}")
            if f.type == "dict[str, float]":
                for x in value.values():
                    if type(x) not in (int, float) or not 0 <= x < math.inf:
                        raise ValueError(f"{f.name} values must be finite and >= 0")
        if self.indicator not in (0, 1):
            raise ValueError(f"indicator must be 0 or 1, got {self.indicator}")
        # strict equality implies containment
        if self.exact and not self.indicator:
            raise ValueError("an exact result must have indicator 1, got 0")
        if not 0.0 <= self.precision <= 1.0:
            raise ValueError(f"precision outside [0,1]: {self.precision}")
        if self.t_gold <= 0:
            raise ValueError(f"t_gold must be positive: {self.t_gold}")
        if self.t_gen < 0:
            raise ValueError(f"t_gen must be nonnegative: {self.t_gen}")
        # a valid result comes only from a query the engine ran and timed
        if self.valid and self.t_gen == 0:
            raise ValueError(f"a valid run must have a positive t_gen: {self.t_gen}")
        if self.t_e2e < self.t_gen:
            raise ValueError(f"t_e2e ({self.t_e2e}) must be >= t_gen ({self.t_gen})")
        if self.c_e2e < 0:
            raise ValueError(f"c_e2e must be nonnegative: {self.c_e2e}")

    @property
    def valid(self) -> bool:
        return self.indicator == 1

    def to_json_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, data: Any) -> "EpisodeResult":
        """One records.json episode; a missing or unknown field is refused."""
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
        names = cls.__dataclass_fields__
        if data.keys() != names.keys():
            missing = [name for name in names if name not in data]
            unknown = [key for key in data if key not in names]
            raise ValueError(f"missing fields {missing}, unknown fields {unknown}")
        return cls(**data)


def load_records(path: str | Path) -> list[EpisodeResult]:
    """Read back the episode results a run wrote to records.json; a file that
    cannot be read, or an episode that is not a valid record, raises
    ValueError naming the path and the episode."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"records {path}: {exc}") from None
    episodes = data.get("episodes") if isinstance(data, dict) else None
    if not isinstance(episodes, list):
        raise ValueError(f"records {path}: `episodes` is not a list")
    loaded = []
    for index, raw in enumerate(episodes):
        try:
            loaded.append(EpisodeResult.from_json_dict(raw))
        except ValueError as exc:
            raise ValueError(f"records {path}: episode {index}: {exc}") from None
    return loaded


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


def canonicalize_sql(sql: str) -> str:
    """Collapse whitespace runs, trim, and upper-case bare SQL keywords.

    A quoted literal is one token, quotes included, so it never matches a
    keyword and passes through untouched; identifiers keep their case.
    """
    return " ".join(
        token.upper() if token.lower() in SQL_KEYWORDS else token
        for token in _TOKEN_RE.findall(sql.strip())
    )


def exact_match(golden_sql: str, generated_sql: str) -> int:
    """1 iff the two queries are textually identical after canonicalization."""
    if not golden_sql.strip() or not generated_sql.strip():
        raise ValueError("exact_match requires two non-empty SQL strings")
    return 1 if canonicalize_sql(golden_sql) == canonicalize_sql(generated_sql) else 0


def ves_per_query(r: EpisodeResult) -> float:
    """Validity-gated golden/generated runtime ratio; 0 for invalid runs."""
    return r.t_gold / r.t_gen if r.valid else 0.0


def ves_star_per_query(r: EpisodeResult) -> float:
    """Validity- and precision-gated golden/end-to-end runtime ratio."""
    return r.precision * r.t_gold / r.t_e2e if r.valid else 0.0


def vces_per_query(r: EpisodeResult) -> float | None:
    """Cost-normalized efficiency: the end-to-end score divided by run cost;
    None for a valid run that cost $0 (`EpisodeResult` refuses a negative one)."""
    if not r.valid:
        return 0.0
    if r.c_e2e == 0:
        return None
    return ves_star_per_query(r) / r.c_e2e


def mean(values: Iterable[float]) -> float:
    """`fmean`, or inf where the sum of (nonnegative) values overflows a float."""
    try:
        return fmean(values)
    except OverflowError:
        return math.inf


def std(values: list[float]) -> float:
    """`pstdev`, or NaN (undefined) when a value is not finite."""
    return pstdev(values) if all(map(math.isfinite, values)) else math.nan


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


def aggregate(records: list[EpisodeResult]) -> SuiteMetrics:
    """Mean every per-query metric over N records (failures contribute 0).

    Exact match compares each record's golden and generated SQL; a missing
    generated query counts as a non-match.
    """
    if not records:
        raise EmptySuiteError("cannot aggregate an empty record list")
    p_hat = mean(r.indicator for r in records)
    vces = [vces_per_query(r) for r in records]
    return SuiteMetrics(
        n=len(records),
        em=mean(
            exact_match(r.golden_sql, r.generated_sql)
            if r.golden_sql.strip() and r.generated_sql.strip() else 0
            for r in records
        ),
        ea=mean(1 if r.exact else 0 for r in records),
        ves=mean(ves_per_query(r) for r in records),
        ves_star=mean(ves_star_per_query(r) for r in records),
        vces=None if None in vces else mean(vces),
        cvq=cvq(mean(r.c_e2e for r in records), p_hat),
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
