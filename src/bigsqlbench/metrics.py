"""Scalar evaluation metrics and their aggregation over a suite of queries.

Covers the classic text-to-SQL trio (exact match, execution accuracy, valid
efficiency score) plus the end-to-end variants that fold in agent latency,
column precision, and dollar cost, and the expected cost per valid query
under a retry-until-success model; and the episode records (records.json)
they are computed from, which `report` reads without loading the engine.
`from_json_object` is the one reader of every JSON input file: plans,
pricing, records, traces, replay scripts and manifests.
"""

from __future__ import annotations

import functools
import json
import math
import re
import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from statistics import fmean, pstdev
from typing import Any, Callable, Collection, Iterable

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


# --- the one reader of JSON input files ----------------------------------------

# How a JSON value reads into a field of one annotation: the types the value
# may have (exactly, so a bool is never a number), their name in an error,
# and what reads such a value on as (value, path, base), if anything.
_Reading = tuple[tuple[type, ...], str, Callable[[Any, str, Path], Any] | None]


_ANY: _Reading = ((dict, list, str, int, float, bool, type(None)), "a JSON value", None)
# the annotation of an int that must be >= 0, such as a token count
Count = typing.NewType("Count", int)


def _count(value: int, path: str, base: Path) -> int:
    if value < 0:
        raise ValueError(f"`{path}` is not an int >= 0")
    return value


_SCALARS: dict[Any, _Reading] = {
    Any: _ANY, str: ((str,), "a string", None), int: ((int,), "an int", None),
    Count: ((int,), "an int >= 0", _count),
    bool: ((bool,), "a boolean", None),
    float: ((float,), "a number", None),  # an int is read as one too (`_read`)
    # a path is relative to the directory of its file
    Path: ((str,), "a string", lambda value, path, base: base / value),
}


@functools.cache
def _reading(tp: Any) -> _Reading:
    """The reading of annotation `tp`: one of `_SCALARS`, `X | None`,
    `list[X]`, `dict[str, X]` or a dataclass; no value reads as another."""
    if tp in _SCALARS:
        return _SCALARS[tp]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType) and type(None) in args:
        json_types, what, read = _reading(next(a for a in args if a is not type(None)))
        return json_types + (type(None),), f"null or {what}", read and (
            lambda value, path, base: None if value is None else read(value, path, base)
        )
    if origin is list:
        item = _reading(args[0])
        return (list,), "a list", lambda value, path, base: [
            _read(item, x, f"{path}[{i}]", base) for i, x in enumerate(value)
        ]
    if origin is dict:
        item = _reading(args[1])
        kept = item[0] if item[2] is None else ()  # values kept as they are

        def read_dict(value: dict, path: str, base: Path) -> dict:
            if all(type(x) in kept for x in value.values()):
                return value
            return {key: _read(item, x, f"{path}.{key}", base) for key, x in value.items()}

        return (dict,), "a JSON object", None if item is _ANY else read_dict
    if is_dataclass(tp):
        return (dict,), "a JSON object", (
            lambda value, path, base: from_json_object(tp, value, path, base)
        )
    return (), f"a {tp}", None


def _read(reading: _Reading, value: Any, path: str, base: Path) -> Any:
    json_types, what, read = reading
    if type(value) not in json_types:
        if type(value) is int and float in json_types:
            try:
                return float(value)
            except OverflowError:  # an int too large for a float
                raise ValueError(f"`{path}` is out of range for a number") from None
        raise ValueError(f"`{path}` is not {what}" if path else f"not {what}")
    return value if read is None else read(value, path, base)


@functools.cache
def _fields(cls: type) -> tuple[dict[str, _Reading], frozenset[str]]:
    """The reading of each field of dataclass `cls`, from its annotation,
    resolved once per class; and the fields that have a default."""
    hints = typing.get_type_hints(cls)
    return {f.name: _reading(hints[f.name]) for f in fields(cls)}, frozenset(
        f.name for f in fields(cls)
        if f.default is not MISSING or f.default_factory is not MISSING
    )


def read_json(tp: Any, value: Any, where: str = "", base: Path = Path()) -> Any:
    """The JSON value at path `where` of a file ("" for the file itself) as
    a field annotated `tp` holds it, or ValueError naming `where`."""
    return _read(_reading(tp), value, where, base)


def check_keys(
    raw: Any, names: Collection[str], optional: Collection[str] = (), where: str = ""
) -> None:
    """Raise ValueError naming path `where` unless `raw` is a JSON object
    whose keys are `names`, but for those in `optional` that it lacks."""
    if type(raw) is not dict:
        raise ValueError(f"`{where}` is not a JSON object" if where else
                         "not a JSON object")
    missing = [name for name in names if name not in raw and name not in optional]
    unknown = [key for key in raw if key not in names]
    if missing or unknown:
        in_where = f" in {where}" if where else ""
        raise ValueError("; ".join(
            f"{fault} key {', '.join(map(repr, keys))}{in_where}"
            for fault, keys in (("missing", missing), ("unknown", unknown)) if keys
        ))


def read_fields(
    cls: type, raw: Any, names: Collection[str], optional: Collection[str] = (),
    where: str = "", base: Path = Path(), **convert: Callable[[Any], Any],
) -> dict[str, Any]:
    """The fields `names` of dataclass `cls` in the JSON object `raw` at path
    `where`, each read by its annotation or by `convert[name]`; ValueError
    naming the path for a value of the wrong JSON type or, as `check_keys`
    raises it, for a wrong key."""
    check_keys(raw, names, optional, where)
    readings, prefix = _fields(cls)[0], f"{where}." if where else ""
    return {
        key: convert[key](value) if key in convert
        else _read(readings[key], value, prefix + key, base)
        for key, value in raw.items()
    }


def from_json_object(
    cls: type, raw: Any, where: str = "", base: Path = Path(),
    **convert: Callable[[Any], Any],
) -> Any:
    """The dataclass `cls` read from the JSON object `raw` by `read_fields`:
    an absent key takes the field's default, so each is declared once."""
    readings, optional = _fields(cls)
    return cls(**read_fields(cls, raw, readings, optional, where, base, **convert))


def check_fields(obj: Any) -> None:
    """Refuse, as `read_fields` does, a field of dataclass instance `obj`
    that holds a value of the wrong JSON type; store a float field's int
    as a float."""
    here = Path()
    for name, reading in _fields(type(obj))[0].items():
        value = getattr(obj, name)
        if type(value) not in reading[0] or reading[2] is not None:
            setattr(obj, name, _read(reading, value, name, here))


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
        check_fields(self)
        for name, value in vars(self).items():
            if type(value) is float and not math.isfinite(value):
                raise ValueError(f"{name} must be finite: {value}")
            if type(value) is dict and not all(0 <= x < math.inf for x in value.values()):
                raise ValueError(f"{name} values must be finite and >= 0")
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
    names = _fields(EpisodeResult)[0]  # every one: a run writes them all
    loaded = []
    for index, raw in enumerate(episodes):
        try:
            check_keys(raw, names)
            loaded.append(EpisodeResult(**raw))  # whose constructor reads each field
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
    """1 iff the two queries are textually identical after canonicalization;
    0 when either is blank."""
    if not golden_sql.strip() or not generated_sql.strip():
        return 0
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
        em=mean(exact_match(r.golden_sql, r.generated_sql) for r in records),
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
