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
from typing import Any, Callable, Collection, Iterable, Literal, NamedTuple

# the stages an episode's time and cost are attributed to, in report order
STAGES = ("list", "schema", "check", "run", "finalize")
# how an episode ends; a harness error is a fault that is not the model's (a
# replayed request that no longer matches its recording, or a harness bug)
Outcome = Literal["completed", "exhausted", "tool-error", "llm-error", "harness-error"]


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


class _Reading(NamedTuple):
    """How a value reads into a field of one annotation: the types it may
    have (exactly, so a bool is never a number), their name in an error, a
    rule it must meet too, and what reads it on as (value, path, base)."""

    types: tuple[type, ...]
    what: str
    ok: Callable[[Any], bool] | None = None
    read: Callable[[Any, str, Path], Any] | None = None


_ANY = _Reading((dict, list, str, int, float, bool, type(None)), "a JSON value")
# the annotations of a value in a range, which each reads as its base type does
Count = typing.NewType("Count", int)  # >= 0, such as a token count
PositiveInt = typing.NewType("PositiveInt", int)  # >= 1, such as a repetition count
NonNegative = typing.NewType("NonNegative", float)  # finite, >= 0: a price, a time
Positive = typing.NewType("Positive", float)  # finite, > 0: a scale factor
Fraction = typing.NewType("Fraction", float)  # in [0, 1]: a precision

_SCALARS: dict[Any, _Reading] = {
    Any: _ANY, str: _Reading((str,), "a string"), int: _Reading((int,), "an int"),
    bool: _Reading((bool,), "a boolean"),
    float: _Reading((float,), "a number"),  # an int is read as one too (`_read`)
    Count: _Reading((int,), "an int >= 0", lambda x: x >= 0),
    PositiveInt: _Reading((int,), "an int >= 1", lambda x: x >= 1),
    # a comparison with NaN is false, so NaN is in no range
    NonNegative: _Reading((float,), "a finite number >= 0", lambda x: 0 <= x < math.inf),
    Positive: _Reading((float,), "a finite number > 0", lambda x: 0 < x < math.inf),
    Fraction: _Reading((float,), "a number in [0, 1]", lambda x: 0 <= x <= 1),
    # a path is relative to the directory of its file; a Path in memory is one
    Path: _Reading((str, type(Path())), "a string",
                   read=lambda value, path, base: base / value),
}
_HERE = Path()  # what `check_fields` reads a Path relative to


@functools.cache
def _reading(tp: Any) -> _Reading:
    """The reading of annotation `tp`: one of `_SCALARS`, a `Literal`,
    `X | None`, `list[X]`, `dict[str, X]` or a dataclass; no value reads as
    another.  A dataclass reads from a JSON object, or is an instance of it,
    whose fields are checked the same way (`check_fields`)."""
    if tp in _SCALARS:
        return _SCALARS[tp]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Literal:
        return _Reading(tuple(set(map(type, args))), f"one of {', '.join(map(str, args))}",
                        frozenset(args).__contains__)
    if origin in (typing.Union, types.UnionType) and type(None) in args:
        inner = _reading(next(a for a in args if a is not type(None)))
        return _Reading(
            inner.types + (type(None),), f"null or {inner.what}",
            inner.ok and (lambda value: value is None or inner.ok(value)),
            inner.read and (lambda value, path, base:
                            None if value is None else inner.read(value, path, base)),
        )
    if origin in (list, dict):
        item = _reading(args[-1])
        item_types, _, item_ok, item_read = item

        def read_items(value: Any, path: str, base: Path) -> Any:
            # the value itself when each item reads as itself, so that no
            # path is built for one; else a copy, each item read at its path
            if item_read is None and all(
                type(x) in item_types and (item_ok is None or item_ok(x))
                for x in (value if origin is list else value.values())
            ):
                return value
            if origin is list:
                return [_read(item, x, f"{path}[{i}]", base) for i, x in enumerate(value)]
            return {key: _read(item, x, f"{path}.{key}", base) for key, x in value.items()}

        return _Reading((origin,), "a list" if origin is list else "a JSON object",
                        read=None if item is _ANY else read_items)
    if is_dataclass(tp):
        return _Reading((dict, tp), "a JSON object", read=lambda value, path, base: (
            check_fields(value, path) if type(value) is tp
            else from_json_object(tp, value, path, base)
        ))
    return _Reading((), f"a {tp}")


def _read(reading: _Reading, value: Any, path: str, base: Path) -> Any:
    json_types, what, ok, read = reading
    if type(value) not in json_types and type(value) is int and float in json_types:
        try:
            value = float(value)
        except OverflowError:  # an int too large for a float
            raise ValueError(f"`{path}` is out of range for a number") from None
    if type(value) not in json_types or (ok is not None and not ok(value)):
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
    naming the path for a value its annotation does not allow or, as
    `check_keys` raises it, for a wrong key."""
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


def check_fields(obj: Any, where: str = "") -> Any:
    """Refuse, as `read_fields` refuses it in a file, a field of dataclass
    instance `obj` at path `where` whose value its annotation does not allow,
    in a nested dataclass, list or dict too; store a float field's int as a
    float.  Returns `obj`."""
    for name, reading in _fields(type(obj))[0].items():
        value = getattr(obj, name)
        types, _, ok, read = reading
        if read is None and type(value) in types and (ok is None or ok(value)):
            continue
        checked = _read(reading, value, f"{where}.{name}" if where else name, _HERE)
        if checked is not value:
            object.__setattr__(obj, name, checked)  # a frozen instance's too
    return obj


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
    repetition: Count
    scale_factor: Positive
    indicator: Literal[0, 1]
    exact: bool
    precision: Fraction
    t_gold: Positive
    t_gen: NonNegative
    t_e2e: NonNegative
    c_e2e: NonNegative
    outcome: Outcome
    golden_sql: str
    generated_sql: str
    stage_seconds: dict[str, NonNegative]
    stage_percentages: dict[str, NonNegative]
    stage_cost: dict[str, NonNegative]
    trace_path: str | None = None
    error: str | None = None
    estimated_usage: bool = False

    def __post_init__(self) -> None:
        check_fields(self)
        # strict equality implies containment
        if self.exact and not self.indicator:
            raise ValueError("an exact result must have indicator 1, got 0")
        # a valid result comes only from a query the engine ran and timed
        if self.valid and self.t_gen == 0:
            raise ValueError(f"a valid run must have a positive t_gen: {self.t_gen}")
        if self.t_e2e < self.t_gen:
            raise ValueError(f"t_e2e ({self.t_e2e}) must be >= t_gen ({self.t_gen})")

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
