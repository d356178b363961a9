"""Every dataclass an input file is read into, written out and read back.

The files are plans, pricing, records.json, trace lines and replay scripts;
each is read by `metrics.read_fields` against the annotations of its
dataclasses.  The JSON types each annotation accepts, and the range of each
constrained one, are stated here again, as the oracle the reader is checked
against.
"""

from __future__ import annotations

import dataclasses
import json
import math
import tempfile
import typing
from pathlib import Path
from typing import Any, Literal

import pytest
from hypothesis import assume, given, settings, strategies as st

from bigsqlbench.agent import AgentConfig, Iteration, read_trace_line
from bigsqlbench.costmodel import EnginePricing, PricingConfig, PricingEntry
from bigsqlbench.llmclient import ExchangeRecord, SamplingConfig
from bigsqlbench.metrics import (
    Count,
    EpisodeResult,
    Fraction,
    NonNegative,
    Positive,
    PositiveInt,
    from_json_object,
    load_records,
)
from bigsqlbench.runner import BackendSpec, RunPlan

# the JSON types of each scalar annotation; a bool is never a number
SCALAR_KINDS = {str: {str}, int: {int}, float: {int, float}, bool: {bool}, Path: {str},
                Count: {int}, PositiveInt: {int}, NonNegative: {int, float},
                Positive: {int, float}, Fraction: {int, float}}
# one value of each JSON type
JSON_SAMPLES = [None, True, 7, 0.5, "x", [], {}]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
not_finite = st.sampled_from([math.inf, -math.inf, math.nan])
# each constrained annotation: its values, and values of its JSON type outside
# its range (`json` writes and reads NaN and Infinity)
RANGES = {
    Count: (st.integers(min_value=0), st.integers(max_value=-1)),
    PositiveInt: (st.integers(min_value=1), st.integers(max_value=0)),
    NonNegative: (st.just(0.0) | st.floats(min_value=0.0, max_value=1e9),
                  st.floats(max_value=-1e-300) | not_finite),
    Positive: (st.floats(min_value=1e-6, max_value=1e9),
               st.floats(max_value=0.0) | not_finite),
    Fraction: (st.floats(min_value=0.0, max_value=1.0),
               st.floats(min_value=1.0, exclude_min=True)
               | st.floats(max_value=0.0, exclude_max=True) | st.just(math.nan)),
}
# absolute, so that a path reads back the same beside any file
paths = st.text(max_size=8).map(lambda name: Path("/", name))


def accepted(tp: Any) -> set[type] | None:
    """The JSON types a value of a field annotated `tp` may have; None for any."""
    if tp is Any:
        return None
    if tp in SCALAR_KINDS:
        return SCALAR_KINDS[tp]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Literal:
        return {type(arg) for arg in args}
    if type(None) in args:  # X | None
        inner = accepted(next(arg for arg in args if arg is not type(None)))
        return None if inner is None else inner | {type(None)}
    return {list} if origin is list else {dict}


def values_of(tp: Any) -> st.SearchStrategy:
    """Valid in-memory values of a field annotated `tp`."""
    if dataclasses.is_dataclass(tp):
        return instances(tp)
    if tp in RANGES:
        return RANGES[tp][0]
    simple = {str: st.text(), int: st.integers(), bool: st.booleans(), Path: paths,
              float: st.floats(allow_nan=False, allow_infinity=False), Any: json_values}
    if tp in simple:
        return simple[tp]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Literal:
        return st.sampled_from(args)
    if type(None) in args:
        return st.none() | values_of(next(arg for arg in args if arg is not type(None)))
    if origin is list:
        return st.lists(values_of(args[0]), max_size=3)
    return st.dictionaries(st.text(max_size=6), values_of(args[1]), max_size=3)


def out_of_range(tp: Any) -> st.SearchStrategy | None:
    """A value a field annotated `tp` refuses though it has one of the JSON
    types the field accepts, with the path within the field it is refused at;
    None when every value of those types is accepted."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in RANGES:
        return RANGES[tp][1].map(lambda value: (value, ""))
    if origin is Literal:
        others = st.integers() if type(args[0]) is int else st.text()
        return others.filter(lambda value: value not in args).map(lambda value: (value, ""))
    if type(None) in args:
        return out_of_range(next(arg for arg in args if arg is not type(None)))
    inner = out_of_range(args[-1]) if origin in (list, dict) else None
    if inner is None:
        return None
    if origin is list:
        return inner.map(lambda bad: ([bad[0]], "[0]" + bad[1]))
    return inner.map(lambda bad: ({"k": bad[0]}, ".k" + bad[1]))


def instances(cls: type) -> st.SearchStrategy:
    """Valid instances of dataclass `cls`, each field drawn by its annotation."""
    hints = typing.get_type_hints(cls)

    def build(**values):
        try:
            return cls(**values)
        except ValueError:  # a rule across fields
            return None

    drawn = {f.name: values_of(hints[f.name]) for f in dataclasses.fields(cls) if f.init}
    if cls is PricingConfig:  # its models are keyed by their id
        drawn["models"] = st.lists(
            instances(PricingEntry), max_size=3, unique_by=lambda entry: entry.id
        ).map(lambda entries: {entry.id: entry for entry in entries})
    return st.builds(build, **drawn).filter(lambda value: value is not None)


def to_json(value: Any) -> Any:
    """`value` as its file writes it."""
    if isinstance(value, PricingConfig):  # a pricing file lists its models
        return {"models": [to_json(entry) for entry in value.models.values()],
                "engine": to_json(value.engine)}
    if dataclasses.is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, list):
        return [to_json(x) for x in value]
    if isinstance(value, dict):
        return {key: to_json(x) for key, x in value.items()}
    return value


def read_file(read, name: str, data: Any, **files: Any) -> Any:
    """What `read` reads from a file `name` holding `data`, with `files`
    (name -> data) beside it."""
    with tempfile.TemporaryDirectory() as tmp:
        for file_name, content in {name: data, **files}.items():
            (Path(tmp) / file_name).write_text(json.dumps(content))
        return read(Path(tmp) / name)


def read_plan(data: dict) -> RunPlan:
    return read_file(RunPlan.from_json_file, "plan.json",
                     {**data, "pricing": "pricing.json"}, **{"pricing.json": data["pricing"]})


def read_iteration(data: dict) -> Iteration:
    return Iteration(**read_trace_line({"type": "iteration", **data}, 1)[1])


# each reader dataclass, and how its file is read
READERS = {
    PricingEntry: lambda data: from_json_object(PricingEntry, data),
    EnginePricing: lambda data: from_json_object(EnginePricing, data),
    PricingConfig: lambda data: read_file(PricingConfig.from_json_file, "pricing.json", data),
    SamplingConfig: lambda data: from_json_object(SamplingConfig, data),
    AgentConfig: lambda data: from_json_object(AgentConfig, data),
    BackendSpec: lambda data: from_json_object(BackendSpec, data),
    RunPlan: read_plan,
    EpisodeResult: lambda data: read_file(
        load_records, "records.json", {"episodes": [data]}
    )[0],
    ExchangeRecord: lambda data: from_json_object(ExchangeRecord, data),
    Iteration: read_iteration,
}


@pytest.mark.parametrize("cls", READERS, ids=lambda cls: cls.__name__)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_a_written_instance_reads_back_equal(cls, data):
    instance = data.draw(instances(cls))
    written = json.loads(json.dumps(to_json(instance)))
    assert READERS[cls](written) == instance


@pytest.mark.parametrize("cls", READERS, ids=lambda cls: cls.__name__)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_a_value_of_another_json_type_is_refused_by_name(cls, data):
    written = json.loads(json.dumps(to_json(data.draw(instances(cls)))))
    hints = typing.get_type_hints(cls)
    name = data.draw(st.sampled_from(sorted(written)))
    # a pricing file lists the models that `PricingConfig` keys by id
    kinds = {list} if (cls, name) == (PricingConfig, "models") else accepted(hints[name])
    wrong = [value for value in JSON_SAMPLES if kinds is not None and type(value) not in kinds]
    # `read_plan` writes the pricing file that the plan's `pricing` names
    assume(wrong and (cls, name) != (RunPlan, "pricing"))
    written[name] = data.draw(st.sampled_from(wrong))
    with pytest.raises(ValueError) as refused:
        READERS[cls](written)
    assert f"`{name}` is not " in str(refused.value), str(refused.value)


def ranged_fields(cls: type) -> list[str]:
    """The fields of `cls` whose annotation refuses some values of its JSON types."""
    hints = typing.get_type_hints(cls)
    return [f.name for f in dataclasses.fields(cls)
            if out_of_range(hints[f.name]) is not None]


@pytest.mark.parametrize(
    "cls", [cls for cls in READERS if ranged_fields(cls)], ids=lambda cls: cls.__name__
)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_a_value_out_of_its_range_is_refused_by_name(cls, data):
    written = json.loads(json.dumps(to_json(data.draw(instances(cls)))))
    name = data.draw(st.sampled_from(ranged_fields(cls)))
    written[name], within = data.draw(out_of_range(typing.get_type_hints(cls)[name]))
    with pytest.raises(ValueError) as refused:
        READERS[cls](written)
    assert f"`{name}{within}` is not " in str(refused.value), str(refused.value)
