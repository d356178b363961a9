"""Every dataclass an input file is read into, written out and read back.

The files are plans, pricing, records.json, trace lines and replay scripts;
each is read by `metrics.read_fields` against the annotations of its
dataclasses.  The JSON types each annotation accepts are stated here again,
as the oracle the reader is checked against.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
import typing
from pathlib import Path
from typing import Any

import pytest
from hypothesis import assume, given, settings, strategies as st

from bigsqlbench.agent import AgentConfig, Iteration, read_trace_line
from bigsqlbench.costmodel import ENGINE_MODES, EnginePricing, PricingConfig, PricingEntry
from bigsqlbench.llmclient import ExchangeRecord, SamplingConfig, _Usage
from bigsqlbench.metrics import EpisodeResult, from_json_object, load_records
from bigsqlbench.runner import BackendSpec, RunPlan

from tests.conftest import episode

# the JSON types of each scalar annotation; a bool is never a number
SCALAR_KINDS = {str: {str}, int: {int}, float: {int, float}, bool: {bool}, Path: {str}}
# one value of each JSON type
JSON_SAMPLES = [None, True, 7, 0.5, "x", [], {}]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
finite = st.floats(allow_nan=False, allow_infinity=False)
nonnegative = st.floats(min_value=0.0, max_value=1e9)
# absolute, so that a path reads back the same beside any file
paths = st.text(max_size=8).map(lambda name: Path("/", name))


def accepted(tp: Any) -> set[type] | None:
    """The JSON types a value of a field annotated `tp` may have; None for any."""
    if tp is Any:
        return None
    if tp in SCALAR_KINDS:
        return SCALAR_KINDS[tp]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if type(None) in args:  # X | None
        inner = accepted(next(arg for arg in args if arg is not type(None)))
        return None if inner is None else inner | {type(None)}
    return {list} if origin is list else {dict}


def values_of(tp: Any) -> st.SearchStrategy:
    """Valid in-memory values of a field annotated `tp`."""
    if dataclasses.is_dataclass(tp):
        return instances(tp)
    simple = {str: st.text(), int: st.integers(), float: finite, bool: st.booleans(),
              Path: paths, Any: json_values}
    if tp in simple:
        return simple[tp]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if type(None) in args:
        return st.none() | values_of(next(arg for arg in args if arg is not type(None)))
    if origin is list:
        return st.lists(values_of(args[0]), max_size=3)
    return st.dictionaries(st.text(max_size=6), values_of(args[1]), max_size=3)


episode_results = st.builds(
    lambda verdict, t_gen, extra, stage, tail, **measured: dataclasses.replace(
        episode(indicator=verdict[0], exact=verdict[1], t_gen=t_gen,
                t_e2e=t_gen + extra, stage_seconds=stage, stage_cost=stage,
                **measured),
        **tail,
    ),
    verdict=st.sampled_from([(0, False), (1, False), (1, True)]),
    t_gen=st.floats(min_value=1e-6, max_value=1e3),
    extra=st.floats(min_value=0.0, max_value=1e3),
    stage=st.dictionaries(st.text(max_size=6), st.floats(min_value=1e-6, max_value=1e6),
                          min_size=1, max_size=3),
    tail=st.fixed_dictionaries({
        "trace_path": st.none() | st.text(), "error": st.none() | st.text(),
        "estimated_usage": st.booleans(),
    }),
    model=st.text(), case_id=st.text(), rep=st.integers(),
    sf=st.floats(min_value=1e-3, max_value=1e3),
    precision=st.floats(min_value=0.0, max_value=1.0),
    t_gold=st.floats(min_value=1e-6, max_value=1e3), c_e2e=nonnegative,
)

# fields whose values a constructor restricts beyond their JSON type
RESTRICTED = {
    (PricingEntry, "input_per_mtok"): nonnegative,
    (PricingEntry, "output_per_mtok"): nonnegative,
    (EnginePricing, "mode"): st.sampled_from(ENGINE_MODES),
    (EnginePricing, "rate"): st.just(0.0) | nonnegative,
    (AgentConfig, "max_iterations"): st.integers(min_value=1),
    (AgentConfig, "sample_rows"): st.integers(min_value=0),
    (PricingConfig, "models"): st.lists(
        st.builds(PricingEntry, st.text(), nonnegative, nonnegative),
        max_size=3, unique_by=lambda entry: entry.id,
    ).map(lambda entries: {entry.id: entry for entry in entries}),
    (ExchangeRecord, "usage"): st.none() | st.builds(
        _Usage, *[st.none() | st.integers(min_value=0)] * 2
    ),
}


def instances(cls: type) -> st.SearchStrategy:
    """Valid instances of dataclass `cls`, each field drawn by its annotation."""
    if cls is EpisodeResult:
        return episode_results
    hints = typing.get_type_hints(cls)

    def build(**values):
        try:
            return cls(**values)
        except ValueError:  # a rule across fields
            return None

    return st.builds(build, **{
        f.name: RESTRICTED[cls, f.name] if (cls, f.name) in RESTRICTED
        else values_of(hints[f.name])
        for f in dataclasses.fields(cls) if f.init
    }).filter(lambda value: value is not None)


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
