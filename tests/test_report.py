"""Every list of episodes the record constructor accepts can be reported."""

from __future__ import annotations

import math
import tempfile

from hypothesis import example, given, settings, strategies as st

from bigsqlbench.cli import REPORT_FORMATS
from bigsqlbench.metrics import STAGES, EpisodeResult
from bigsqlbench.report import build_report, render_markdown, render_report

from tests.conftest import episode

# any finite amount, zero and the largest floats included
_amounts = st.floats(min_value=0.0, allow_infinity=False)
# at most one field set to a value the constructor must refuse
_spoilers = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from(
            ["t_gold", "t_gen", "t_e2e", "c_e2e", "precision", "stage_cost"]
        ),
        st.sampled_from([math.nan, math.inf, -1.0]),
    ),
)


@st.composite
def _episode(draw) -> EpisodeResult | None:
    """An episode, or None where the constructor refuses what was drawn."""
    stages = st.dictionaries(st.sampled_from(STAGES), _amounts)
    t_gen = draw(_amounts)
    stage_cost = draw(stages)
    values = dict(
        t_gold=draw(_amounts), t_gen=t_gen, t_e2e=t_gen + draw(_amounts),
        c_e2e=sum(stage_cost.values()), precision=draw(st.floats(0.0, 1.0)),
        stage_cost=stage_cost,
    )
    spoiler = draw(_spoilers)
    if spoiler is not None:
        name, value = spoiler
        values[name] = {"run": value} if name == "stage_cost" else value
    try:
        return EpisodeResult(
            model=draw(st.sampled_from(["a", "b"])),
            case_id=draw(st.sampled_from(["q1", "q2"])),
            repetition=draw(st.integers(0, 2)),
            scale_factor=draw(st.sampled_from([0.001, 0.01, 0.1])),
            indicator=draw(st.sampled_from([0, 1])),
            exact=draw(st.booleans()),
            outcome="completed",
            golden_sql="SELECT 1",
            generated_sql=draw(
                st.sampled_from(["SELECT 1", "select 1", "", "SELECT 2"])
            ),
            stage_seconds=draw(stages),
            **values,
        )
    except ValueError:
        return None


_episode_lists = st.lists(_episode(), min_size=1, max_size=6).map(
    lambda drawn: [ep for ep in drawn if ep is not None]
).filter(bool)


def _rendered_values(report: dict) -> list:
    """Every value the markdown report shows in a cell, in no order."""
    values = []
    for row in report["table1"]:
        values += [row["ex"], row["ea"], row["e2e_mean"], row["e2e_std"],
                   *row["pct"].values()]
    for row in report["table2"]:
        values += [row["ves_norm"], row["ves_star_norm"],
                   *row["time_variation"].values()]
    for row in report["table3"]:
        values += [row["vces_norm"], row["cvq"], *row["cost_variation"].values()]
    for row in report["per_query"]:
        values += [row[f"{name}_{part}"] for name in ("ex", "ves", "ves_star", "vces")
                   for part in ("mean", "std")]
        values.append(row["cvq"])
    return values


def _markdown_cells(markdown: str) -> list[str]:
    """The data cells of every markdown table, a `mean +/- std` cell as two."""
    cells = []
    for line in markdown.splitlines():
        # data rows only: headers begin with Model or Case, rules with |---
        if line.startswith("| ") and not line.startswith(("| Model", "| Case")):
            for cell in line[2:-2].split(" | "):
                cells += cell.split(" +/- ")
    return cells


@settings(deadline=None)
@given(_episode_lists)
# one model, one episode, and a valid run that cost nothing
@example([episode("m", "q1", c_e2e=0.0)])
# no valid episode, and no cost at all
@example([
    episode("m", f"q{i}", indicator=0, exact=False, precision=0.0, t_gen=0.0,
            c_e2e=0.0, stage_cost={s: 0.0 for s in STAGES})
    for i in range(3)
])
# several models and scale factors
@example([episode(m, "q1", sf=sf) for m in ("a", "b") for sf in (0.001, 0.01, 0.1)])
def test_every_accepted_episode_list_is_reported(episodes):
    report = build_report(episodes)
    with tempfile.TemporaryDirectory() as out:
        for fmt in REPORT_FORMATS:
            assert render_report(episodes, [fmt], out)

    undefined = sum(
        1 for value in _rendered_values(report)
        if value is None or not math.isfinite(value)
    )
    cells = _markdown_cells(render_markdown(report))
    assert cells.count("--") == undefined
    assert not {"nan", "inf", "-inf", "None"} & set(cells)


def test_table1_shares_are_each_episodes_stage_shares_averaged():
    split = episode("m", "q1", stage_seconds={"list": 1.0, "run": 3.0})
    idle = episode("m", "q2", stage_seconds=dict.fromkeys(STAGES, 0.0))
    [row] = build_report([split])["table1"]
    assert row["pct"] == {**dict.fromkeys(STAGES, 0.0), "list": 25.0, "run": 75.0}
    # an episode whose stages took no time adds 0 to each stage's mean
    [row] = build_report([split, idle])["table1"]
    assert row["pct"] == {**dict.fromkeys(STAGES, 0.0), "list": 12.5, "run": 37.5}
