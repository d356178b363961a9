"""The benchmark's own arithmetic: percentiles, span self time and failure
counting.  selfcheck.py exercises each on synthetic inputs."""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Iterable, Sequence


def percentile(values: Sequence[float], p: float) -> tuple[float, int]:
    """Nearest-rank p-th percentile and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of intervals; overlaps count once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Any]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children running in parallel (worker threads under one parent) overlap;
    the union counts that stretch once, so self time never goes negative.
    """
    children: dict[int, list[Any]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        inside = (
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[span.span_id]
        )
        result[span.span_id] = (span.end - span.start) - covered(inside)
    return result


def scale_by_reference(
    timeline: Sequence[tuple[str, float]],
    reference: str,
    reference_value: float,
    exponents: dict[str, int],
    neighbours: int,
) -> dict[str, list[float]]:
    """Each sample named in exponents, scaled to the reference speed.

    timeline holds (name, value) in the order taken.  A sample's factor is
    reference_value over the mean of up to `neighbours` reference samples
    just before it and as many just after it; times take the factor to the
    power 1, rates to the power -1.
    """
    refs = [i for i, (name, _) in enumerate(timeline) if name == reference]
    scaled: dict[str, list[float]] = {}
    for i, (name, value) in enumerate(timeline):
        if name not in exponents:
            continue
        near = ([j for j in refs if j < i][-neighbours:]
                + [j for j in refs if j > i][:neighbours])
        local = sum(timeline[j][1] for j in near) / len(near)
        scaled.setdefault(name, []).append(value * (reference_value / local) ** exponents[name])
    return scaled


def count_failures(
    expected: dict[tuple[str, str], tuple[int, int]],
    repetitions: int,
    episodes: Sequence[dict[str, Any]],
) -> tuple[int, int, list[str]]:
    """(planned, failed, reasons) for one run's records.

    A planned (model, case, repetition) cell fails when it is missing, comes
    back more than once, errored, did not complete, or got an EX/EA verdict
    other than the expected one.  Skipped cells are missing.
    """
    planned = {
        (model, case, rep)
        for (model, case) in expected
        for rep in range(repetitions)
    }
    seen: dict[tuple[str, str, int], int] = defaultdict(int)
    bad: dict[tuple[str, str, int], str] = {}
    for ep in episodes:
        key = (ep["model"], ep["case_id"], ep["repetition"])
        seen[key] += 1
        if key not in planned:
            continue
        verdict = (int(ep["indicator"]), int(bool(ep["exact"])))
        if seen[key] > 1:
            bad[key] = "duplicate episode"
        elif ep.get("error"):
            bad[key] = f"error: {ep['error']}"
        elif ep.get("outcome") != "completed":
            bad[key] = f"outcome {ep.get('outcome')}"
        elif verdict != expected[(key[0], key[1])]:
            bad[key] = f"EX/EA {verdict} != expected {expected[(key[0], key[1])]}"
    for key in planned:
        if key not in seen:
            bad[key] = "missing"
    reasons = [f"{m}/{c}/r{r}: {why}" for (m, c, r), why in sorted(bad.items())]
    reasons += [f"{m}/{c}/r{r}: not planned" for (m, c, r) in sorted(set(seen) - planned)]
    return len(planned), len(bad), reasons
