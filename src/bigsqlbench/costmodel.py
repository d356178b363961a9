"""Composes an episode's dollar cost from token usage and engine runtime.

Pricing is declarative config: per-model token rates plus one engine pricing
rule (per second of runtime, per byte scanned, or free).  A cost ledger
splits the spend per agent stage so reports can attribute it.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .agent import AgentTrace

logger = logging.getLogger(__name__)

ENGINE_MODES = ("per-second", "per-byte-scanned", "free")


class MissingPricingError(KeyError):
    """A model id has no pricing entry; costs must never default to zero."""


@dataclass(frozen=True)
class PricingEntry:
    """Per-model token prices in dollars per million tokens."""

    model_id: str
    input_per_mtok: float
    output_per_mtok: float

    def __post_init__(self) -> None:
        # `not >= 0` also rejects NaN, which would bill every episode $nan
        if not (self.input_per_mtok >= 0 and self.output_per_mtok >= 0):
            raise ValueError("token prices must be nonnegative")


@dataclass(frozen=True)
class EnginePricing:
    """How engine usage is monetized: per-second, per-byte-scanned, or free."""

    mode: str = "free"
    rate: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ENGINE_MODES:
            raise ValueError(f"unknown engine pricing mode: {self.mode!r}")
        if not self.rate >= 0:  # also rejects NaN
            raise ValueError("engine rate must be nonnegative")
        if self.mode == "free" and self.rate != 0.0:
            raise ValueError("free mode requires rate 0")


@dataclass
class PricingConfig:
    """Model pricing table plus the engine pricing rule."""

    models: dict[str, PricingEntry] = field(default_factory=dict)
    engine: EnginePricing = field(default_factory=EnginePricing)

    def lookup(self, model_id: str) -> PricingEntry:
        try:
            return self.models[model_id]
        except KeyError:
            raise MissingPricingError(
                f"no pricing entry for model {model_id!r}; refusing to bill at $0"
            ) from None

    @classmethod
    def from_json_file(cls, path: str | Path) -> "PricingConfig":
        data = json.loads(Path(path).read_text())
        _reject_unknown_keys(data, ("models", "engine"), "")
        models = {}
        for i, entry in enumerate(data.get("models", [])):
            _reject_unknown_keys(
                entry, ("id", "input_per_mtok", "output_per_mtok"), f" in models[{i}]"
            )
            models[entry["id"]] = PricingEntry(
                model_id=entry["id"],
                input_per_mtok=float(entry["input_per_mtok"]),
                output_per_mtok=float(entry["output_per_mtok"]),
            )
        engine_data = data.get("engine", {})
        _reject_unknown_keys(engine_data, ("mode", "rate"), " in engine")
        engine = EnginePricing(
            mode=engine_data.get("mode", "free"),
            rate=float(engine_data.get("rate", 0.0)),
        )
        return cls(models=models, engine=engine)


def _reject_unknown_keys(
    raw: dict[str, Any], known: tuple[str, ...], where: str
) -> None:
    """Raise ValueError naming every key of `raw` outside `known`, so that a
    misspelt setting in a plan or pricing file is never silently ignored."""
    unknown = [key for key in raw if key not in known]
    if unknown:
        raise ValueError(f"unknown key {', '.join(map(repr, unknown))}{where}")


@dataclass
class StageCost:
    """Token usage, engine usage, and their costs for one agent stage."""

    stage: str
    input_tokens: int = 0
    output_tokens: int = 0
    llm_cost: float = 0.0
    engine_seconds: float = 0.0
    engine_bytes: int = 0
    engine_cost: float = 0.0

    @property
    def total(self) -> float:
        return self.llm_cost + self.engine_cost


@dataclass
class CostLedger:
    """Per-stage cost entries; the grand total is the episode's C_e2e."""

    stages: dict[str, StageCost] = field(default_factory=dict)

    def stage(self, name: str) -> StageCost:
        if name not in self.stages:
            self.stages[name] = StageCost(stage=name)
        return self.stages[name]

    @property
    def total(self) -> float:
        return sum(s.total for s in self.stages.values())


def llm_cost(entry: PricingEntry, input_tokens: int, output_tokens: int) -> float:
    """Token spend in dollars for one model at its per-million-token rates."""
    if input_tokens < 0 or output_tokens < 0:
        raise ValueError("token counts must be nonnegative")
    return (
        input_tokens * entry.input_per_mtok / 1e6
        + output_tokens * entry.output_per_mtok / 1e6
    )


def engine_cost(
    pricing: EnginePricing, runtime_seconds: float, bytes_scanned: int | None
) -> float:
    """Engine spend for one execution under the configured pricing rule."""
    if runtime_seconds < 0:
        raise ValueError("runtime must be nonnegative")
    if pricing.mode == "free":
        return 0.0
    if pricing.mode == "per-second":
        return pricing.rate * runtime_seconds
    if bytes_scanned is None:
        # Embedded engines rarely report scan volume; without it the
        # per-byte rule has nothing to bill.
        logger.warning(
            "per-byte engine pricing with no bytes_scanned reported; "
            "engine cost recorded as $0"
        )
        return 0.0
    if bytes_scanned < 0:
        raise ValueError("bytes scanned must be nonnegative")
    return pricing.rate * bytes_scanned


def compose_ledger(
    trace: "AgentTrace",
    pricing: PricingEntry,
    engine: EnginePricing,
) -> CostLedger:
    """Bill every iteration's tokens and engine usage to its stage.

    The checker call inside a check iteration is already folded into that
    iteration's token counts, so it lands in the check stage.
    """
    from .agent import stage_for_action

    ledger = CostLedger()
    for it in trace.iterations:
        stage = ledger.stage(stage_for_action(it.action))
        stage.input_tokens += it.input_tokens
        stage.output_tokens += it.output_tokens
        stage.engine_seconds += it.engine_seconds
        if it.engine_bytes:
            stage.engine_bytes += it.engine_bytes

    for stage in ledger.stages.values():
        stage.llm_cost = llm_cost(pricing, stage.input_tokens, stage.output_tokens)
        stage.engine_cost = engine_cost(
            engine, stage.engine_seconds, stage.engine_bytes or None
        )
    return ledger
