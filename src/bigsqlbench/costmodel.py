"""Composes an episode's dollar cost from token usage and engine runtime.

Pricing is declarative config: per-model token rates plus one engine pricing
rule (per second of runtime, per byte scanned, or free).  Each agent
stage's usage is priced on its own, so reports can attribute the spend.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal

from .metrics import NonNegative, StageUsage, check_fields, from_json_object, read_json

logger = logging.getLogger(__name__)

EngineMode = Literal["per-second", "per-byte-scanned", "free"]


class MissingPricingError(KeyError):
    """A model id has no pricing entry; costs must never default to zero."""


@dataclass(frozen=True)
class PricingEntry:
    """Per-model token prices in dollars per million tokens."""

    id: str  # the model id, as a pricing file names it
    input_per_mtok: NonNegative
    output_per_mtok: NonNegative

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class EnginePricing:
    """How engine usage is monetized: per-second, per-byte-scanned, or free."""

    mode: EngineMode = "free"
    rate: NonNegative = 0.0

    def __post_init__(self) -> None:
        check_fields(self)
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
        """Read a pricing file: `models` is a list of `PricingEntry` objects,
        keyed here by their `id`."""
        return from_json_object(
            cls, json.loads(Path(path).read_text()),
            models=lambda raws: {
                entry.id: entry for entry in read_json(list[PricingEntry], raws, "models")
            },
        )


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
    stages: dict[str, StageUsage], pricing: PricingEntry, engine: EnginePricing
) -> dict[str, float]:
    """Each stage's dollars, its token spend plus its engine spend, in the
    order of `stages`."""
    return {
        name: llm_cost(pricing, usage.input_tokens, usage.output_tokens)
        + engine_cost(engine, usage.engine_seconds, usage.engine_bytes or None)
        for name, usage in stages.items()
    }
