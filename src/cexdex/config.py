"""Run configuration and the markout grid."""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, fields

from .errors import InvalidConfig

# horizon measures a searcher's decline over this window after t*
DECLINE_HORIZON_S = 3.0


@dataclass(frozen=True)
class PipelineConfig:
    grid_start_s: float = -1.0
    grid_end_s: float = 10.0
    grid_step_s: float = 0.5
    # lowest Binance taker tier: 0.01725%
    taker_fee_rate: float = 0.0001725
    exclusivity_threshold: float = 0.5
    quote_staleness_ms: int = 5000
    pattern_flat_epsilon_bps: float = 1.0
    pattern_abrupt_drop_fraction: float = 0.5
    rolling_window_days: int = 30
    min_trades_low_confidence: int = 100

    def __post_init__(self):
        if self.grid_step_s <= 0:
            raise InvalidConfig("grid_step_s must be > 0")
        step_ms = round(self.grid_step_s * 1000)
        if step_ms == 0 or round(DECLINE_HORIZON_S * 1000) % step_ms:
            raise InvalidConfig(
                f"grid_step_s must divide the {DECLINE_HORIZON_S} s decline window after t*, to the ms"
            )
        if self.grid_start_s >= self.grid_end_s:
            raise InvalidConfig("grid_start_s must be < grid_end_s")
        if not (0 < self.exclusivity_threshold < 1):
            raise InvalidConfig("exclusivity_threshold must be in (0, 1)")
        if self.quote_staleness_ms <= 0:
            raise InvalidConfig("quote_staleness_ms must be > 0")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def load_config(path: str) -> PipelineConfig:
    """Read config.json; unknown keys are rejected rather than ignored."""
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise InvalidConfig(f"config is not valid JSON: {e}") from e
    known = {f.name for f in fields(PipelineConfig)}
    unknown = set(raw) - known
    if unknown:
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
    return PipelineConfig(**raw)


class MarkoutGrid:
    """Ordered markout offsets in seconds; default -1.0 .. +10.0 at 0.5 s.

    Offsets are stored both in seconds and in integer milliseconds so that
    quote-store lookups never accumulate float error.
    """

    def __init__(self, start_s: float = -1.0, end_s: float = 10.0, step_s: float = 0.5):
        if step_s <= 0 or start_s >= end_s:
            raise InvalidConfig("bad grid bounds")
        step_ms = round(step_s * 1000)
        start_ms = round(start_s * 1000)
        end_ms = round(end_s * 1000)
        self.offsets_ms: list[int] = list(range(start_ms, end_ms + 1, step_ms))
        self.offsets_s: list[float] = [ms / 1000.0 for ms in self.offsets_ms]
        if 0 not in self.offsets_ms:
            raise InvalidConfig("grid must contain offset 0.0")

    @classmethod
    def from_config(cls, cfg: PipelineConfig) -> "MarkoutGrid":
        return cls(cfg.grid_start_s, cfg.grid_end_s, cfg.grid_step_s)

    def __len__(self) -> int:
        return len(self.offsets_ms)

    def index_of(self, offset_s: float) -> int:
        ms = round(offset_s * 1000)
        try:
            return self.offsets_ms.index(ms)
        except ValueError:
            raise InvalidConfig(f"offset {offset_s} not on grid") from None
