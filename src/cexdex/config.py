"""Run configuration and the markout grid it defines.

A PipelineConfig is checked whole when it is made, so a bad config.json is
refused before any stage runs; MarkoutGrid is built from one and holds no
settings of its own.
"""

from __future__ import annotations

import json
import math
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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise InvalidConfig(f"config key {f.name!r} must be a finite number, not {value}")
        if self.grid_step_s <= 0:
            raise InvalidConfig("grid_step_s must be > 0")
        step_ms = round(self.grid_step_s * 1000)
        if step_ms == 0 or round(DECLINE_HORIZON_S * 1000) % step_ms:
            raise InvalidConfig(
                f"grid_step_s must divide the {DECLINE_HORIZON_S} s decline window after t*, to the ms"
            )
        if self.grid_start_s >= self.grid_end_s:
            raise InvalidConfig("grid_start_s must be < grid_end_s")
        if 0 not in MarkoutGrid(self).offsets_ms:
            raise InvalidConfig("the grid from grid_start_s to grid_end_s by grid_step_s "
                                "must contain offset 0.0")
        if not (0 < self.exclusivity_threshold < 1):
            raise InvalidConfig("exclusivity_threshold must be in (0, 1)")
        if self.quote_staleness_ms <= 0:
            raise InvalidConfig("quote_staleness_ms must be > 0")
        if self.rolling_window_days < 3:  # a Spearman correlation needs 3 points
            raise InvalidConfig("rolling_window_days must be >= 3")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def load_config(path: str) -> PipelineConfig:
    """Read config.json: an object of PipelineConfig fields, each of its
    field's JSON type; unknown keys are rejected rather than ignored."""
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise InvalidConfig(f"config is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise InvalidConfig("config must be a JSON object")
    annotation = {f.name: f.type for f in fields(PipelineConfig)}
    unknown = set(raw) - set(annotation)
    if unknown:
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
    json_types = {"int": ((int,), "an integer"), "float": ((int, float), "a number")}
    for key, value in raw.items():
        types, what = json_types[annotation[key]]
        # a JSON true/false is a Python bool, which Python counts as an int
        if isinstance(value, bool) or not isinstance(value, types):
            raise InvalidConfig(f"config key {key!r} must be {what}, not {json.dumps(value)}")
    return PipelineConfig(**raw)


class MarkoutGrid:
    """A config's markout offsets, grid_start_s to grid_end_s by grid_step_s.

    Offsets are stored both in seconds and in integer milliseconds so that
    quote-store lookups never accumulate float error. PipelineConfig has
    checked that they include 0.
    """

    def __init__(self, cfg: PipelineConfig):
        start_ms, end_ms = round(cfg.grid_start_s * 1000), round(cfg.grid_end_s * 1000)
        self.offsets_ms = list(range(start_ms, end_ms + 1, round(cfg.grid_step_s * 1000)))
        self.offsets_s: list[float] = [ms / 1000.0 for ms in self.offsets_ms]

    def __len__(self) -> int:
        return len(self.offsets_ms)

    def index_of(self, offset_s: float) -> int:
        ms = round(offset_s * 1000)
        try:
            return self.offsets_ms.index(ms)
        except ValueError:
            raise InvalidConfig(f"offset {offset_s} not on grid") from None
