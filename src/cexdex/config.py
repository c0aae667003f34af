"""Run configuration, the markout grid included.

A PipelineConfig is checked whole when it is made, so a bad config.json is
refused before any stage runs, and derives its markout offsets from its grid
settings. read_json and checked_fields read the JSON inputs
(config.json, searchers.json and a synth scenario) and check a JSON
object's keys and value types against a dataclass's fields.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cached_property
from pathlib import Path

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
        if 0 not in self.offsets_ms:
            raise InvalidConfig("the grid from grid_start_s to grid_end_s by grid_step_s "
                                "must contain offset 0.0")
        if not (0 < self.exclusivity_threshold < 1):
            raise InvalidConfig("exclusivity_threshold must be in (0, 1)")
        if self.quote_staleness_ms <= 0:
            raise InvalidConfig("quote_staleness_ms must be > 0")
        if self.rolling_window_days < 3:  # a Spearman correlation needs 3 points
            raise InvalidConfig("rolling_window_days must be >= 3")
        if self.pattern_abrupt_drop_fraction <= 0:
            raise InvalidConfig("pattern_abrupt_drop_fraction must be > 0")
        for key in ("pattern_flat_epsilon_bps", "min_trades_low_confidence"):
            if getattr(self, key) < 0:
                raise InvalidConfig(f"{key} must be >= 0")

    @cached_property
    def offsets_ms(self) -> list[int]:
        """The markout offsets, grid_start_s to grid_end_s by grid_step_s, in
        integer ms, so that quote-store lookups never accumulate float error."""
        start_ms, end_ms = round(self.grid_start_s * 1000), round(self.grid_end_s * 1000)
        return list(range(start_ms, end_ms + 1, round(self.grid_step_s * 1000)))

    @cached_property
    def offsets_s(self) -> list[float]:
        return [ms / 1000.0 for ms in self.offsets_ms]

    def index_of(self, offset_s: float) -> int:
        """The grid column of ``offset_s``, rounded to the ms."""
        try:
            return self.offsets_ms.index(round(offset_s * 1000))
        except ValueError:
            raise InvalidConfig(f"offset {offset_s} not on grid") from None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def read_json(path: str | Path):
    """The JSON document in the file at ``path``, refused naming the file if not UTF-8 JSON."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise InvalidConfig(f"{Path(path).name} is not valid JSON: {e}") from e


def _is_number(v) -> bool:  # a JSON true/false is a Python bool, which Python counts as an int
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# The JSON value a field of each annotation takes, and its name in an error.
_JSON_TYPES = {
    "int": (lambda v: _is_number(v) and isinstance(v, int), "an integer"),
    "float": (_is_number, "a number"),
    "float | None": (lambda v: v is None or _is_number(v), "a number or null"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[str, ...]": (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
                        "a list of strings"),
    "dict[str, str]": (lambda v: isinstance(v, dict) and all(isinstance(x, str) for x in v.values()),
                       "an object of strings"),
    "tuple[SearcherSpec, ...]": (lambda v: isinstance(v, list), "a list"),  # each item checked too
}


def checked_fields(raw, cls: type, what: str) -> dict:
    """``raw``, a decoded JSON value named ``what`` in errors, as keyword
    arguments of the dataclass ``cls``: an object of its fields, those without
    a default included, each of its field's JSON type, and no other key."""
    if not isinstance(raw, dict):
        raise InvalidConfig(f"{what} must be a JSON object")
    annotation = {f.name: f.type for f in fields(cls)}
    unknown = set(raw) - set(annotation)
    if unknown:
        raise InvalidConfig(f"unknown keys in {what}: {sorted(unknown)}")
    missing = [f.name for f in fields(cls)
               if f.name not in raw and f.default is f.default_factory is MISSING]
    if missing:
        raise InvalidConfig(f"{what} lacks the required keys {missing}")
    for key, value in raw.items():
        accepts, kind = _JSON_TYPES[annotation[key]]
        if not accepts(value):
            raise InvalidConfig(f"{what} key {key!r} must be {kind}, not {json.dumps(value)}")
    return dict(raw)


def load_config(path: str | Path) -> PipelineConfig:
    """config.json: an object of PipelineConfig fields, each of its field's JSON type."""
    return PipelineConfig(**checked_fields(read_json(path), PipelineConfig, Path(path).name))

