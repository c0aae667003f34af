"""Per-searcher optimal execution horizon and curve-shape classification.

A searcher's input is the GR rows of its included trades, one column per
offset of the run's MarkoutGrid (``MarkoutTable.gr`` at
``MarkoutTable.included_rows()``); an offset's column is always
``MarkoutGrid.index_of``. The horizon t* is the grid offset maximizing the
cross-trade median gross return; tied maxima on the leading plateau (before
the first strict decrease) resolve to the largest offset. Searchers with no
discernible peak (flat curve) are classified Pattern 3 and carry no horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DECLINE_HORIZON_S, MarkoutGrid, PipelineConfig
from .errors import NoTrades, OutOfGrid, PeakNonPositive

PATTERN_GENTLE = "P1"
PATTERN_ABRUPT = "P2"
PATTERN_FLAT = "P3"


@dataclass
class MedianCurve:
    searcher_label: str
    grid: MarkoutGrid
    median_gr: np.ndarray
    n_trades: int


@dataclass
class SearcherProfile:
    searcher_label: str
    t_star_s: float | None
    pattern: str
    decline_3s_fraction: float | None
    n_arb_trades: int
    low_confidence: bool = False


def median_curve(searcher_label: str, grs: np.ndarray, grid: MarkoutGrid) -> MedianCurve:
    """Per-offset median over the GR rows of one searcher's trades.

    Even-cardinality medians are the mean of the two central order
    statistics (numpy's default).
    """
    if len(grs) == 0:
        raise NoTrades(searcher_label)
    return MedianCurve(searcher_label, grid, np.median(grs, axis=0), len(grs))


def optimal_horizon(curve: MedianCurve) -> float:
    """Largest offset on the leading plateau of tied maxima."""
    med = curve.median_gr
    if med.size == 0:
        raise NoTrades(curve.searcher_label)
    best = np.max(med)
    peak = int(np.argmax(med))  # first index attaining the max
    # extend over consecutive ties until the first strict decrease
    while peak + 1 < med.size and med[peak + 1] == best:
        peak += 1
    return curve.grid.offsets_s[peak]


def decline_after_peak(curve: MedianCurve, t_star_s: float) -> float:
    """Fractional drop of the median between t* and t* + DECLINE_HORIZON_S."""
    grid, target_s = curve.grid, t_star_s + DECLINE_HORIZON_S
    if round(target_s * 1000) > grid.offsets_ms[-1]:
        raise OutOfGrid(f"t*+{DECLINE_HORIZON_S}s = {target_s}s beyond grid")
    at_peak = float(curve.median_gr[grid.index_of(t_star_s)])
    at_target = float(curve.median_gr[grid.index_of(target_s)])
    if at_peak <= 0:
        raise PeakNonPositive(f"median at t* is {at_peak}")
    return (at_peak - at_target) / at_peak


def classify_pattern(curve: MedianCurve, cfg: PipelineConfig) -> str:
    """P3 when flat within epsilon; else P2 on abrupt post-peak drop, else P1."""
    med = curve.median_gr
    if (np.max(med) - np.min(med)) * 1e4 <= cfg.pattern_flat_epsilon_bps:
        return PATTERN_FLAT
    t_star = optimal_horizon(curve)
    try:
        decline = decline_after_peak(curve, t_star)
    except OutOfGrid:
        # peak too close to the grid end for the 3 s window: measure to the end
        decline = _decline_to_grid_end(curve, t_star)
    except PeakNonPositive:
        return PATTERN_GENTLE
    if decline >= cfg.pattern_abrupt_drop_fraction:
        return PATTERN_ABRUPT
    return PATTERN_GENTLE


def _decline_to_grid_end(curve: MedianCurve, t_star_s: float) -> float:
    at_peak = float(curve.median_gr[curve.grid.index_of(t_star_s)])
    if at_peak <= 0:
        return 0.0
    return (at_peak - float(curve.median_gr[-1])) / at_peak


def build_profile(
    searcher_label: str,
    grs: np.ndarray,
    cfg: PipelineConfig,
    grid: MarkoutGrid,
) -> SearcherProfile:
    """Median curve -> pattern -> horizon for one searcher from its GR rows on ``grid``."""
    med = median_curve(searcher_label, grs, grid)
    pattern = classify_pattern(med, cfg)
    t_star = None if pattern == PATTERN_FLAT else optimal_horizon(med)
    decline = None
    if t_star is not None:
        try:
            decline = decline_after_peak(med, t_star)
        except (OutOfGrid, PeakNonPositive):
            decline = None
    return SearcherProfile(
        searcher_label=searcher_label,
        t_star_s=t_star,
        pattern=pattern,
        decline_3s_fraction=decline,
        n_arb_trades=med.n_trades,
        low_confidence=med.n_trades < cfg.min_trades_low_confidence,
    )
